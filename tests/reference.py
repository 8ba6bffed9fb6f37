"""Reference implementations kept only as test oracles.

* The small modification on symbol-keyed bijections: pi is rebuilt as a
  dict and rewired as sigma composed after pi.  The library swaps two
  entries of the order and of the arrows instead.
* The positional cascade on ``ABS`` objects: every stage rebuilds a full
  sequence, members are read off symbol positions, and the A- and B-phases
  are written out as mirrored loops, each with its own cycle check.  The
  library runs the same cascade on integer ids, and checks only the B-phase
  for a cycle; tests require both to agree stage by stage.
* The one-step set shortcuts (the next A-set is the arrow image of the
  previous one filtered by segment and label; the next B-set likewise
  without the segment filter).  For the A-side the shortcut can differ from
  the positional definition on non-adjacent pairs whose marker orbit wraps
  early, while no B-side divergence is known; tests pin both facts.
* The expansion-sorted length bound used to certify never-empty cascades.
* ``reordered``: the same symbols and bijection in a new order, through a
  symbol-keyed mapping.
* Binary expansions by walking pi^{-1} symbol by symbol over one orbit,
  each kept as a ``BinaryExpansion`` (its period bits and their exact
  ``Fraction`` value).  The library reads them off integer words, one walk
  per orbit (``_expansion_words``).
* A segment's expansion words straight from (m, n): pi^{-1} shifts
  positions by m.  The library takes the expansion words of the canonical
  sequence of the word 1^m 0^n (``_canonical_words``).
* The direct sum built from the walked expansion of each summand's symbols,
  sorted on ``Fraction`` values, and a symbol-keyed merge; the minimal
  sequence of a polygon is that sum of its minimal segments.  The library
  sorts exact integer keys instead, in one routine for every direct sum
  (``_merge_order``), and computes each distinct segment's expansion words
  once.
* The specialization test by full scan: every u in W_J = S_c x S_d is
  tried, from a table of (u^{-1}, theta(u)) image tuples built once per
  (h, c).  The library searches with pruning instead; tests require both to
  give the same answer.
* The block subgroup W_J itself (``parabolic_elements``), guarded by a cap
  on |W_J| = c! d!.
* Bruhat order by the prefix-count (dominance) criterion (``bruhat_leq``),
  which the full-scan specialization test applies to each conjugate, and
  Bruhat order by walking cover relations down from w, which checks it.
  The library decides specialization by coloured cycle types and needs no
  Bruhat order.
* The duality map on types by permutation conjugation: the word's
  representative w is conjugated by i -> l - i (l = h + 1) and read back as
  a word of the dual context.  The library reverses and flips the word.
* The generic specializations of w built from transpositions: every
  u (w s) theta(u^{-1}) with s a length-lowering transposition and u in W_J,
  kept if it is a representative one length below w.  The library matches
  coloured cycle types of w' x against those of w x and its cocovers
  instead.
* The coloured cycle type of a permutation by walking each cycle into a
  string of colours and keeping its least rotation.  The library types
  a permutation and its exchanges together, on integers
  (``_cocover_types``).
* The word of a representative read back off the coloured cycle type of
  w x by the inverse extended Burrows-Wheeler transform, on strings and a
  comparison sort.  The library sorts integer keys instead.
* A table from each coloured cycle type to its one representative, built by
  typing all C(h, c) representatives of a context, and the generic
  specializations looked up in it for each cocover's type.  The library
  reads each cocover's one candidate off its type instead.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache

from stratabound.errors import (
    ContextTooLarge,
    DimensionMismatch,
    InternalCheckError,
    InvalidPair,
    PreconditionViolated,
)
from stratabound.modification import (
    GENERIC,
    NONGENERIC_B_NEVER_EMPTY,
    NONGENERIC_LENGTH_DROP,
    SmallModPair,
)
from stratabound.newton import NewtonPolygon
from stratabound.sequences import (
    ABS,
    Symbol,
    _cycle_words,
    length,
    minimal_abs_segment,
    word_length,
)
from stratabound.weyl import (
    JWContext,
    Permutation,
    _times_x,
    binary_to_jw,
    coxeter_length,
    is_jw,
    jw_elements,
    jw_to_binary,
    resolve_budget,
    theta,
)

NONGENERIC_A_NEVER_EMPTY = "NonGenericANeverEmpty"


def reordered(S: ABS, order) -> ABS:
    """Same symbols and bijection, new order."""
    return ABS(order, {t: S.pi(t) for t in S.order})


@dataclass(frozen=True)
class BinaryExpansion:
    """Periodic expansion word of one symbol; value is the exact rational."""

    bits: tuple[int, ...]

    @property
    def period(self) -> int:
        return len(self.bits)

    @cached_property
    def value(self) -> Fraction:
        p = self.period
        return Fraction(int("".join(map(str, self.bits)), 2) if p else 0, 2**p - 1)


def expansion_by_orbit_walk(S: ABS, t: Symbol) -> BinaryExpansion:
    """Expansion word b_i = delta(pi^{-i}(t)), one ``pi_inverse`` step per bit over t's orbit."""
    bits = []
    cur = t
    while True:
        cur = S.pi_inverse(cur)
        bits.append(cur.label)
        if cur == t:
            return BinaryExpansion(tuple(bits))


def segment_words_by_shift(m: int, n: int) -> tuple[int, tuple[int, ...]]:
    """Expansion values of t_1 .. t_{m+n} in the minimal sequence of segment (m, n).

    Returned as the denominator 2^(m+n) - 1 and one integer word per symbol.
    pi^{-1} shifts positions by +m, and for coprime (m, n) that one orbit
    visits every position.
    """
    h = m + n
    orbit = [(k * m) % h for k in range(h)]
    words = [0] * h
    for z, word in zip(orbit, _cycle_words([1 if z < m else 0 for z in orbit])):
        words[z] = word
    return (1 << h) - 1, tuple(words)


def direct_sum_by_expansions(*summands: ABS) -> ABS:
    """Direct sum: the summands' symbols sorted by (expansion value, summand,
    position), each value a ``Fraction`` read off ``expansion_by_orbit_walk``,
    with pi carried over symbol by symbol.  A symbol in two summands raises
    ``ValueError``, as in the library."""
    keyed = sorted(
        (expansion_by_orbit_walk(S, t).value, k, z, t)
        for k, S in enumerate(summands)
        for z, t in enumerate(S.order)
    )
    pi = {t: S.pi(t) for S in summands for t in S.order}
    return ABS([t for *_, t in keyed], pi)


def minimal_abs_by_expansions(polygon: NewtonPolygon) -> ABS:
    """Minimal sequence of a polygon: the direct sum by expansions of its
    minimal segments, in segment order."""
    return direct_sum_by_expansions(
        *(minimal_abs_segment(seg.m, seg.n, segment=k) for k, seg in enumerate(polygon.segments, start=1))
    )


@dataclass(frozen=True)
class RefStage:
    kind: str
    index: int
    sequence: ABS
    marker: Symbol
    members: tuple[Symbol, ...]


@dataclass(frozen=True)
class RefTrace:
    source: ABS
    pair: SmallModPair
    small: ABS
    stages: tuple[RefStage, ...]
    a: int | None
    b: int | None
    result: ABS | None
    verdict: str | None


def small_modification(S: ABS, pair: SmallModPair) -> ABS:
    """Swap the pair in the order and exchange the two symbols' pi-images.

    Rewiring is sigma composed after pi, where sigma transposes the two
    symbols: arrows into either one land on the other (so only their two
    preimages change), and the swapped symbols' own images trade places
    exactly when they point at each other.
    """
    i = S.position(pair.zero)
    j = S.position(pair.one)
    if i >= j:
        raise InvalidPair(f"pair {pair} needs the 0-symbol strictly before the 1-symbol")
    order = list(S.order)
    order[i - 1], order[j - 1] = order[j - 1], order[i - 1]
    pi = {t: S.pi(t) for t in order}
    pi[S.pi_inverse(pair.zero)] = pair.one
    pi[S.pi_inverse(pair.one)] = pair.zero
    return ABS(order, pi)


def _orbit(S: ABS, start: Symbol) -> list[Symbol]:
    out = [start]
    t = S.pi(start)
    while t != start:
        out.append(t)
        t = S.pi(t)
    return out


def _a_members(current: ABS, marker: Symbol, nxt: Symbol, exclude_segment: int | None) -> tuple[Symbol, ...]:
    pos_marker = current.position(marker)
    pos_next = current.position(nxt)
    return tuple(
        t
        for t in current.order[: pos_marker - 1]
        if t.label == marker.label
        and current.position(current.pi(t)) > pos_next
        and (exclude_segment is None or t.segment != exclude_segment)
    )


def _b_members(current: ABS, marker: Symbol, nxt: Symbol) -> tuple[Symbol, ...]:
    pos_marker = current.position(marker)
    pos_next = current.position(nxt)
    return tuple(
        t
        for t in current.order[pos_marker:]
        if t.label == marker.label and current.position(current.pi(t)) < pos_next
    )


def _move_after(S: ABS, sym: Symbol, target: Symbol) -> ABS:
    # invert (sym, t') for every t' with sym < t' <= target: sym lands just after target
    i = S.position(sym)
    j = S.position(target)
    if i >= j:
        raise InternalCheckError(f"move-after expects {sym!r} strictly before {target!r}")
    order = list(S.order)
    order.insert(j - 1, order.pop(i - 1))
    return reordered(S, order)


def _move_before(S: ABS, sym: Symbol, target: Symbol) -> ABS:
    # invert (t', sym) for every t' with target <= t' < sym: sym lands just before target
    i = S.position(sym)
    j = S.position(target)
    if j >= i:
        raise InternalCheckError(f"move-before expects {target!r} strictly before {sym!r}")
    order = list(S.order)
    order.insert(j - 1, order.pop(i - 1))
    return reordered(S, order)


def construction_a(S0: ABS, pair: SmallModPair, source: ABS | None = None) -> RefTrace:
    orbit = _orbit(S0, pair.zero)
    p = len(orbit)
    q = pair.one.segment
    cap = len(S0) ** 2

    current = S0
    members = _a_members(current, orbit[0], orbit[1 % p], exclude_segment=None)
    stages = [RefStage("A", 0, current, orbit[0], members)]
    seen = {(current.order, 0)}
    n = 0
    while members:
        if len(stages) > cap:
            raise InternalCheckError("A-phase exceeded the stage cap without a verdict")
        t_max = members[-1]
        n += 1
        marker = orbit[n % p]
        current = _move_after(current, marker, current.pi(t_max))
        nxt = orbit[(n + 1) % p]
        members = _a_members(current, marker, nxt, exclude_segment=q)
        stages.append(RefStage("A", n, current, marker, members))
        state = (current.order, n % p)
        if members and state in seen:
            return RefTrace(
                source=source if source is not None else S0,
                pair=pair,
                small=S0,
                stages=tuple(stages),
                a=None,
                b=None,
                result=None,
                verdict=NONGENERIC_A_NEVER_EMPTY,
            )
        seen.add(state)
    return RefTrace(
        source=source if source is not None else S0,
        pair=pair,
        small=S0,
        stages=tuple(stages),
        a=n,
        b=None,
        result=None,
        verdict=None,
    )


def construction_b(trace: RefTrace) -> RefTrace:
    if trace.a is None:
        raise PreconditionViolated("B-phase needs a completed A-phase (a recorded)")
    if trace.b is not None or trace.verdict is not None:
        raise PreconditionViolated("trace already completed")
    S0 = trace.small
    pair = trace.pair
    orbit = _orbit(S0, pair.one)
    p = len(orbit)
    cap = len(S0) ** 2

    current = trace.stages[-1].sequence
    members = _b_members(current, orbit[0], orbit[1 % p])
    stages = list(trace.stages) + [RefStage("B", 0, current, orbit[0], members)]
    seen = {(current.order, 0)}
    n = 0
    while members:
        if len(stages) - len(trace.stages) > cap:
            raise InternalCheckError("B-phase exceeded the stage cap without a verdict")
        t_min = members[0]
        n += 1
        marker = orbit[n % p]
        current = _move_before(current, marker, current.pi(t_min))
        nxt = orbit[(n + 1) % p]
        members = _b_members(current, marker, nxt)
        stages.append(RefStage("B", n, current, marker, members))
        state = (current.order, n % p)
        if members and state in seen:
            return replace(trace, stages=tuple(stages), verdict=NONGENERIC_B_NEVER_EMPTY)
        seen.add(state)

    drop = length(trace.source) - length(current)
    if drop < 1:
        raise InternalCheckError(
            f"full modification raised the length ({length(trace.source)} -> {length(current)})"
        )
    verdict = GENERIC if drop == 1 else NONGENERIC_LENGTH_DROP
    return replace(trace, stages=tuple(stages), b=n, result=current, verdict=verdict)


def full_modification(S: ABS, pair: SmallModPair) -> RefTrace:
    small = small_modification(S, pair)
    partial = construction_a(small, pair, source=S)
    if partial.verdict is not None:
        return partial
    return construction_b(partial)


def a_members_from_previous(
    S0: ABS, previous: Sequence[Symbol], marker: Symbol, excluded_segment: int
) -> frozenset[Symbol]:
    """One-step prediction of the next A-set: arrow images of the previous one,
    dropping symbols of the excluded segment and label mismatches.

    This shortcut agrees with the positional definition whenever the chosen
    pair sits in adjacent segments; for distant pairs on short arrow orbits
    the two can differ (the positional definition drives the iteration).
    """
    return frozenset(
        S0.pi(t)
        for t in previous
        if S0.pi(t).segment != excluded_segment and S0.pi(t).label == marker.label
    )


def b_members_from_previous(
    S0: ABS, previous: Sequence[Symbol], marker: Symbol
) -> frozenset[Symbol]:
    """One-step prediction of the next B-set: arrow images filtered by label.

    Unlike the A-side shortcut this one agrees with the positional definition
    on every trace swept so far, adjacent or not; tests assert the agreement.
    """
    return frozenset(S0.pi(t) for t in previous if S0.pi(t).label == marker.label)


def expansion_sorted_length_bound(S: ABS) -> int:
    """Largest length over orders compatible with the expansion contract.

    Any specialization order must be non-decreasing in binary expansion, so
    sorting by (expansion value, label) with 0 before 1 on ties maximizes the
    number of 0-before-1 pairs.  Used to confirm that never-terminating
    cascades cannot reach length l(S) - 1.
    """
    ordered = sorted(S.order, key=lambda t: (expansion_by_orbit_walk(S, t).value, t.label))
    return word_length(t.label for t in ordered)


def duality_map_by_conjugation(bits: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Type of the dual through the representatives: w*(i) = l - w(l - i), l = h + 1.

    ``binary_to_jw`` in the context (h, c), the conjugation, then
    ``jw_to_binary`` in the dual context (h, h - c), which also checks that
    w* is a minimal representative there.
    """
    h = len(bits)
    w = binary_to_jw(bits, JWContext(h=h, c=c))
    l = h + 1
    w_star = Permutation(tuple(l - w(l - i) for i in range(1, h + 1)))
    return jw_to_binary(w_star, JWContext(h=h, c=h - c))


@lru_cache(maxsize=None)
def _conjugation_table(h: int, c: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # (u^{-1}, theta(u)) images for every u = p + q in W_J, p before q
    # lexicographically; theta(u) = x u x^{-1} with x(i) = i + d (i <= c),
    # i - c (i > c).
    d = h - c
    x = tuple(i + d if i <= c else i - c for i in range(1, h + 1))
    x_inv = tuple(i + c if i <= d else i - d for i in range(1, h + 1))
    table = []
    for p in itertools.permutations(range(1, c + 1)):
        for q in itertools.permutations(range(c + 1, h + 1)):
            u = p + q
            u_inv = [0] * h
            for i, v in enumerate(u, start=1):
                u_inv[v - 1] = i
            th = tuple(x[u[x_inv[i] - 1] - 1] for i in range(h))
            table.append((tuple(u_inv), th))
    return tuple(table)


def _check_budget(ctx: JWContext, budget: int | None) -> None:
    """Refuse a context whose W_J = S_c x S_d is larger than the budget."""
    limit = resolve_budget(budget)
    size = math.factorial(ctx.c) * math.factorial(ctx.d)
    if size > limit:
        raise ContextTooLarge(f"|W_J| = {size} exceeds the budget {limit} for {ctx}")


@lru_cache(maxsize=None)
def _parabolic_images(h: int, c: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        p + q
        for p in itertools.permutations(range(1, c + 1))
        for q in itertools.permutations(range(c + 1, h + 1))
    )


def parabolic_elements(ctx: JWContext, budget: int | None = None) -> tuple[Permutation, ...]:
    """The block subgroup W_J = S_c x S_d; guarded by a cap on |W_J|."""
    _check_budget(ctx, budget)
    return tuple(Permutation(imgs) for imgs in _parabolic_images(ctx.h, ctx.c))


def specializes_bruteforce(w_target: Permutation, w: Permutation, ctx: JWContext) -> bool:
    """True when u^{-1} w_target theta(u) <= w for some u, by scanning all of W_J."""
    wt = w_target.images
    for u_inv, th in _conjugation_table(ctx.h, ctx.c):
        # (u^{-1} w_target theta(u))(i), composed right to left
        candidate = tuple(u_inv[wt[th[i] - 1] - 1] for i in range(ctx.h))
        if _dominance_leq(candidate, w.images):
            return True
    return False


def _dominance_leq(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    # v <= w iff for all i, j: #{a <= i : v(a) >= j} <= #{a <= i : w(a) >= j}
    h = len(v)
    av = [0] * (h + 1)
    aw = [0] * (h + 1)
    for i in range(h):
        for j in range(1, v[i] + 1):
            av[j] += 1
        for j in range(1, w[i] + 1):
            aw[j] += 1
        for j in range(1, h + 1):
            if av[j] > aw[j]:
                return False
    return True


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order via the prefix-count (dominance) criterion."""
    if v.degree != w.degree:
        raise DimensionMismatch(f"degrees {v.degree} and {w.degree} differ")
    return _dominance_leq(v.images, w.images)


def bruhat_leq_by_covers(v: Permutation, w: Permutation) -> bool:
    """Bruhat order by walking cover relations w -> w(i j) downward; exponential in degree."""
    if v.degree != w.degree:
        raise DimensionMismatch(f"degrees {v.degree} and {w.degree} differ")
    h = w.degree
    target = v.images
    frontier = {w.images}
    seen = set(frontier)
    while frontier:
        if target in frontier:
            return True
        step = set()
        for images in frontier:
            lw = sum(1 for a in range(h) for b in range(a + 1, h) if images[a] > images[b])
            for i in range(h):
                for j in range(i + 1, h):
                    if images[i] <= images[j]:
                        continue
                    down = list(images)
                    down[i], down[j] = down[j], down[i]
                    ld = sum(1 for a in range(h) for b in range(a + 1, h) if down[a] > down[b])
                    if ld == lw - 1 and tuple(down) not in seen:
                        step.add(tuple(down))
        seen.update(step)
        frontier = step
    return False


def generic_specializations_by_transpositions(
    w: Permutation, ctx: JWContext, budget: int | None = None
) -> tuple[Permutation, ...]:
    """Representatives one length below w of the form u (w s) theta(u^{-1}).

    s runs over the transpositions that lower the length of w by one and u
    over W_J, so the budget guards W_J as in ``parabolic_elements``.
    """
    found = set()
    lw = coxeter_length(w)
    us = parabolic_elements(ctx, budget)
    for i in range(1, ctx.h + 1):
        for j in range(i + 1, ctx.h + 1):
            v = w * Permutation.transposition(ctx.h, i, j)
            if coxeter_length(v) != lw - 1:
                continue
            for u in us:
                wp = u * v * theta(u.inverse(), ctx)
                if coxeter_length(wp) == lw - 1 and is_jw(wp, ctx):
                    found.add(wp)
    return tuple(sorted(found, key=lambda p: p.images))



def cycle_type(P, c: int) -> tuple[tuple[int, int], ...]:
    """The coloured cycle type of P (``P[a]`` for a in 1..h; ``P[0]`` unused): its cycles' keys, sorted.

    Each cycle is walked from its least element into a string with a 1 for
    each element <= c; its key is (length, least rotation read as a binary
    number).  Two permutations are conjugate by a u that keeps 1..c and
    c+1..h exactly when their coloured cycle types are equal.
    """
    h = len(P) - 1
    seen = [False] * (h + 1)
    keys = []
    for a in range(1, h + 1):
        word = ""
        b = a
        while not seen[b]:
            seen[b] = True
            word += "1" if b <= c else "0"
            b = P[b]
        if word:
            least = min(word[r:] + word[:r] for r in range(len(word)))
            keys.append((len(word), int(least, 2)))
    return tuple(sorted(keys))


def word_of_type(t) -> tuple[int, ...]:
    """The 0/1 word nu with type(w x) == t for w = binary_to_jw(nu), by the inverse extended BWT.

    Each key (n, bits) of t is a cycle's colour word, top bit first.  The
    rotations of every reversed cycle word are sorted in omega-order (u
    before v when u + v < v + u, that is u^omega < v^omega), and the last
    letters, read in that order, spell nu (Mantaci, Restivo, Rosone and
    Sciortino, An extension of the Burrows-Wheeler transform, TCS 2007).
    """
    rotations = []
    for n, bits in t:
        word = format(bits, f"0{n}b")[::-1]
        rotations.extend(word[i:] + word[:i] for i in range(n))
    rotations.sort(key=cmp_to_key(lambda u, v: (u + v > v + u) - (u + v < v + u)))
    return tuple(int(r[-1]) for r in rotations)


@lru_cache(maxsize=None)
def type_table(h: int, c: int) -> dict[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Coloured cycle type of w x -> the images of the one representative w of that type.

    All C(h, c) representatives of the context are typed; a second
    representative of one type raises ``InternalCheckError``.
    """
    table = {}
    for rep in jw_elements(JWContext(h, c)):
        w = rep.images
        t = cycle_type(_times_x(w, c), c)
        if t in table:
            raise InternalCheckError(f"{table[t]} and {w} share a coloured cycle type (c={c})")
        table[t] = w
    return table


def generic_specializations_by_type_table(w: Permutation, ctx: JWContext) -> tuple[Permutation, ...]:
    """Representatives one length below w with the type of some cocover v x, looked up in ``type_table``.

    Each cocover v = w (i j) swaps a 0 at word position i before a 1 at j,
    and v x is typed from scratch.
    """
    c, img = ctx.c, w.images
    table = type_table(ctx.h, c)
    below = coxeter_length(w) - 1
    found = set()
    for i, j in itertools.combinations(range(ctx.h), 2):
        if img[i] > c >= img[j]:
            v = list(img)
            v[i], v[j] = v[j], v[i]
            wp = table.get(cycle_type(_times_x(v, c), c))
            if wp is not None and coxeter_length(Permutation(wp)) == below:
                found.add(wp)
    return tuple(Permutation(wp) for wp in sorted(found))
