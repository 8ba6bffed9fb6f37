"""Reference implementations kept only as test oracles.

* The small modification on symbol-keyed bijections: pi is rebuilt as a
  dict and rewired as sigma composed after pi.  The library swaps two
  entries of the order and of the arrows instead.
* The positional cascade on ``ABS`` objects: every stage rebuilds a full
  sequence, members are read off symbol positions, and the A- and B-phases
  are written out as mirrored loops.  The library runs the same cascade on
  integer ids; tests require both to agree stage by stage.
* The one-step set shortcuts (the next A-set is the arrow image of the
  previous one filtered by segment and label; the next B-set likewise
  without the segment filter).  For the A-side the shortcut can differ from
  the positional definition on non-adjacent pairs whose marker orbit wraps
  early, while no B-side divergence is known; tests pin both facts.
* The expansion-sorted length bound used to certify never-empty cascades.
* ``reordered``: the same symbols and bijection in a new order, through a
  symbol-keyed mapping.
* The direct sum built from ``binary_expansion`` of each summand's symbols,
  sorted on ``Fraction`` values, and a symbol-keyed merge; the minimal
  sequence of a polygon is that sum of its minimal segments.  The library
  merges on exact integer keys instead (``_expansion_keys``), and computes
  each distinct segment's expansion words once, straight from (m, n).
* The specialization test by full scan: every u in W_J = S_c x S_d is
  tried, from a table of (u^{-1}, theta(u)) image tuples built once per
  (h, c).  The library searches with pruning instead; tests require both to
  give the same answer.
* The block subgroup W_J itself (``parabolic_elements``), guarded by a cap
  on |W_J| = c! d!.
* The pruned witness search with each prefix bound checked by sorting
  (the tableau form of the dominance criterion).  The library adds packed
  threshold counts instead; tests require the same answer.
* Bruhat order by walking cover relations down from w, against the
  library's dominance criterion.
* The generic specializations of w built from transpositions: every
  u (w s) theta(u^{-1}) with s a length-lowering transposition and u in W_J,
  kept if it is a representative one length below w.  The library filters
  the representatives of that length with ``specializes`` instead.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

from stratabound.errors import (
    ContextTooLarge,
    DimensionMismatch,
    InternalCheckError,
    InvalidPair,
    PreconditionViolated,
)
from stratabound.modification import (
    GENERIC,
    NONGENERIC_A_NEVER_EMPTY,
    NONGENERIC_B_NEVER_EMPTY,
    NONGENERIC_LENGTH_DROP,
    SmallModPair,
)
from stratabound.newton import NewtonPolygon
from stratabound.sequences import ABS, Symbol, binary_expansion, length, minimal_abs_segment, word_length
from stratabound.weyl import (
    JWContext,
    Permutation,
    _dominance_leq,
    coxeter_length,
    is_jw,
    resolve_budget,
    theta,
)


def reordered(S: ABS, order) -> ABS:
    """Same symbols and bijection, new order."""
    return ABS(order, {t: S.pi(t) for t in S.order})


def direct_sum_by_expansions(*summands: ABS) -> ABS:
    """Direct sum: the summands' symbols sorted by (expansion value, summand,
    position), each value a ``Fraction`` read off ``binary_expansion``, with
    pi carried over symbol by symbol.  A symbol in two summands raises
    ``ValueError``, as in the library."""
    keyed = sorted(
        (binary_expansion(S, t).value, k, z, t)
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
    ordered = sorted(S.order, key=lambda t: (binary_expansion(S, t).value, t.label))
    return word_length(t.label for t in ordered)


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


def witness_exists_sorted(wt: tuple[int, ...], w: tuple[int, ...], c: int) -> tuple[bool, int]:
    """The witness search with the bound checked by sorting each prefix.

    Same search, bound and order of tries as ``weyl._witness_exists``, with
    no node budget; the library sums packed counts instead of sorting.
    Returns whether a witness exists and the nodes visited (row choices
    tried), the count the library holds against its budget.
    """
    # Depth-first search for u in W_J with v = u^{-1} wt theta(u) <= w, built
    # one row of v at a time.  Row a of v reads wt at column b = theta(u)(a);
    # rows a <= d take b in 1..d and fix u^{-1}(b + c) = a + c, rows a > d take
    # b in d+1..h and fix u^{-1}(b - d) = a - d.  v(a) = u^{-1}(wt(b)) is known
    # once wt(b) has a label.  An undetermined entry of a value block is
    # counted as the smallest label still free in that block, which bounds
    # every count #{a <= i : v(a) >= j} from below; a prefix whose sorted
    # bound exceeds w's sorted prefix entrywise (the tableau form of the
    # dominance criterion) cannot complete.  Sources are tried in increasing
    # order, so u = id is the first leaf.
    h = len(wt)
    d = h - c
    w_prefix = [sorted(w[: i + 1], reverse=True) for i in range(h)]
    col_of = [0] * (h + 1)  # col_of[x] = the column b with wt(b) = x
    for b, x in enumerate(wt, start=1):
        col_of[x] = b
    label = [0] * (h + 1)  # label[x] = u^{-1}(x), 0 while free
    labelled = [False] * (h + 1)  # labelled[l]: some x has label l
    row_of = [0] * (h + 1)  # row_of[b] = the row reading column b, 0 while unread
    reads = [0] * (h + 1)  # reads[a] = wt(b) for the column b that row a reads
    nodes = 0

    def prefix_fits(i: int) -> bool:
        values = []
        free_low = free_high = 0
        for a in range(1, i + 1):
            x = reads[a]
            if label[x]:
                values.append(label[x])
            elif x <= c:
                free_low += 1
            else:
                free_high += 1
        for lab, k in ((1, free_low), (c + 1, free_high)):
            while k:
                if not labelled[lab]:
                    values.append(lab)
                    k -= 1
                lab += 1
        values.sort(reverse=True)
        bound = w_prefix[i - 1]
        return all(values[r] <= bound[r] for r in range(i))

    def place(a: int) -> bool:
        nonlocal nodes
        if a > h:
            return True
        cols, shift, lab = (range(1, d + 1), c, a + c) if a <= d else (range(d + 1, h + 1), -d, a - d)
        labelled[lab] = True
        for b in cols:
            if row_of[b]:
                continue
            nodes += 1
            x = b + shift
            reads[a], row_of[b], label[x] = wt[b - 1], a, lab
            # re-check every prefix holding an entry this choice determined
            lo = row_of[col_of[x]] or a
            if all(prefix_fits(i) for i in range(lo, a + 1)) and place(a + 1):
                return True
            row_of[b], label[x] = 0, 0
        labelled[lab] = False
        return False

    found = place(1)
    return found, nodes
