"""Small modifications and the reordering cascade that makes them canonical.

A small modification swaps one 0-labelled symbol with a later 1-labelled
symbol in the order and rewires the bijection so the two swapped symbols
exchange their images.  The cascade then walks the pi-orbit of each swapped
symbol (alpha_n from the 0-symbol, beta_n from the 1-symbol), moving the
marker past a block of the order at every stage and tracking the sets

    A_n = {t not in segment q : t < alpha_n, alpha_{n+1} < pi(t), delta(t) = delta(alpha_n)}
    B_n = {t : beta_n < t, pi(t) < beta_{n+1}, delta(t) = delta(beta_n)}

(the A_0 stage takes no segment exclusion).  The cascade ends when a set
empties; the final sequence is the full modification.  Its verdict is Generic
when the length drops by exactly one.

One loop, ``_cascade``, runs both phases on integers: the A-phase, and, when
its set empties, the B-phase on the same state.  A symbol's id is its
0-based position in the small modification's order.  The source sequence's
id tables of pi, labels and segments (``sequences.id_tables``) are built
once per sequence and kept with it; each cascade copies them and exchanges
the two swapped positions, so no small-modification sequence is built.  The
state is an order of ids plus the inverse array of positions, two lists that
each move updates in place, inlined in the loop and only over the range it
shifted.  ``full_modification`` makes the one ``_cascade`` call and builds
one trace.  The split API reads that one pass: ``construction_a`` cuts its
trace after stage a, and ``construction_b`` completes such a partial trace
by running the pass for its source and pair.  The marker steps along pi from
the swapped symbol.  A stage's move is steered by one member of its set, the
last in the A-phase and the first in the B-phase, which is the member
nearest the marker, so each stage scans outward from the marker and stops at
the first member it meets; it never builds a whole set.  The move carries
the next marker, pi of this one, past pi of that member, and its
precondition (the next marker strictly before that image in the A-phase,
strictly after it in the B-phase) is the scan's own test: the next marker
sits at the position the members' images are compared with.  Each stage is
recorded as a plain ``(kind, index, order, marker, exclude)`` tuple of ids,
``exclude`` being the segment an A-stage after A_0 leaves out.
``ModificationTrace.result_type`` reads the labels of the final order, which
is all ``boundary_set`` needs, and the verdict reads the result's length off
the final positions: a 1 at 0-based position z has z minus the 1s before it
0s before it, so with m 1s the length is the 1s' positions summed less
m(m - 1)/2, and no label list is built.  Every sequence a reader asks
for is read straight off the ids, on first read and once: one helper,
``_view``, turns the small modification's symbols by id (the source's order
with the two swapped positions exchanged), its pi table and an id order into
an ``ABS``.  ``trace.stages`` holds a ``Stage`` per id tuple, whose marker
and sequence read the same symbols and pi, and whose member set is read off
its sequence, by the definition of A_n or B_n above, when first read.  A_0's
order is the identity on ids, so ``trace.small`` is stage 0's sequence and
``trace.result`` the last stage's; no trace read calls
``small_modification``.

The B-phase's never-empties verdict relies on the iteration being a
deterministic map on (current order, stage index n mod p), p the length of
the marker's pi-orbit: once that key repeats with a non-empty set, the
cascade provably cycles forever.  The phase keys its states by (current
order, marker) instead, which is the same test: the marker of stage n is
orbit[n mod p], the orbit's p ids are distinct, so n mod p and the marker
determine each other.  B-phases do cycle: 2247 of the 18030 traces at
h <= 11 do, the first at h = 4, in cycles of 4 to 10 stages entered after
0 to 7.

The A-phase keeps no states, because no A-phase is known to cycle.  That is
evidence, not a lemma.  In all 18030 traces at h <= 11 (every 0-before-1
pair) no A-phase repeats its (order, marker) state, none even walks its
marker's whole pi-orbit (a < p, at most 0.875 p), and every A-move carries
its symbol only past ids that started after it; the last holds too for
every adjacent pair of 60 random polygons of height 15 to 30.  Both phases
stop at h^2 stages, so an A-phase that did cycle would raise
``InternalCheckError``, never give a wrong verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import mul

from .errors import InternalCheckError, InvalidPair, PreconditionViolated
from .newton import enumerate_polygons, parse_int, parse_polygon
from .sequences import (
    ABS,
    Symbol,
    abs_to_json,
    id_tables,
    length,
    minimal_abs,
    render_ascii,
    to_binary_sequence,
)
from .weyl import JWContext, Permutation, binary_to_jw, theta, x_element

GENERIC = "Generic"
NONGENERIC_LENGTH_DROP = "NonGenericLengthDrop"
NONGENERIC_B_NEVER_EMPTY = "NonGenericBNeverEmpty"


@dataclass(frozen=True)
class SmallModPair:
    """A 0-labelled symbol to swap with a later 1-labelled symbol."""

    zero: Symbol
    one: Symbol

    def __post_init__(self):
        if self.zero.label != 0 or self.one.label != 1:
            raise InvalidPair(f"need labels (0, 1), got ({self.zero!r}, {self.one!r})")

    @property
    def spec(self) -> str:
        return f"0:{self.zero.segment}:{self.zero.position},1:{self.one.segment}:{self.one.position}"

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.zero.segment, self.zero.position, self.one.segment, self.one.position)

    def __str__(self):
        return self.spec


_PAIR_RE = re.compile(r"^0:([0-9]+):([0-9]+),1:([0-9]+):([0-9]+)$")


def parse_pair(text: str) -> SmallModPair:
    """Parse the compact pair form ``0:r:i,1:q:j``.

    >>> parse_pair("0:1:4,1:2:2").spec
    '0:1:4,1:2:2'
    """
    m = _PAIR_RE.match(text.replace(" ", ""))
    if m:
        try:
            r, i, q, j = map(parse_int, m.groups())
        except ValueError:  # beyond the interpreter's digit limit
            pass
        else:
            return SmallModPair(Symbol(r, i, 0), Symbol(q, j, 1))
    raise InvalidPair(f"cannot parse pair {text!r}; expected 0:r:i,1:q:j")


@dataclass(slots=True, unsafe_hash=True)
class Stage:
    """One cascade stage: the order after this stage's move, its marker and its set.

    Holds ids only (positions in the small modification's order): ``order``
    lists them, ``marker_id`` is the marker's, and ``exclude`` is the segment
    an A-stage after A_0 leaves out of its set (None for A_0 and B-stages).
    ``symbols`` and ``pi`` are the trace's symbol and pi tables by id.
    ``sequence`` is the order as an ABS, built when first read.
    ``member_ids`` are the set's ids in sequence order: the cascade only
    looks for the member nearest the marker, so the whole set is read off
    ``sequence`` (labels, segments and arrows against the marker's) on first
    read and kept.  ``marker`` and ``members`` are those ids read as
    ``Symbol``s.  Stages compare and hash by value.
    """

    kind: str  # "A" or "B"
    index: int
    order: tuple[int, ...]
    marker_id: int
    exclude: int | None
    symbols: tuple[Symbol, ...] = field(repr=False)
    pi: tuple[int, ...] = field(repr=False)
    _member_ids: tuple[int, ...] | None = field(default=None, init=False, compare=False, repr=False)
    _sequence: ABS | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def marker(self) -> Symbol:
        return self.symbols[self.marker_id]

    @property
    def member_ids(self) -> tuple[int, ...]:
        """The set's ids in sequence order, read off ``sequence`` as the module docstring defines A_n and B_n."""
        if self._member_ids is None:
            order = self.order
            seq = self.sequence
            syms, arrows = seq.order, seq.arrows
            here = order.index(self.marker_id)
            lab, bound = syms[here].label, arrows[here]
            members = []
            if self.kind == "A":
                skip = self.exclude
                for z in range(here):
                    t = syms[z]
                    if t.label == lab and arrows[z] > bound and t.segment != skip:
                        members.append(order[z])
            else:
                for z in range(here + 1, len(order)):
                    if syms[z].label == lab and arrows[z] < bound:
                        members.append(order[z])
            self._member_ids = tuple(members)
        return self._member_ids

    @property
    def members(self) -> tuple[Symbol, ...]:
        syms = self.symbols
        return tuple([syms[t] for t in self.member_ids])

    @property
    def sequence(self) -> ABS:
        if self._sequence is None:
            self._sequence = _view(self.symbols, self.pi, self.order)
        return self._sequence


@dataclass(slots=True, unsafe_hash=True)
class ModificationTrace:
    """One pair's cascade, kept as ids; sequences are read off them when first read.

    ``a``, ``b`` and ``verdict`` are plain values, and ``result_type`` reads
    the labels of the final id order.  ``stages`` (``Stage`` objects) are
    built on first read and kept; ``small`` (the small modification) is the
    first stage's sequence and ``result`` the last stage's once the B-phase
    emptied.  Traces compare and hash by value.
    """

    source: ABS
    pair: SmallModPair
    swap: tuple[int, int]  # 0-based positions of the 0-symbol and the 1-symbol in source
    # pi, labels and segments of the small modification by id; follow from source and swap
    ids: tuple[list[int], list[int], list[int]] = field(compare=False, repr=False)
    id_stages: tuple[tuple, ...]  # one (kind, index, order, marker, exclude) tuple per stage
    a: int
    b: int | None
    verdict: str | None
    _stages: tuple[Stage, ...] | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def small(self) -> ABS:
        """The small modification of ``source`` by ``pair``: stage 0's sequence, whose order is the identity on ids."""
        return self.stages[0].sequence

    @property
    def stages(self) -> tuple[Stage, ...]:
        if self._stages is None:
            # the small modification's symbols by id: the source's order with the swapped pair exchanged
            symbols, pi = tuple(_swapped(self.source.order, *self.swap)), tuple(self.ids[0])
            self._stages = tuple([Stage(*stage, symbols, pi) for stage in self.id_stages])
        return self._stages

    @property
    def result(self) -> ABS | None:
        """The full modification: the last stage's sequence once the B-phase emptied."""
        return self.stages[-1].sequence if self.b is not None else None

    @property
    def result_type(self) -> tuple[int, ...] | None:
        """The type of ``result`` (its labels along the order), read off the ids."""
        if self.b is None:
            return None
        label = self.ids[1]
        return tuple([label[t] for t in self.id_stages[-1][2]])

    def a_stages(self) -> tuple[Stage, ...]:
        return tuple(s for s in self.stages if s.kind == "A")

    def b_stages(self) -> tuple[Stage, ...]:
        return tuple(s for s in self.stages if s.kind == "B")


def _view(symbols, pi, order) -> ABS:
    """The sequence of the ids ``order`` over ``symbols[t]``, whose pi by id is ``pi``.

    Id t sits at position where[t] of ``order``, so its arrow points at
    where[pi[t]] + 1.  ``ABS._reordered`` checks that ``order`` permutes the ids
    and the arrows the positions.
    """
    where = _inverse(order)  # where[t] = 0-based position of id t in this order
    return ABS._reordered(symbols, order, [where[pi[t]] + 1 for t in order])


def _swap_positions(S: ABS, pair: SmallModPair) -> tuple[int, int]:
    """0-based positions of the pair's 0-symbol and 1-symbol in S, the first before the second."""
    i = S.position(pair.zero) - 1
    j = S.position(pair.one) - 1
    if i >= j:
        raise InvalidPair(f"pair {pair} needs the 0-symbol strictly before the 1-symbol")
    return i, j


def _swapped(table, i: int, j: int) -> list:
    """A copy of ``table`` with entries i and j exchanged."""
    table = list(table)
    table[i], table[j] = table[j], table[i]
    return table


def small_modification(S: ABS, pair: SmallModPair) -> ABS:
    """Swap the pair in the order and exchange the two symbols' pi-images.

    The new pi is sigma composed after pi, where sigma transposes the two
    symbols.  Because the swapped symbols sit at positions i and j, that is
    entries i and j of both the order and the arrows trading places, as in
    the by-id tables the cascade runs on.
    """
    i, j = _swap_positions(S, pair)
    return ABS._reordered(_swapped(S.order, i, j), range(len(S)), _swapped(S.arrows, i, j))


def _inverse(order) -> list[int]:
    """Positions of the ids 0..h-1 in ``order``, a permutation of them: its inverse."""
    pos = [0] * len(order)
    for z, t in enumerate(order):
        pos[t] = z
    return pos


def _cascade(
    ids: tuple[list[int], ...], i: int, j: int, exclude: int | None
) -> tuple[list[tuple], int, int | None, list[int]]:
    """The A-phase from id ``j``, then the B-phase from id ``i``: one loop on one order and its positions.

    ``ids`` are the small modification's pi, label and segment tables, and
    ``i`` and ``j`` the ids of the swapped 1-symbol and 0-symbol.  The state
    is the id ``order``, the identity at A_0, and its inverse ``pos``; when
    the A-set empties at stage a, the loop goes on as the B-phase on the same
    lists.  The A-phase leaves segment ``exclude`` out of every set after
    A_0.  Each stage scans outward from the marker (backwards for A, forwards
    for B) for the member that steers the move, the first id to pass the
    set's test; none means the set is empty.  The move carries the next
    marker, at position ``bound``, to just after (A) or before (B) that
    member's image, which passed the test by sitting after (A) or before (B)
    ``bound``; ``pos`` is rewritten over the shifted range only.

    Returns the ``(kind, n, order, marker, exclude)`` stage tuples (stage n
    holds the order after the phase's n-th move; ``exclude`` is None for A_0
    and the B-phase), a and b, the indices of the sets that emptied, and the
    final positions.  b is None when a B-phase (order, marker) key repeats
    with a non-empty set: that B-phase never empties.  The A-phase keeps no
    keys (see the module docstring); either phase raises
    ``InternalCheckError`` past h^2 stages.
    """
    pi, label, segment = ids
    h = len(pi)
    cap = h**2
    order = list(range(h))
    pos = order.copy()
    stages = []
    seen = set()  # B-phase (order, marker) keys
    kind, n, a, marker, skip = "A", 0, None, j, None  # A_0 takes no segment exclusion
    while True:
        following = pi[marker]
        lab = label[marker]
        bound = pos[following]
        key = tuple(order)
        stages.append((kind, n, key, marker, skip))
        if a is None:
            for z in range(pos[marker] - 1, -1, -1):
                t = order[z]
                if label[t] == lab and pos[pi[t]] > bound and segment[t] != skip:
                    break
            else:
                # A_n is empty: the B-phase starts at beta_0, the 1-symbol
                kind, n, a, marker, skip = "B", 0, n, i, None
                continue
            skip = exclude
        else:
            for z in range(pos[marker] + 1, h):
                t = order[z]
                if label[t] == lab and pos[pi[t]] < bound:
                    break
            else:
                return stages, a, n, pos
            state = (key, marker)
            if state in seen:
                return stages, a, None, pos
            seen.add(state)
        if n >= cap:
            raise InternalCheckError(f"{kind}-phase exceeded the stage cap without a verdict")
        n += 1
        marker = following
        there = pos[pi[t]]
        order.insert(there, order.pop(bound))
        lo, hi = (bound, there) if bound < there else (there, bound)
        for z in range(lo, hi + 1):
            pos[order[z]] = z


def construction_a(source: ABS, pair: SmallModPair) -> ModificationTrace:
    """The A-phase of the cascade on the small modification of ``source`` by ``pair``.

    Reads ``full_modification``'s one pass and cuts its trace after stage a,
    the first empty index: the same swap, id tables and stages 0..a (stage n
    holds S^(n) as an id order and the marker alpha_n; A_n is computed in
    S^(n) when the stage's members are read), with b and the verdict unset.
    So it runs the B-phase too, and can raise that phase's ``InternalCheckError``.
    """
    full = full_modification(source, pair)
    return ModificationTrace(source, pair, full.swap, full.ids, full.id_stages[: full.a + 1], full.a, None, None)


def construction_b(trace: ModificationTrace) -> ModificationTrace:
    """Complete a partial trace from ``construction_a``: the one pass of ``full_modification`` for its source and pair."""
    if trace.b is not None or trace.verdict is not None:
        raise PreconditionViolated("trace already completed")
    return full_modification(trace.source, trace.pair)


def full_modification(S: ABS, pair: SmallModPair) -> ModificationTrace:
    """Small modification, then the A- and B-phases in one ``_cascade`` loop; classifies the verdict.

    The only code that runs a cascade, in one call: the B-phase goes on from
    the order and positions the A-phase left, each move inlined, and one
    trace is built.  A move's precondition is not checked again: it is the
    scan's own test, since the next marker sits where the steering member's
    image was compared, strictly before it (A) or after it (B).  The split API
    (``construction_a`` then ``construction_b``) reads this pass.  The small
    modification's id tables are copies of ``S``'s cached ones with the two
    swapped positions exchanged; no sequence is built.  The result's length
    is read off the final positions: a 1 at 0-based position z has z minus
    the 1s before it 0s before it, so with m 1s the length is
    ``sum(label[t] * pos[t]) - m(m - 1)/2``.

    >>> from .newton import parse_polygon
    >>> from .sequences import minimal_abs
    >>> S = minimal_abs(parse_polygon("2,7+3,5"))
    >>> trace = full_modification(S, parse_pair("0:1:4,1:2:2"))
    >>> trace.a, trace.b, trace.verdict, trace.result_type
    (1, 2, 'Generic', (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0))
    """
    i, j = _swap_positions(S, pair)
    ids = tuple([list(table) for table in id_tables(S)])
    for table in ids:
        table[i], table[j] = table[j], table[i]
    # the 0-symbol now sits at position j, so its id is j; the 1-symbol's is i
    stages, a, b, pos = _cascade(ids, i, j, pair.one.segment)
    if b is None:
        verdict = NONGENERIC_B_NEVER_EMPTY
    else:
        label = ids[1]
        m = sum(label)
        before = length(S)
        after = sum(map(mul, label, pos)) - m * (m - 1) // 2
        if before - after < 1:
            raise InternalCheckError(f"full modification raised the length ({before} -> {after})")
        verdict = GENERIC if before - after == 1 else NONGENERIC_LENGTH_DROP
    return ModificationTrace(S, pair, (i, j), ids, tuple(stages), a, b, verdict)


def eligible_pairs(S: ABS, adjacent_only: bool = False) -> tuple[SmallModPair, ...]:
    """All 0-before-1 pairs of S, sorted by (r, i, q, j).

    With adjacent_only, keep pairs whose segments satisfy q = r + 1 (the only
    candidates that can be generic).
    """
    pairs = []
    zeros = []  # the 0-symbols passed so far
    for t in S.order:
        if t.label == 0:
            zeros.append(t)
        else:
            pairs += [SmallModPair(t0, t) for t0 in zeros if not adjacent_only or t0.segment == t.segment - 1]
    return tuple(sorted(pairs, key=SmallModPair.sort_key))


@dataclass(frozen=True)
class CensusRow:
    """One classified pair from a census sweep."""

    polygon: str
    pair: str
    verdict: str
    zero_segment: int
    one_segment: int

    @property
    def adjacent(self) -> bool:
        return self.one_segment == self.zero_segment + 1

    def renaming_adjacent(self) -> bool:
        """Can equal segments be renamed so the pair becomes adjacent (q = r + 1)?

        Equal coprime segments form blocks of consecutive indices, and any
        permutation within a block is an automorphism of the sequence, so the
        pair can be renamed adjacent exactly when some segment k equal to
        segment r is followed by a segment k + 1 equal to segment q.
        """
        r, q = self.zero_segment, self.one_segment
        segs = [(s.m, s.n) for s in parse_polygon(self.polygon).segments]
        return r != q and any(segs[k - 1] == segs[r - 1] and segs[k] == segs[q - 1] for k in range(1, len(segs)))


def modification_census(max_height: int) -> list[CensusRow]:
    """Classify every valid pair of every polygon up to the height bound."""
    rows = []
    for polygon in enumerate_polygons(max_height):
        S = minimal_abs(polygon)
        name = str(polygon)
        for pair in eligible_pairs(S):
            trace = full_modification(S, pair)
            rows.append(CensusRow(name, pair.spec, trace.verdict, pair.zero.segment, pair.one.segment))
    return rows


def specialization_to_weyl(trace: ModificationTrace, ctx: JWContext) -> tuple[Permutation, Permutation, Permutation]:
    """The type-level data (w', u, eps) of a completed trace.

    eps sends the position of a symbol in the small modification to its
    position in the result; u = x^{-1} eps x must lie in the block subgroup,
    which happens exactly when eps stabilizes {1..d}; and
    w' = u (w s) theta(u^{-1}) is the type of the result.
    """
    if trace.result is None:
        raise PreconditionViolated("needs a trace with a result")
    S = trace.source
    if ctx.h != len(S):
        raise PreconditionViolated(f"context degree {ctx.h} does not match |T(S)| = {len(S)}")
    w = binary_to_jw(to_binary_sequence(S), ctx)
    s = Permutation.transposition(ctx.h, S.position(trace.pair.zero), S.position(trace.pair.one))
    eps = Permutation(tuple(trace.result.position(t) for t in trace.small.order))
    block = set(range(1, ctx.d + 1))
    if {eps(z) for z in block} != block:
        raise PreconditionViolated("reorder permutation does not preserve the block split")
    x = x_element(ctx)
    u = x.inverse() * eps * x
    w_prime = u * (w * s) * theta(u.inverse(), ctx)
    return w_prime, u, eps


def render_trace_ascii(trace: ModificationTrace) -> str:
    """Stage-by-stage diagram: orders with markers, then the final arrows."""
    lines = ["source:", render_ascii(trace.source), f"pair: {trace.pair.spec}", "S^(0):", render_ascii(trace.small)]

    def emit(stage: Stage, k: int):
        members = " ".join(t.token for t in stage.members)
        lines.append(f"S^({k}) {stage.kind}-stage {stage.index}: marker {stage.marker.token}, members {{{members}}}")
        lines.append("  " + " ".join(t.token for t in stage.sequence.order))

    for stage in trace.a_stages():
        emit(stage, stage.index)
    lines.append(f"a = {trace.a}")
    for stage in trace.b_stages():
        emit(stage, trace.a + stage.index)
    if trace.b is not None:
        lines.append(f"b = {trace.b}")
    lines.append(f"verdict: {trace.verdict}")
    if trace.result is not None:
        lines.append(f"lengths: {length(trace.source)} -> {length(trace.result)}")
        lines.append("result:")
        lines.append(render_ascii(trace.result))
    return "\n".join(lines)


def trace_to_json(trace: ModificationTrace) -> dict:
    return {
        "source": abs_to_json(trace.source),
        "pair": trace.pair.spec,
        "small": abs_to_json(trace.small),
        "stages": [
            {
                "kind": stage.kind,
                "index": stage.index,
                "global_index": stage.index + (trace.a if stage.kind == "B" else 0),
                "sequence": abs_to_json(stage.sequence),
                "marker": [stage.marker.segment, stage.marker.position],
                "members": [[t.segment, t.position] for t in stage.members],
            }
            for stage in trace.stages
        ],
        "a": trace.a,
        "b": trace.b,
        "verdict": trace.verdict,
        "result": abs_to_json(trace.result) if trace.result is not None else None,
        "lengths": {
            "source": length(trace.source),
            "result": length(trace.result) if trace.result is not None else None,
        },
    }
