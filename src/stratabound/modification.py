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

Both phases run one loop on integers.  A symbol's id is its 0-based
position in the small modification's order.  The source sequence's id
tables of pi, labels and segments (``sequences.id_tables``) are built once
per sequence and kept with it; ``construction_a`` copies them and exchanges
the two swapped positions, so no small-modification sequence is built, and
the B-phase reuses the copies.  The phase state is an order of ids plus the
inverse array of positions, which a move updates only over the range it
shifted; the marker steps along pi from the swapped symbol.  A stage's move
is steered by one member of its set, the last in the A-phase and the first
in the B-phase, which is the member nearest the marker, so the phase scans
outward from the marker and stops at the first member it meets; it never
builds a whole set.  Each stage is recorded as a plain ``(kind, index,
order, marker, exclude)`` tuple of ids, ``exclude`` being the segment an
A-stage after A_0 leaves out.  ``ModificationTrace.result_type`` reads the
labels of the final order, which is all ``boundary_set`` needs.  Every
sequence a reader asks for is read straight off the ids, on first read and
once: the trace keeps the small modification's symbols by id (the source's
order with the two swapped positions exchanged) next to its pi table, and
one helper, ``_view``, turns them and an id order into an ``ABS``.
``trace.stages`` holds a ``Stage`` per id tuple, whose marker and sequence
read the same symbols and pi, and whose member set is read off its
sequence, by the definition of A_n or B_n above, when first read;
``trace.result`` is the last stage's sequence.  Only ``trace.small`` calls ``small_modification``, which
swaps the same two entries of the source's order and arrows.

The never-empties verdict relies on the iteration being a deterministic map
on (current order, stage index n mod p), p the length of the marker's
pi-orbit: once that key repeats with a non-empty set, the cascade provably
cycles forever.  The phase keys its states by (current order, marker)
instead, which is the same test: the marker of stage n is orbit[n mod p],
the orbit's p ids are distinct, so n mod p and the marker determine each
other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    word_length,
)
from .weyl import JWContext, Permutation, binary_to_jw, theta, x_element

GENERIC = "Generic"
NONGENERIC_LENGTH_DROP = "NonGenericLengthDrop"
NONGENERIC_A_NEVER_EMPTY = "NonGenericANeverEmpty"
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
    the labels of the final id order.  ``symbols`` (the small
    modification's symbols by id), ``stages`` (``Stage`` objects) and
    ``small`` (the small modification) are each built on first read and
    kept; ``result`` is the last stage's sequence once the B-phase emptied.
    Traces compare and hash by value.
    """

    source: ABS
    pair: SmallModPair
    swap: tuple[int, int]  # 0-based positions of the 0-symbol and the 1-symbol in source
    # pi, labels and segments of the small modification by id; follow from source and swap
    ids: tuple[list[int], list[int], list[int]] = field(compare=False, repr=False)
    id_stages: tuple[tuple, ...]  # one (kind, index, order, marker, exclude) tuple per stage
    a: int | None
    b: int | None
    verdict: str | None
    _symbols: tuple[Symbol, ...] | None = field(default=None, init=False, compare=False, repr=False)
    _small: ABS | None = field(default=None, init=False, compare=False, repr=False)
    _stages: tuple[Stage, ...] | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        """The small modification's symbols by id: the source's order with the swapped pair exchanged."""
        if self._symbols is None:
            self._symbols = tuple(_swapped(self.source.order, *self.swap))
        return self._symbols

    @property
    def small(self) -> ABS:
        """The small modification of ``source`` by ``pair``: the cascade's stage 0."""
        if self._small is None:
            self._small = small_modification(self.source, self.pair)
        return self._small

    @property
    def stages(self) -> tuple[Stage, ...]:
        if self._stages is None:
            symbols, pi = self.symbols, tuple(self.ids[0])
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

    def a_sets(self) -> dict[int, frozenset[Symbol]]:
        return {s.index: frozenset(s.members) for s in self.stages if s.kind == "A"}

    def b_sets(self) -> dict[int, frozenset[Symbol]]:
        return {s.index: frozenset(s.members) for s in self.stages if s.kind == "B"}


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


def _move(order: list[int], pos: list[int], sym: int, target: int, after: bool) -> None:
    """Move id sym to just after (A-phase) or just before (B-phase) id target.

    Moving after inverts (sym, t') for every sym < t' <= target, moving before
    every (t', sym) with target <= t' < sym; pos is rewritten on that range only.
    """
    i = pos[sym]
    j = pos[target]
    if not (i < j if after else j < i):
        move, side = ("after", "before") if after else ("before", "after")
        raise InternalCheckError(f"move-{move} expects id {sym} strictly {side} id {target}")
    order.insert(j, order.pop(i))
    for z in range(min(i, j), max(i, j) + 1):
        pos[order[z]] = z


def _inverse(order) -> list[int]:
    """Positions of the ids 0..h-1 in ``order``, a permutation of them: its inverse."""
    return sorted(range(len(order)), key=order.__getitem__)


def _phase(
    kind: str,
    ids: tuple[list[int], list[int], list[int]],
    first: int,
    exclude: int | None,
    start: tuple[int, ...] | None,
) -> tuple[list[tuple], bool]:
    """Run the A- or B-phase from the id order ``start``; ``first`` is the swapped symbol's id.

    ``ids`` are the pi, label and segment tables of the small modification,
    and ``start`` None stands for its own order 0..h-1 (the A-phase's).
    The A-phase drops members of segment ``exclude`` from every set after
    A_0.  Only the member that steers the move is looked for: the set's
    last member in the A-phase, the first in the B-phase, so each stage
    scans outward from the marker (backwards for A, forwards for B) and
    stops at the first id that passes the set's test; none means the set is
    empty.  Returns the phase's stages as ``(kind, n, order, marker,
    exclude)`` tuples (stage n holds the order after the n-th move, the
    marker and the segment its set leaves out, None for A_0 and the
    B-phase), from which ``Stage.member_ids`` reads the n-th set when
    asked, and whether its (order, marker) key repeated with a non-empty set,
    i.e. the phase never empties.
    """
    pi, label, segment = ids
    a_phase = kind == "A"
    if start is None:
        order = list(range(len(pi)))
        pos = list(range(len(pi)))
    else:
        order = list(start)
        pos = _inverse(start)
    h = len(order)
    cap = h**2

    stages = []
    seen = set()
    n = 0
    marker = first
    skip = None  # A_0 takes no segment exclusion
    while True:
        following = pi[marker]
        lab = label[marker]
        bound = pos[following]
        key = tuple(order)
        stages.append((kind, n, key, marker, skip))
        nearest = None
        if a_phase:
            for z in range(pos[marker] - 1, -1, -1):
                t = order[z]
                if label[t] == lab and pos[pi[t]] > bound and segment[t] != skip:
                    nearest = t
                    break
            skip = exclude
        else:
            for z in range(pos[marker] + 1, h):
                t = order[z]
                if label[t] == lab and pos[pi[t]] < bound:
                    nearest = t
                    break
        if nearest is None:
            return stages, False
        state = (key, marker)
        if state in seen:
            return stages, True
        seen.add(state)
        if len(stages) > cap:
            raise InternalCheckError(f"{kind}-phase exceeded the stage cap without a verdict")
        n += 1
        marker = following
        _move(order, pos, marker, pi[nearest], after=a_phase)


def construction_a(source: ABS, pair: SmallModPair) -> ModificationTrace:
    """Run the A-phase on the small modification of ``source`` by ``pair``.

    Returns a partial trace (b and the result still unset).  The id tables
    are copies of ``source``'s cached ones with the two swapped positions
    exchanged; no sequence is built.  Records one stage per sequence: stage n
    holds S^(n) as an id order and the marker alpha_n; A_n is computed in
    S^(n) when the stage's members are read.  Ends with
    a = first empty index, or verdict NonGenericANeverEmpty when the
    iteration state repeats.
    """
    i, j = _swap_positions(source, pair)
    ids = tuple([list(table) for table in id_tables(source)])
    for table in ids:
        table[i], table[j] = table[j], table[i]
    # the 0-symbol now sits at position j, so its id is j
    stages, never_empty = _phase("A", ids, j, pair.one.segment, None)
    return ModificationTrace(
        source,
        pair,
        (i, j),
        ids,
        tuple(stages),
        None if never_empty else stages[-1][1],
        None,
        NONGENERIC_A_NEVER_EMPTY if never_empty else None,
    )


def construction_b(trace: ModificationTrace) -> ModificationTrace:
    """Run the B-phase on a partial trace and classify the outcome."""
    if trace.a is None:
        raise PreconditionViolated("B-phase needs a completed A-phase (a recorded)")
    if trace.b is not None or trace.verdict is not None:
        raise PreconditionViolated("trace already completed")
    ids = trace.ids
    # the 1-symbol now sits where the 0-symbol was
    stages, never_empty = _phase("B", ids, trace.swap[0], None, trace.id_stages[-1][2])
    b = None
    if never_empty:
        verdict = NONGENERIC_B_NEVER_EMPTY
    else:
        b = stages[-1][1]
        before = length(trace.source)
        label = ids[1]
        after = word_length([label[t] for t in stages[-1][2]])
        if before - after < 1:
            raise InternalCheckError(f"full modification raised the length ({before} -> {after})")
        verdict = GENERIC if before - after == 1 else NONGENERIC_LENGTH_DROP
    return ModificationTrace(trace.source, trace.pair, trace.swap, ids, trace.id_stages + tuple(stages), trace.a, b, verdict)


def full_modification(S: ABS, pair: SmallModPair) -> ModificationTrace:
    """Small modification, then the A- and B-phases; classifies the verdict.

    >>> from .newton import parse_polygon
    >>> from .sequences import minimal_abs
    >>> S = minimal_abs(parse_polygon("2,7+3,5"))
    >>> trace = full_modification(S, parse_pair("0:1:4,1:2:2"))
    >>> trace.a, trace.b, trace.verdict, trace.result_type
    (1, 2, 'Generic', (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0))
    """
    partial = construction_a(S, pair)
    if partial.verdict is not None:
        return partial
    return construction_b(partial)


def eligible_pairs(S: ABS, adjacent_only: bool = False) -> tuple[SmallModPair, ...]:
    """All 0-before-1 pairs of S, sorted by (r, i, q, j).

    With adjacent_only, keep pairs whose segments satisfy q = r + 1 (the only
    candidates that can be generic).
    """
    pairs = []
    for x, t0 in enumerate(S.order):
        if t0.label != 0:
            continue
        for t1 in S.order[x + 1 :]:
            if t1.label != 1:
                continue
            if adjacent_only and t1.segment != t0.segment + 1:
                continue
            pairs.append(SmallModPair(t0, t1))
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
        permutation within a block is an automorphism of the sequence.
        """
        r, q = self.zero_segment, self.one_segment
        if r == q:
            return False
        segs = [(s.m, s.n) for s in parse_polygon(self.polygon).segments]
        block = {}
        i = 0
        while i < len(segs):
            j = i
            while j + 1 < len(segs) and segs[j + 1] == segs[i]:
                j += 1
            for k in range(i, j + 1):
                block[k + 1] = (i + 1, j + 1)
            i = j + 1
        r_lo, r_hi = block[r]
        q_lo, q_hi = block[q]
        return max(r_lo + 1, q_lo) <= min(r_hi + 1, q_hi)


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
    eps = Permutation(tuple(trace.result.position(t) for t in trace.symbols))
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
    if trace.a is not None:
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
    offset = trace.a or 0
    return {
        "source": abs_to_json(trace.source),
        "pair": trace.pair.spec,
        "small": abs_to_json(trace.small),
        "stages": [
            {
                "kind": stage.kind,
                "index": stage.index,
                "global_index": stage.index + (offset if stage.kind == "B" else 0),
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
