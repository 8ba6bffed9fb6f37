"""Arrowed binary sequences: an ordered symbol set, 0/1 labels, a bijection.

An arrowed binary sequence (ABS) is a finite totally ordered set of symbols
``T``, a labelling ``delta: T -> {0, 1}``, and a bijection ``pi: T -> T``.
Symbols keep a permanent identity (segment, position, label); reorderings
move symbols around without renaming them.  A sequence stores its order and
its arrows: for each position z, the position of pi(symbol at z).

The length of a sequence counts the pairs (t, t') with t before t',
delta(t) = 0 and delta(t') = 1.  Each symbol also carries a binary expansion
0.b_1 b_2 ... with b_i = delta(pi^{-i}(t)), an eventually periodic word whose
exact rational value drives the canonical ordering of direct sums.  Along one
pi-orbit consecutive words are rotations of each other, so one walk per orbit
yields every value, as integer words over the denominators 2^p - 1.

Every 0/1 word has one canonical (admissible) sequence, and the minimal
sequence of a segment (m, n) is the canonical sequence of its word 1^m 0^n:
its arrows (i - m - 1) mod (m+n) + 1 are that word's canonical arrows, so
their expansion words agree too.  The expansion words of a word's canonical
sequence are computed once per word per process, and serve both the merge
of a polygon's segments in ``minimal_abs`` and ``direct_sum_type(types)``,
which takes the summands as plain 0/1 words.  Both take their order from
one routine, ``_merge_order``: it sorts exact integer keys, the first K bits
of each value's expansion, K the sum of the distinct expansion periods (the
segment heights, or the summands' orbit lengths), so no ``Fraction`` is
built or compared; ``direct_sum_type`` reads only the merged labels and
builds no sequence.  A segment's own symbols and arrows depend only on
(m, n) and its slot, so each such table is built once per process and
every minimal sequence with that segment in that slot shares its ``Symbol``
objects: 83 tables serve every polygon at h <= 8, 145 at h <= 10, 235 at
h <= 12 and 359 at h <= 14.  ``minimal_abs`` is memoized per polygon,
bounded at ``MINIMAL_ABS_CACHE_SIZE`` (64) polygons, so the oracle reads
the sequence the combinatorial side just built.

>>> S = minimal_abs_segment(1, 2)
>>> [t.token for t in S.order]
['1^1_1', '0^1_2', '0^1_3']
>>> _canonical_words((1, 0, 0))[0]  # the value 1/7 of the first symbol
(1, 7)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InternalCheckError, SymbolNotInSequence
from .newton import NewtonPolygon


@dataclass(frozen=True)
class Symbol:
    """Permanent identity of one sequence entry: tau^segment_position with a bit."""

    segment: int
    position: int
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if self.position < 1 or self.segment < 0:
            raise ValueError(f"bad symbol coordinates ({self.segment}, {self.position})")
        # The dataclass field-tuple hash, computed once; set and dict order depend on it.
        object.__setattr__(self, "_hash", hash((self.segment, self.position, self.label)))

    def __hash__(self):
        return self._hash

    @cached_property
    def token(self) -> str:
        # Formatted on first read and kept: a symbol is shared by every
        # sequence of its segment slot (see _segment_parts), so traces and
        # renders read the same token many times.
        return f"{self.label}^{self.segment}_{self.position}"

    def __repr__(self):
        return self.token


class ABS:
    """Ordered symbols plus arrows between positions; immutable once built.

    ``arrows[z - 1]`` is the 1-based position of pi(t) for the symbol t at
    position z, the form ``abs_to_json`` writes.  ``ABS(order, pi)`` takes pi
    as a symbol mapping; ``ABS.from_arrows`` takes the positions directly.
    Both reject a repeated symbol.  The symbol-to-position dict behind
    ``position`` and ``in`` is built on the first such lookup (or kept from
    the repeated-symbol check), so a reordering that is never searched never
    builds one.  ``length`` and ``id_tables`` are likewise computed on first
    use and kept in the ``_length`` and ``_ids`` slots.
    """

    __slots__ = ("order", "arrows", "_pos", "_hash", "_length", "_ids")

    def __init__(self, order, pi):
        order = tuple(order)
        pi = dict(pi)
        pos = _checked_positions(order)
        if pi.keys() != pos.keys():
            raise ValueError("pi must be a bijection on exactly the ordered symbols")
        self._init(order, tuple(pos.get(pi[t], 0) for t in order), pos)

    @classmethod
    def from_arrows(cls, order, arrows) -> "ABS":
        """The sequence whose symbol at position z points at position arrows[z - 1]."""
        order = tuple(order)
        S = cls.__new__(cls)
        S._init(order, tuple(arrows), _checked_positions(order))
        return S

    @classmethod
    def _reordered(cls, symbols, ids, arrows) -> "ABS":
        """The symbols ``symbols[t]`` for t in ``ids``, pointing at ``arrows``.

        ``symbols`` is the order of an existing sequence, so it holds no
        repeat; ``ids`` is checked to permute its positions 0..n-1, which
        keeps the new order repeat-free without a symbol lookup.
        """
        if sorted(ids) != list(range(len(symbols))):
            raise ValueError(f"ids must permute the positions 0..{len(symbols) - 1}")
        S = cls.__new__(cls)
        S._init(tuple([symbols[t] for t in ids]), tuple(arrows), None)
        return S

    def _init(self, order, arrows, pos):
        if sorted(arrows) != list(range(1, len(order) + 1)):
            raise ValueError(f"arrows must permute the positions 1..{len(order)}")
        self.order = order
        self.arrows = arrows
        self._pos = pos
        self._hash = None
        self._length = None
        self._ids = None

    def __len__(self):
        return len(self.order)

    def __contains__(self, t):
        return t in self._positions()

    def _positions(self) -> dict:
        if self._pos is None:
            self._pos = {t: z for z, t in enumerate(self.order, start=1)}
        return self._pos

    def __eq__(self, other):
        return isinstance(other, ABS) and self.order == other.order and self.arrows == other.arrows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.arrows))
        return self._hash

    def __repr__(self):
        return f"ABS({' '.join(t.token for t in self.order)})"

    def position(self, t: Symbol) -> int:
        """1-based position of t in the current order."""
        try:
            return self._positions()[t]
        except KeyError:
            raise SymbolNotInSequence(f"{t!r} is not in this sequence") from None

    def pi(self, t: Symbol) -> Symbol:
        return self.order[self.arrows[self.position(t) - 1] - 1]

    def pi_inverse(self, t: Symbol) -> Symbol:
        return self.order[self.arrows.index(self.position(t))]

    def arrow_images(self) -> tuple[int, ...]:
        """pi as a permutation of positions: entry z is the position of pi(symbol at z)."""
        return self.arrows


def _checked_positions(order: tuple) -> dict:
    """Symbol -> 1-based position; raises on a repeated symbol."""
    pos = {t: z for z, t in enumerate(order, start=1)}
    if len(pos) != len(order):
        raise ValueError("order contains repeated symbols")
    return pos


def minimal_abs_segment(m: int, n: int, segment: int = 1) -> ABS:
    """The minimal sequence of one coprime segment (m, n).

    Symbols t_1 .. t_{m+n} in that order, the first m labelled 1, and
    pi(t_i) = t_{((i - m - 1) mod (m+n)) + 1}: one cycle shifting by -m.
    These are the canonical arrows of the word 1^m 0^n, so the sequence is
    ``abs_from_binary_sequence`` of that word, its symbols in ``segment``.

    >>> S = minimal_abs_segment(2, 7)
    >>> S.arrow_images()
    (8, 9, 1, 2, 3, 4, 5, 6, 7)
    """
    if m + n == 0:
        raise ValueError("segment (0, 0) has no symbols")
    return ABS.from_arrows(*_segment_parts(m, n, segment))


@lru_cache(maxsize=None)
def _segment_parts(m: int, n: int, segment: int) -> tuple[tuple[Symbol, ...], tuple[int, ...]]:
    # order and arrows of minimal_abs_segment(m, n, segment), once per
    # (m, n, segment) per process: the canonical arrows of the word 1^m 0^n
    # are (i - m - 1) mod (m+n) + 1.  Every sequence merged from this slot
    # shares these Symbol objects; tuples, so no caller can change them.
    word = (1,) * m + (0,) * n
    return tuple([Symbol(segment, i, b) for i, b in enumerate(word, start=1)]), tuple(canonical_arrows(word))


def length(S: ABS) -> int:
    """Number of pairs with a 0-labelled symbol ordered before a 1-labelled one.

    Counted once per sequence and kept with it.

    >>> length(minimal_abs_segment(2, 7))
    0
    """
    if S._length is None:
        S._length = word_length(t.label for t in S.order)
    return S._length


def id_tables(S: ABS) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """pi, labels and segments indexed by 0-based position: ``(arrows - 1, labels, segments)``.

    Built once per sequence and kept with it, like ``length``.

    >>> id_tables(minimal_abs_segment(1, 2))
    ((2, 0, 1), (1, 0, 0), (1, 1, 1))
    """
    if S._ids is None:
        S._ids = (
            tuple([z - 1 for z in S.arrows]),
            tuple([t.label for t in S.order]),
            tuple([t.segment for t in S.order]),
        )
    return S._ids


def word_length(word) -> int:
    """Number of pairs (0 before 1) in a 0/1 word; the length of any sequence of that type."""
    zeros = 0
    total = 0
    for bit in word:
        if bit == 0:
            zeros += 1
        else:
            total += zeros
    return total


def direct_sum_type(types) -> tuple[int, ...]:
    """The type of the direct sum of the canonical sequences of the 0/1 words ``types``.

    The order is ``_merge_order`` of each word's ``_canonical_words``, and
    only the labels are read along it: no sequence is built.  The word
    1^m 0^n stands for the minimal sequence of the segment (m, n), which is
    its canonical sequence.

    >>> direct_sum_type([(1, 0), (1, 0)])
    (1, 1, 0, 0)
    """
    types = [tuple(t) for t in types]
    return tuple([types[k][idx] for _, k, idx in _merge_order([_canonical_words(t) for t in types])])


def _expansion_words(labels, arrows) -> list[tuple[int, int]]:
    """``(w, 2^p - 1)`` for the symbol at each position: its value w / (2^p - 1), p its orbit length.

    ``labels`` and ``arrows`` describe one sequence (``[t.label for t in
    S.order]`` and ``S.arrows``).  One walk along the inverse arrows per
    orbit, then one shift per symbol.
    """
    n = len(arrows)
    inverse = [0] * n
    for z, image in enumerate(arrows):
        inverse[image - 1] = z
    words: list[tuple[int, int] | None] = [None] * n
    for start in range(n):
        if words[start] is not None:
            continue
        orbit = [start]
        z = inverse[start]
        while z != start:
            orbit.append(z)
            z = inverse[z]
        den = (1 << len(orbit)) - 1
        for z, word in zip(orbit, _cycle_words([labels[z] for z in orbit])):
            words[z] = (word, den)
    return words


def _cycle_words(bits: list[int]) -> list[int]:
    # bits[k] is the label of z_k on an orbit z_0, ..., z_{p-1} listed along
    # pi^{-1}; z_k's expansion word is bits[k+1], ..., bits[k+p] (indices mod
    # p), so the word of z_{k+1} is the word of z_k rotated left by one bit.
    # Word w stands for the value w / (2^p - 1).
    p = len(bits)
    full = (1 << p) - 1
    word = 0
    for bit in bits[1:] + bits[:1]:
        word = word << 1 | bit
    out = []
    for k in range(p):
        out.append(word)
        word = (word << 1 & full) | bits[(k + 1) % p]
    return out


@lru_cache(maxsize=None)
def _canonical_words(word: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``_expansion_words`` of the canonical sequence of the 0/1 word, once per word per process.

    For the word 1^m 0^n of a segment (m, n) that sequence is the segment's
    minimal sequence, so these are the values ``minimal_abs`` merges by.
    """
    return tuple(_expansion_words(word, canonical_arrows(word)))


def _merge_order(words) -> list[tuple[int, int, int]]:
    """The direct-sum order: ``(key, k, idx)`` for every symbol, sorted.

    ``words[k]`` lists the ``(w, 2^p - 1)`` pairs of summand k: the value
    w / (2^p - 1) of its symbol idx, a purely periodic expansion of period p.
    The key is floor(value * 2^K), the expansion's first K bits, with K the
    sum of the distinct periods in all lists, and ties break by (k, idx).  By
    Fine and Wilf, expansions of periods p and q that agree on their first
    p + q - gcd(p, q) <= K bits are equal, so the keys keep the values' order
    and ties exactly in at most K + 1 bits.

    >>> _merge_order([[(1, 7), (2, 7), (4, 7)], [(1, 1)]])  # 1/7, 2/7, 4/7 and 1 in K = 3 + 1 bits
    [(2, 0, 0), (4, 0, 1), (9, 0, 2), (16, 1, 0)]
    """
    width = sum({den.bit_length() for ws in words for _, den in ws})
    return sorted(((w << width) // den, k, idx) for k, ws in enumerate(words) for idx, (w, den) in enumerate(ws))


def _merge(parts, merged) -> ABS:
    # parts[k] is the (order, arrows) of summand k and merged the
    # _merge_order of their symbols.  Only minimal_abs calls it, on segment
    # tables of distinct slots, so no symbol repeats; from_arrows's repeat
    # check stays as the guard.
    where = [[0] * len(order) for order, _ in parts]
    for z, (_, k, idx) in enumerate(merged, start=1):
        where[k][idx] = z
    return ABS.from_arrows(
        [parts[k][0][idx] for _, k, idx in merged],
        [where[k][parts[k][1][idx] - 1] for _, k, idx in merged],
    )


# Bound on the polygons whose minimal sequence is kept.  Measured traffic per
# pass of each benchmark workload: oracle_sweep calls minimal_abs 676 times on
# 338 polygons (boundary_set_oracle reuses the sequence boundary_set built
# just before, 50% repeats), cli_traces 196 on 40 (80%, spread over the
# pass), verify_suite 591 on 447 (24%) and census 983 on 983 (0%).  64 holds
# every repeat of the first two.  Holding verify_suite's 447 polygons as
# well (512, 144 hits instead of 44) was measured to cost the census, which
# never repeats: the entries it keeps alive move about five more young-object
# garbage collections per pass into its timed items.  An entry holds about
# 0.7 KB by tracemalloc at h <= 10 (1.1 KB once its id tables and position
# dict are built), its symbols being the shared segment tables.
MINIMAL_ABS_CACHE_SIZE = 64


@lru_cache(maxsize=MINIMAL_ABS_CACHE_SIZE)
def minimal_abs(polygon: NewtonPolygon) -> ABS:
    """Minimal sequence of a polygon: direct sum of its minimal segments.

    The order is ``_merge_order`` of each segment's ``_canonical_words`` of
    1^m 0^n, computed once per distinct (m, n) per process, and the merge
    reads each segment's order and arrows, built once per (m, n, slot) per
    process (359 tables cover every polygon at h <= 14), without building
    its sequence.
    Expansion ties across summands can only come from equal segments;
    anything else would break the canonical order, so it is checked
    outright: tied values sit next to each other in the merged order.

    Memoized per polygon (at most ``MINIMAL_ABS_CACHE_SIZE`` of them, least
    recently used dropped first); a sequence is immutable, so every caller
    may share it.
    """
    segments = [(seg.m, seg.n) for seg in polygon.segments]
    words = [_canonical_words((1,) * m + (0,) * n) for m, n in segments]
    merged = _merge_order(words)
    for (key, k, _), (next_key, j, idx) in zip(merged, merged[1:]):
        if key == next_key and segments[k] != segments[j]:
            raise InternalCheckError(
                f"expansion tie {Fraction(*words[j][idx])} between distinct segments {segments[k]} and {segments[j]}"
            )
    return _merge([_segment_parts(m, n, k) for k, (m, n) in enumerate(segments, start=1)], merged)


def to_binary_sequence(S: ABS) -> tuple[int, ...]:
    """The type of a sequence: its labels read along the order."""
    return tuple(t.label for t in S.order)


def abs_from_binary_sequence(nu) -> ABS:
    """Canonical sequence of a binary word, segment index 0.

    The bijection follows the display-module rules: a 0 at position i maps to
    position #{l <= i : nu(l) = 0}, and the j-th 1 (left to right) maps to
    position d + j where d is the number of zeros.

    >>> abs_from_binary_sequence((1, 1, 0)).arrow_images()
    (2, 3, 1)
    """
    nu = tuple(int(b) for b in nu)
    if any(b not in (0, 1) for b in nu) or not nu:
        raise ValueError(f"need a non-empty 0/1 word, got {nu}")
    return ABS.from_arrows([Symbol(0, i, b) for i, b in enumerate(nu, start=1)], canonical_arrows(nu))


def canonical_arrows(nu) -> list[int]:
    """The arrows of ``abs_from_binary_sequence(nu)`` for a 0/1 word nu, without building it.

    >>> canonical_arrows((1, 1, 0))
    [2, 3, 1]
    """
    seen = [0, nu.count(0)]  # arrows so far into the zero block and into the one block
    arrows = []
    for b in nu:
        seen[b] += 1
        arrows.append(seen[b])
    return arrows


def render_ascii(S: ABS) -> str:
    """Tokens on one line, then one 'k -> k'' line per position arrow."""
    lines = [" ".join(t.token for t in S.order)]
    for z, image in enumerate(S.arrow_images(), start=1):
        lines.append(f"{z} -> {image}")
    return "\n".join(lines)


def abs_to_json(S: ABS) -> dict:
    return {
        "order": [[t.segment, t.position] for t in S.order],
        "delta": [t.label for t in S.order],
        "pi": [[z, image] for z, image in enumerate(S.arrow_images(), start=1)],
    }


def abs_from_json(data: dict) -> ABS:
    """Inverse of abs_to_json; every z and image must lie in 1..n, each z given once."""
    syms = [
        Symbol(seg, pos, label)
        for (seg, pos), label in zip(data["order"], data["delta"], strict=True)
    ]
    arrows = [0] * len(syms)
    for z, image in data["pi"]:
        if not 1 <= z <= len(syms) or arrows[z - 1]:
            raise ValueError(f"arrow source {z} is out of range or given twice")
        arrows[z - 1] = image
    return ABS.from_arrows(syms, arrows)
