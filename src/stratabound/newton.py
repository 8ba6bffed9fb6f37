"""Newton polygons as sums of coprime segments, and their reductions.

A polygon is an ordered sum of segments (m_i, n_i) of non-negative coprime
integers with non-increasing slopes n_i / (m_i + n_i).  Height h = sum of
m_i + n_i, dimension d = sum of n_i, codimension c = h - d.

Two reduction moves preserve the boundary structure studied here:

* ``dual``      (m_i, n_i) -> (n_{z-i+1}, m_{z-i+1})   (reverse and swap)
* ``curtail``   (m_i, n_i) -> (m_i, n_i - m_i), defined when every m_i <= n_i

``phi`` composes the two moves until the polygon is separated, meaning
lambda_z < 1/2 < lambda_1.

Slopes are ``Fraction``s wherever they are returned or compared with 1/2,
but building a polygon checks their order on integers alone: since every
segment height is at least 1, n_a/h_a < n_b/h_b exactly when
n_a*h_b < n_b*h_a.  ``Segment`` and ``NewtonPolygon`` compute their hash
once, at construction, with the value the dataclass would generate, so
a memo lookup keyed by a polygon reads the stored hash.

>>> str(phi(parse_polygon("2,7+3,5"))[0])
'2,5+3,2'
>>> phi(parse_polygon("2,7+3,5"))[1]
('C',)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoprimalityViolation,
    CurtailUndefined,
    InternalCheckError,
    PreconditionViolated,
    SlopeOrderViolation,
)


@dataclass(frozen=True)
class Segment:
    """One coprime pair (m, n); slope counts the 'n' share of the height."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise CoprimalityViolation(f"segment entries must be non-negative, got ({self.m}, {self.n})")
        if math.gcd(self.m, self.n) != 1:
            raise CoprimalityViolation(f"segment ({self.m}, {self.n}) is not coprime")
        # The dataclass field-tuple hash, computed once; set and dict order depend on it.
        object.__setattr__(self, "_hash", hash((self.m, self.n)))

    def __hash__(self):
        return self._hash

    @property
    def height(self) -> int:
        return self.m + self.n

    @property
    def slope(self) -> Fraction:
        return Fraction(self.n, self.height)

    def __str__(self):
        return f"{self.m},{self.n}"


@dataclass(frozen=True)
class NewtonPolygon:
    """An ordered sum of segments with non-increasing slopes."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise SlopeOrderViolation("a polygon needs at least one segment")
        # n_a/h_a < n_b/h_b exactly when n_a*h_b < n_b*h_a, since heights are >= 1.
        segments = self.segments
        for i in range(1, len(segments)):
            a, b = segments[i - 1], segments[i]
            if a.n * (b.m + b.n) < b.n * (a.m + a.n):
                raise SlopeOrderViolation(f"slopes must be non-increasing, got {a.slope} < {b.slope} at position {i}")
        # The dataclass field-tuple hash, computed once, as for Segment.
        object.__setattr__(self, "_hash", hash((segments,)))

    def __hash__(self):
        return self._hash

    @property
    def z(self) -> int:
        return len(self.segments)

    @property
    def height(self) -> int:
        return sum(s.height for s in self.segments)

    @property
    def dimension(self) -> int:
        return sum(s.n for s in self.segments)

    @property
    def codimension(self) -> int:
        return sum(s.m for s in self.segments)

    def slope(self, i: int) -> Fraction:
        """Slope of segment i (1-based)."""
        return self.segments[i - 1].slope

    def __str__(self):
        return "+".join(str(s) for s in self.segments)


def validate(pairs) -> NewtonPolygon:
    """Build a polygon from (m, n) pairs, checking coprimality and slope order.

    >>> validate([(2, 7), (3, 5)]).height
    17
    """
    return NewtonPolygon(tuple(Segment(int(m), int(n)) for m, n in pairs))


def parse_polygon(text: str) -> NewtonPolygon:
    """Parse the compact form ``"2,7+3,5"`` (whitespace ignored).

    >>> parse_polygon("2,7 + 3,5").z
    2
    """
    pairs = []
    for chunk in text.replace(" ", "").split("+"):
        try:
            m, n = map(parse_int, chunk.split(","))
        except ValueError:
            raise ValueError(f"cannot parse segment {chunk!r}; expected 'm,n'") from None
        pairs.append((m, n))
    return validate(pairs)


def parse_int(text: str) -> int:
    """An integer written as an optional ``-`` and ASCII digits.

    ``int`` alone also reads other Unicode digits, ``_`` separators and
    surrounding whitespace; those, and text too long for ``int``, raise
    ``ValueError`` here.

    >>> parse_int("-12")
    -12
    >>> parse_int("1_0")
    Traceback (most recent call last):
        ...
    ValueError: invalid int value: '1_0'
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # beyond the interpreter's digit limit
            pass
    raise ValueError(f"invalid int value: {text!r}")


def polygon_to_json(p: NewtonPolygon) -> dict:
    return {"segments": [[s.m, s.n] for s in p.segments]}


def polygon_from_json(data: dict) -> NewtonPolygon:
    return validate(data["segments"])


def is_separated(p: NewtonPolygon) -> bool:
    """True when lambda_z < 1/2 < lambda_1 strictly.

    >>> is_separated(parse_polygon("2,5+3,2"))
    True
    >>> is_separated(parse_polygon("2,7+3,5"))
    False
    """
    half = Fraction(1, 2)
    return p.slope(p.z) < half < p.slope(1)


def dual(p: NewtonPolygon) -> NewtonPolygon:
    """Reverse the segment order and swap each (m, n).

    >>> str(dual(parse_polygon("2,7+3,5")))
    '5,3+7,2'
    """
    return NewtonPolygon(tuple(Segment(s.n, s.m) for s in reversed(p.segments)))


def curtail(p: NewtonPolygon) -> NewtonPolygon:
    """Replace each (m, n) by (m, n - m); needs every m_i <= n_i.

    >>> str(curtail(parse_polygon("2,7+3,5")))
    '2,5+3,2'
    >>> curtail(parse_polygon("3,2"))
    Traceback (most recent call last):
        ...
    stratabound.errors.CurtailUndefined: curtailment needs m <= n in every segment, got (3, 2)
    """
    for s in p.segments:
        if s.m > s.n:
            raise CurtailUndefined(f"curtailment needs m <= n in every segment, got ({s.m}, {s.n})")
    # gcd(m, n-m) = gcd(m, n) = 1, and n/(m+n) decreasing implies (n-m)/n decreasing.
    return NewtonPolygon(tuple(Segment(s.m, s.n - s.m) for s in p.segments))


def apply_reduction(p: NewtonPolygon, letter: str) -> NewtonPolygon:
    """Apply one reduction letter, 'C' (curtail) or 'D' (dual)."""
    if letter == "C":
        return curtail(p)
    if letter == "D":
        return dual(p)
    raise ValueError(f"unknown reduction letter {letter!r}")


def phi(p: NewtonPolygon) -> tuple[NewtonPolygon, tuple[str, ...]]:
    """Reduce to a separated polygon, returning it with the C/D word applied.

    Greedy rule: while not separated, dualize when lambda_1 <= 1/2, otherwise
    curtail (legal there because lambda_z >= 1/2 forces every m_i <= n_i).
    Undefined when all slopes are equal: C and D preserve that property, so a
    separated polygon is unreachable.

    >>> result, word = phi(parse_polygon("1,3+1,2"))
    >>> str(result), word
    ('0,1+1,0', ('C', 'C', 'D', 'C'))
    >>> phi(parse_polygon("2,5+3,2"))[1]
    ()
    """
    if p.slope(1) == p.slope(p.z):
        raise PreconditionViolated(
            f"phi needs two distinct slopes, got the isoclinic polygon {p}"
        )
    half = Fraction(1, 2)
    word = []
    current = p
    # Every C strictly lowers the height and D never repeats, so 2h+2 steps
    # suffice; the cap guards the termination argument itself.
    for _ in range(2 * p.height + 2):
        if is_separated(current):
            return current, tuple(word)
        letter = "D" if current.slope(1) <= half else "C"
        current = apply_reduction(current, letter)
        word.append(letter)
    raise InternalCheckError(f"phi failed to terminate on {p}; word so far {word}")


def enumerate_polygons(max_height: int, min_z: int = 1, max_z: int | None = None):
    """Iterate over every valid polygon with height <= max_height (and z in range).

    Polygons are determined by a slope-sorted multiset of coprime segments;
    equal slopes force equal segments, so enumeration by non-increasing slope
    with ties broken arbitrarily-but-fixed covers each polygon exactly once.

    >>> sum(1 for _ in enumerate_polygons(3))
    14
    >>> enumerate_polygons(-1)
    Traceback (most recent call last):
        ...
    ValueError: max_height must be at least 0, got -1
    """
    if max_height < 0:
        raise ValueError(f"max_height must be at least 0, got {max_height}")
    coprime = [
        Segment(m, n)
        for m in range(max_height + 1)
        for n in range(max_height + 1 - m)
        if (m, n) != (0, 0) and math.gcd(m, n) == 1
    ]
    # Fixed total order: slope descending, then height ascending.
    coprime.sort(key=lambda s: (-s.slope, s.height, s.m))
    heights = [s.height for s in coprime]

    def extend(start: int, room: int, chosen: list[Segment]):
        if chosen and len(chosen) >= min_z and (max_z is None or len(chosen) <= max_z):
            yield NewtonPolygon(tuple(chosen))
        if max_z is not None and len(chosen) >= max_z:
            return
        for k in range(start, len(coprime)):
            if heights[k] > room:
                continue
            chosen.append(coprime[k])
            yield from extend(k, room - heights[k], chosen)
            chosen.pop()

    return extend(0, max_height, [])
