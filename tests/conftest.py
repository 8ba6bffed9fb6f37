"""Shared fixtures, hypothesis strategies, and the acceptance report hook."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from stratabound.newton import NewtonPolygon, Segment, validate
from stratabound.sequences import _expansion_words, to_binary_sequence

# ---------------------------------------------------------------------------
# Acceptance criteria reporting: each acceptance test records its outcome so
# the terminal summary always ends with one PASS/FAIL line per criterion.
# ---------------------------------------------------------------------------

_ACCEPTANCE: dict[int, tuple[str, str, str]] = {}


def record_acceptance(number: int, title: str, ok: bool, detail: str = "") -> None:
    _ACCEPTANCE[number] = ("PASS" if ok else "FAIL", title, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        status, title, detail = _ACCEPTANCE[number]
        line = f"criterion {number}: {status} — {title}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


def expansion_values(S) -> list[Fraction]:
    """The exact expansion value of the symbol at each position of S, read off the library's integer words."""
    return [Fraction(w, den) for w, den in _expansion_words(to_binary_sequence(S), S.arrows)]


# ---------------------------------------------------------------------------
# Seeded polygons beyond the exhaustive range
# ---------------------------------------------------------------------------


def tall_random_polygons() -> list[NewtonPolygon]:
    """60 seeded polygons (seed 7) of 2..5 coprime segments with m, n <= 12 and height 20..60."""
    rng = random.Random(7)
    polygons = []
    while len(polygons) < 60:
        segments = set()
        for _ in range(rng.randint(2, 5)):
            m, n = rng.randint(0, 12), rng.randint(0, 12)
            if math.gcd(m, n) == 1:
                segments.add((m, n))
        if 20 <= sum(m + n for m, n in segments) <= 60:
            polygons.append(validate(sorted(segments, key=lambda s: Fraction(s[1], sum(s)), reverse=True)))
    return polygons


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

_COPRIME = sorted(
    (
        Segment(m, n)
        for m in range(0, 13)
        for n in range(0, 13 - m)
        if (m, n) != (0, 0) and math.gcd(m, n) == 1
    ),
    key=lambda s: (-s.slope, s.height, s.m),
)


@st.composite
def polygons(draw, max_height: int = 12, max_segments: int = 4) -> NewtonPolygon:
    """A valid polygon: slope-sorted coprime segments within the height budget."""
    count = draw(st.integers(min_value=1, max_value=max_segments))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(_COPRIME) - 1),
            min_size=count,
            max_size=count,
        )
    )
    chosen = [_COPRIME[i] for i in sorted(picks)]
    total = 0
    kept = []
    for seg in chosen:
        if total + seg.height > max_height:
            break
        kept.append(seg)
        total += seg.height
    if not kept:
        kept = [_COPRIME[draw(st.integers(min_value=0, max_value=len(_COPRIME) - 1))]]
        while kept[0].height > max_height:
            kept = [Segment(0, 1)]
    return NewtonPolygon(tuple(kept))


def binary_words(max_length: int = 10):
    return st.lists(
        st.integers(min_value=0, max_value=1), min_size=1, max_size=max_length
    ).map(tuple)
