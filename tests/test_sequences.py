"""Ordered-symbol sequences: construction, expansions, direct sums, lengths."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import binary_words, polygons
from reference import (
    direct_sum_by_expansions,
    expansion_by_orbit_walk,
    minimal_abs_by_expansions,
    reordered,
    segment_words_by_shift,
)
from stratabound import boundary, sequences
from stratabound.errors import InternalCheckError, SymbolNotInSequence
from stratabound.newton import enumerate_polygons, parse_polygon
from stratabound.sequences import (
    ABS,
    Symbol,
    abs_from_binary_sequence,
    abs_from_json,
    abs_to_json,
    binary_expansion,
    canonical_arrows,
    direct_sum,
    is_admissible,
    length,
    minimal_abs,
    minimal_abs_segment,
    render_ascii,
    to_binary_sequence,
)


def token_row(S: ABS) -> tuple[str, ...]:
    return tuple(t.token for t in S.order)


class TestSymbols:
    def test_token_format(self):
        assert Symbol(2, 7, 0).token == "0^2_7"

    def test_token_is_kept_and_changes_nothing_else(self):
        t = Symbol(2, 7, 0)
        assert t.token is t.token
        fresh = Symbol(2, 7, 0)
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh) == "0^2_7"

    def test_label_validated(self):
        with pytest.raises(ValueError):
            Symbol(1, 1, 2)

    def test_coordinates_validated(self):
        with pytest.raises(ValueError):
            Symbol(1, 0, 0)

    def test_hash_is_the_field_tuple_hash(self):
        # Set and dict iteration order, hence every output, depends on this value.
        for s, p, l in itertools.product((0, 1, 7), (1, 2, 13), (0, 1)):
            assert hash(Symbol(s, p, l)) == hash((s, p, l))


class TestMinimalSegment:
    def test_single_cycle_and_labels(self):
        S = minimal_abs_segment(2, 7)
        assert [t.label for t in S.order] == [1, 1, 0, 0, 0, 0, 0, 0, 0]
        seen = {S.order[0]}
        t = S.pi(S.order[0])
        while t != S.order[0]:
            seen.add(t)
            t = S.pi(t)
        assert len(seen) == len(S)

    def test_zero_one_and_one_zero(self):
        assert token_row(minimal_abs_segment(0, 1)) == ("0^1_1",)
        assert token_row(minimal_abs_segment(1, 0)) == ("1^1_1",)

    def test_rejects_empty_segment(self):
        with pytest.raises(ValueError):
            minimal_abs_segment(0, 0)

    def test_length_of_minimal_segment_is_zero(self):
        for m, n in ((1, 2), (2, 7), (3, 5), (1, 0)):
            assert length(minimal_abs_segment(m, n)) == 0


class TestExpansion:
    def test_values_for_one_two(self):
        S = minimal_abs_segment(1, 2)
        values = [binary_expansion(S, t).value for t in S.order]
        assert values == [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)]

    def test_shift_law(self):
        # b(pi(t)) = (delta(t) + b(t)) / 2 for every symbol.
        for poly in ("2,7+3,5", "1,2+1,1", "2,5+3,2"):
            S = minimal_abs(parse_polygon(poly))
            for t in S.order:
                b = binary_expansion(S, t).value
                assert binary_expansion(S, S.pi(t)).value == (t.label + b) / 2

    def test_order_is_nondecreasing_in_expansion(self):
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            values = [binary_expansion(S, t).value for t in S.order]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_same_label_symbols_keep_arrow_order(self):
        # Admissible sequences: t < t' with equal labels forces pi(t) < pi(t').
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            for t, u in itertools.combinations(S.order, 2):
                if t.label == u.label:
                    assert S.position(S.pi(t)) < S.position(S.pi(u))

    def test_orbit_walk_values_equal_binary_expansion(self):
        # Several orbits per sequence: one per segment of the polygon.
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            walked = [expansion_by_orbit_walk(S, t) for t in S.order]
            values = [Fraction(word, den) for word, den in sequences._expansion_words(to_binary_sequence(S), S.arrows)]
            assert values == [e.value for e in walked]
            assert [binary_expansion(S, t) for t in S.order] == walked

    def test_distinct_expansions_sort_with_the_order(self):
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            pairs = [(binary_expansion(S, t).value, S.position(t)) for t in S.order]
            for (bv, pv), (bw, pw) in itertools.combinations(pairs, 2):
                if bv != bw:
                    assert (bv < bw) == (pv < pw)


def coprime_segments(max_height):
    return [(m, h - m) for h in range(1, max_height + 1) for m in range(h + 1) if math.gcd(m, h - m) == 1]


class TestSegmentIsCanonical:
    """The minimal sequence of a segment (m, n) is the canonical sequence of 1^m 0^n."""

    def test_arrows_are_the_formula_and_the_canonical_arrows(self):
        for m, n in coprime_segments(40):
            h = m + n
            arrows = minimal_abs_segment(m, n).arrows
            assert arrows == tuple((i - m - 1) % h + 1 for i in range(1, h + 1)), (m, n)
            assert list(arrows) == canonical_arrows((1,) * m + (0,) * n), (m, n)

    def test_expansion_words_are_the_shift_orbit(self):
        for m, n in coprime_segments(40):
            den, words = segment_words_by_shift(m, n)
            assert sequences._canonical_words((1,) * m + (0,) * n) == tuple((word, den) for word in words), (m, n)

    def test_direct_sum_type_is_the_type_of_the_direct_sum(self):
        words = [w for k in range(1, 5) for w in itertools.product((0, 1), repeat=k)]
        canonical = {
            (w, k): ABS.from_arrows([Symbol(k, i, b) for i, b in enumerate(w, start=1)], canonical_arrows(w))
            for w in words
            for k in (1, 2, 3)
        }
        sums = 0
        for r in (2, 3):
            for types in itertools.product(words, repeat=r):
                S = direct_sum(*(canonical[w, k] for k, w in enumerate(types, start=1)))
                assert sequences.direct_sum_type(types) == to_binary_sequence(S), types
                sums += 1
        assert sums == 30**2 + 30**3


class TestDirectSum:
    def test_equal_segments_tie_break_by_slot(self):
        S = direct_sum(minimal_abs_segment(1, 1, 1), minimal_abs_segment(1, 1, 2))
        assert token_row(S) == ("1^1_1", "1^2_1", "0^1_2", "0^2_2")

    def test_disjointness_enforced(self):
        S = minimal_abs_segment(1, 1, 1)
        with pytest.raises(ValueError):
            direct_sum(S, minimal_abs_segment(1, 1, 1))

    def test_direct_sum_of_segments_equals_minimal_abs(self):
        for poly in enumerate_polygons(10, min_z=2):
            summands = [minimal_abs_segment(seg.m, seg.n, k) for k, seg in enumerate(poly.segments, start=1)]
            assert direct_sum(*summands) == minimal_abs(poly), str(poly)

    def test_equals_expansion_reference_on_verify_direct_sum_summands(self):
        # Every element verify_direct_sum maps at h <= 10: a boundary type of
        # one adjacent pair among the other segments' minimal sequences.  The
        # verifier reads the image type off the merge keys alone; its report
        # must agree with both direct sums of the same summands.
        images = 0
        for poly in enumerate_polygons(10, min_z=2):
            report = boundary.verify_direct_sum(poly)
            assert report.ok, str(poly)
            segs = poly.segments
            for tag, image in report.bijection:
                slot, word = tag.removeprefix("i=").split(":")
                i = int(slot)
                summands = [minimal_abs_segment(s.m, s.n, segment=k) for k, s in enumerate(segs, start=1)]
                summands[i - 1 : i + 1] = [abs_from_binary_sequence(tuple(map(int, word)))]
                S = direct_sum(*summands)
                R = direct_sum_by_expansions(*summands)
                assert S == R and hash(S) == hash(R), summands
                assert "".join(map(str, to_binary_sequence(S))) == image, (str(poly), tag)
                images += 1
        # Each passing report maps the pairs' elements one to one onto B(poly).
        assert images == sum(len(boundary.boundary_set(poly).elements) for poly in enumerate_polygons(10, min_z=2))

    def test_equals_expansion_reference_on_words_with_several_periods(self):
        # The canonical sequence of a binary word splits into orbits of
        # several lengths, so one merge mixes several distinct periods.
        mixed = 0
        for n in range(1, 9):
            for word in itertools.product((0, 1), repeat=n):
                T = abs_from_binary_sequence(word)
                mixed += len({den for _, den in sequences._expansion_words(word, T.arrows)}) > 1
                for summands in (
                    (T,),
                    (T, minimal_abs_segment(1, 2, 1)),
                    (minimal_abs_segment(2, 1, 1), T, minimal_abs_segment(1, 1, 2), minimal_abs_segment(3, 2, 3)),
                ):
                    S = direct_sum(*summands)
                    R = direct_sum_by_expansions(*summands)
                    assert S == R and hash(S) == hash(R), (word, summands)
        assert mixed > 100

    def test_length_adds_cross_terms_only(self):
        # Within each summand the minimal sequence contributes zero length.
        for poly in enumerate_polygons(8, min_z=2):
            S = minimal_abs(poly)
            crossing = sum(
                1
                for t, u in itertools.combinations(S.order, 2)
                if t.label == 0 and u.label == 1 and t.segment != u.segment
            )
            assert length(S) == crossing


class TestMinimalAbs:
    def test_golden_17(self):
        S = minimal_abs(parse_polygon(golden.POLYGON_17))
        assert token_row(S) == golden.tokens(golden.S_17)
        assert S.arrow_images() == golden.S_17_ARROWS

    def test_golden_20(self):
        S = minimal_abs(parse_polygon(golden.POLYGON_20))
        assert token_row(S) == golden.tokens(golden.S_20)
        assert S.arrow_images() == golden.S_20_ARROWS

    def test_golden_12(self):
        S = minimal_abs(parse_polygon(golden.POLYGON_12))
        assert token_row(S) == golden.tokens(golden.S_12)
        assert S.arrow_images() == golden.S_12_ARROWS

    def test_equals_expansion_reference_h12(self):
        for poly in enumerate_polygons(12):
            S = minimal_abs(poly)
            R = minimal_abs_by_expansions(poly)
            assert S == R and hash(S) == hash(R), str(poly)

    def test_equals_expansion_reference_h13_h14(self):
        # Heights 13 and 14 exactly: every mix of up to five distinct periods
        # there, each one a case of the Fine-Wilf key width in _merge_order.
        checked = 0
        for poly in enumerate_polygons(14):
            if poly.height < 13:
                continue
            S = minimal_abs(poly)
            R = minimal_abs_by_expansions(poly)
            assert S == R and hash(S) == hash(R), str(poly)
            checked += 1
        assert checked == 4255

    def test_merge_keys_stay_narrow_with_many_distinct_heights(self):
        # Heights 4, 3, 5, 7, 11, 13, 17, 19, 23 (h = 102): their lcm is
        # 446,185,740, so keys over a common denominator 2^lcm - 1 would take
        # about 56 MB each.  Keys are at most h + 1 bits, checked before the merge.
        poly = parse_polygon("1,3+1,2+2,3+3,4+5,6+6,7+8,9+9,10+11,12")
        merged = sequences._merge_order([sequences._canonical_words((1,) * seg.m + (0,) * seg.n) for seg in poly.segments])
        assert max(key.bit_length() for key, _, _ in merged) <= poly.height + 1
        S = minimal_abs(poly)
        R = minimal_abs_by_expansions(poly)
        assert S == R and hash(S) == hash(R)

    def test_tie_between_distinct_segments_raises(self, monkeypatch):
        # Distinct coprime segments never share an expansion value, so the
        # tie is forced by giving every symbol the value 1/2: word 1 over the
        # denominator 2.  The patch replaces _canonical_words, the cached
        # function the merge keys are computed from; the memo of minimal_abs
        # is emptied first, so no cached sequence can stand in for the patch,
        # and again afterwards, so none built under the patch outlives it.
        minimal_abs.cache_clear()
        monkeypatch.setattr(sequences, "_canonical_words", lambda word: ((1, 2),) * len(word))
        try:
            tie = r"expansion tie 1/2 between distinct segments \(1, 2\) and \(1, 1\)"
            with pytest.raises(InternalCheckError, match=tie):
                minimal_abs(parse_polygon("1,2+1,1"))
            # equal segments ahead of the distinct one do not hide the tie
            with pytest.raises(InternalCheckError, match=tie):
                minimal_abs(parse_polygon("1,2+1,2+1,1"))
            # equal segments may share values: they are told apart by segment
            assert len(minimal_abs(parse_polygon("1,1+1,1"))) == 4
        finally:
            minimal_abs.cache_clear()

    def test_minimal_abs_is_admissible(self):
        for poly in enumerate_polygons(8):
            assert is_admissible(minimal_abs(poly))

    def test_separated_two_segment_closed_form(self):
        # For lambda_2 < 1/2 < lambda_1 the minimal order is the explicit
        # six-block word, so the length is n1*m2 - m1*n2.
        for poly in enumerate_polygons(12, min_z=2, max_z=2):
            (s1, s2) = poly.segments
            if not (s2.slope < Fraction(1, 2) < s1.slope):
                continue
            m1, n1, m2, n2 = s1.m, s1.n, s2.m, s2.n
            word = (
                [f"1^1_{i}" for i in range(1, m1 + 1)]
                + [f"0^1_{i}" for i in range(m1 + 1, n1 + 1)]
                + [f"1^2_{i}" for i in range(1, n2 + 1)]
                + [f"0^1_{i}" for i in range(n1 + 1, m1 + n1 + 1)]
                + [f"1^2_{i}" for i in range(n2 + 1, m2 + 1)]
                + [f"0^2_{i}" for i in range(m2 + 1, m2 + n2 + 1)]
            )
            S = minimal_abs(poly)
            assert token_row(S) == tuple(word)
            assert length(S) == n1 * m2 - m1 * n2

    def test_segment_ordering_of_first_and_last_symbols(self):
        # In the minimal sequence, earlier segments lead later ones at the
        # first 1, the first 0, and the last 0 of each segment.
        for poly in enumerate_polygons(8, min_z=2):
            S = minimal_abs(poly)
            for r in range(1, poly.z):
                for q in range(r + 1, poly.z + 1):
                    sr, sq = poly.segments[r - 1], poly.segments[q - 1]
                    if sr.m >= 1 and sq.m >= 1:
                        assert S.position(Symbol(r, 1, 1)) < S.position(Symbol(q, 1, 1))
                    if sr.n >= 1 and sq.n >= 1:
                        assert S.position(Symbol(r, sr.height, 0)) < S.position(
                            Symbol(q, sq.height, 0)
                        )
                        assert S.position(Symbol(r, sr.m + 1, 0)) < S.position(
                            Symbol(q, sq.m + 1, 0)
                        )


class TestMinimalAbsCache:
    def test_repeat_call_returns_the_same_object(self):
        first = minimal_abs(parse_polygon("2,5+3,2"))
        assert minimal_abs(parse_polygon("2,5+3,2")) is first

    def test_cached_equals_uncached_up_to_height_9(self):
        for poly in enumerate_polygons(9):
            assert minimal_abs(poly) == minimal_abs.__wrapped__(poly), str(poly)

    def test_bound_is_the_module_constant(self):
        assert minimal_abs.cache_info().maxsize == sequences.MINIMAL_ABS_CACHE_SIZE


class TestSegmentTables:
    def test_sequences_share_the_symbols_of_a_segment_slot(self):
        # Read through __wrapped__, so neither sequence comes from the memo of
        # minimal_abs, which may predate a clear of the segment tables.
        first = minimal_abs.__wrapped__(parse_polygon("1,2+2,1"))
        second = minimal_abs.__wrapped__(parse_polygon("1,2+3,1"))
        slot = [sorted((t for t in S.order if t.segment == 1), key=lambda t: t.position) for S in (first, second)]
        assert len(slot[0]) == 3
        assert all(a is b for a, b in zip(*slot, strict=True))

    def test_parts_are_tuples(self):
        symbols, arrows = sequences._segment_parts(2, 7, 1)
        assert type(symbols) is tuple and type(arrows) is tuple
        assert sequences._segment_parts(2, 7, 1)[0] is symbols
        assert minimal_abs_segment(2, 7).order is symbols

    def test_cold_tables_give_the_warm_sequence_up_to_h12(self):
        polygons = 0
        for poly in enumerate_polygons(12):
            polygons += 1
            sequences._segment_parts.cache_clear()
            cold = minimal_abs.__wrapped__(poly)
            warm = minimal_abs.__wrapped__(poly)
            assert cold.order == warm.order and cold.arrows == warm.arrows, str(poly)
            assert hash(cold) == hash(warm)
        assert polygons == 2679


class TestCanonicalBinarySequence:
    def test_round_trip_exhaustive(self):
        for h in range(1, 9):
            for bits in itertools.product((0, 1), repeat=h):
                assert to_binary_sequence(abs_from_binary_sequence(bits)) == bits

    def test_canonical_is_admissible(self):
        for h in range(1, 8):
            for bits in itertools.product((0, 1), repeat=h):
                assert is_admissible(abs_from_binary_sequence(bits))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            abs_from_binary_sequence((0, 2))
        with pytest.raises(ValueError):
            abs_from_binary_sequence(())


class TestAbsContainer:
    def test_position_and_symbol_at_agree(self):
        S = minimal_abs(parse_polygon("2,7+3,5"))
        for z, t in enumerate(S.order, start=1):
            assert S.position(t) == z and S.symbol_at(z) == t

    def test_lookup_errors(self):
        S = minimal_abs_segment(1, 1)
        ghost = Symbol(9, 9, 0)
        for op in (S.position, S.pi, S.pi_inverse, S.delta):
            with pytest.raises(SymbolNotInSequence):
                op(ghost)

    def test_duplicate_order_rejected(self):
        t = Symbol(1, 1, 0)
        with pytest.raises(ValueError):
            ABS([t, t], {t: t})

    def test_every_constructor_rejects_a_repeated_symbol(self):
        S = minimal_abs(parse_polygon("2,5+3,2"))
        twice = (S.order[0],) + S.order[1:-1] + (S.order[0],)
        with pytest.raises(ValueError, match="repeated"):
            ABS(twice, {t: t for t in S.order})
        with pytest.raises(ValueError, match="repeated"):
            ABS(twice, {t: t for t in twice})
        with pytest.raises(ValueError, match="repeated"):
            ABS.from_arrows(twice, S.arrows)
        data = abs_to_json(S)
        with pytest.raises(ValueError, match="repeated"):
            abs_from_json(
                {**data, "order": data["order"][:-1] + data["order"][:1], "delta": data["delta"][:-1] + data["delta"][:1]}
            )
        # A reordering of a checked order names positions, so a repeat is a
        # repeated position.
        ids = list(range(len(S)))
        with pytest.raises(ValueError, match="permute"):
            ABS._reordered(S.order, ids[:-1] + [0], S.arrows)

    def test_reordering_builds_its_positions_on_first_lookup(self):
        S = minimal_abs(parse_polygon("2,5+3,2"))
        ids = list(reversed(range(len(S))))
        R = ABS._reordered(S.order, ids, [len(S) + 1 - S.arrows[t] for t in ids])
        assert R._pos is None
        assert R == reordered(S, reversed(S.order))
        assert R._pos is None
        assert S.order[0] in R and R.position(S.order[0]) == len(S)
        assert R._pos is not None

    def test_pi_must_be_bijection_on_symbols(self):
        t, u, v = Symbol(1, 1, 0), Symbol(1, 2, 0), Symbol(1, 3, 0)
        with pytest.raises(ValueError):
            ABS([t, u], {t: t, u: t})
        # a symbol left out of pi, or one pi maps that is not in the order
        for pi in ({t: u}, {t: u, u: t, v: v}):
            with pytest.raises(ValueError, match="pi must be a bijection on exactly the ordered symbols"):
                ABS([t, u], pi)

    def test_reordered_keeps_pi(self):
        S = minimal_abs_segment(1, 2)
        R = reordered(S, reversed(S.order))
        assert R.order == tuple(reversed(S.order))
        for t in S.order:
            assert R.pi(t) == S.pi(t)

    @settings(max_examples=60)
    @given(polygons(max_height=10))
    def test_json_round_trip(self, poly):
        S = minimal_abs(poly)
        assert abs_from_json(abs_to_json(S)) == S

    @given(binary_words(10))
    def test_json_round_trip_canonical(self, bits):
        S = abs_from_binary_sequence(bits)
        assert abs_from_json(abs_to_json(S)) == S

    def test_json_positions_must_lie_in_range_once(self):
        data = abs_to_json(minimal_abs_segment(1, 1))  # pi: [[1, 2], [2, 1]]
        for pi in ([[0, 1], [1, 2]], [[1, 3], [2, 1]], [[1, 2], [1, 2]]):
            with pytest.raises(ValueError):
                abs_from_json({**data, "pi": pi})


class TestRender:
    def test_single_symbol(self):
        assert render_ascii(minimal_abs_segment(1, 0)) == "1^1_1\n1 -> 1"

    def test_row_then_arrow_lines(self):
        out = render_ascii(minimal_abs(parse_polygon(golden.POLYGON_12))).splitlines()
        assert out[0] == golden.S_12
        assert out[1:] == [
            f"{z} -> {image}" for z, image in enumerate(golden.S_12_ARROWS, start=1)
        ]
