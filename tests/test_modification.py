"""The modification cascade: stage traces, verdicts, and the order bridge."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

import golden
import reference
from conftest import tall_random_polygons
from stratabound import boundary, modification
from reference import (
    NONGENERIC_A_NEVER_EMPTY,
    a_members_from_previous,
    b_members_from_previous,
    expansion_sorted_length_bound,
)
from stratabound.errors import ContextTooLarge, InternalCheckError, InvalidPair, PreconditionViolated
from stratabound.modification import (
    GENERIC,
    NONGENERIC_B_NEVER_EMPTY,
    NONGENERIC_LENGTH_DROP,
    CensusRow,
    SmallModPair,
    _cascade,
    _inverse,
    construction_a,
    construction_b,
    eligible_pairs,
    full_modification,
    modification_census,
    parse_pair,
    render_trace_ascii,
    small_modification,
    specialization_to_weyl,
    trace_to_json,
)
from stratabound.newton import enumerate_polygons, parse_polygon, validate
from stratabound.sequences import (
    ABS,
    Symbol,
    binary_expansion,
    id_tables,
    is_admissible,
    length,
    minimal_abs,
    to_binary_sequence,
    word_length,
)
from stratabound.weyl import (
    JWContext,
    Permutation,
    binary_to_jw,
    bruhat_leq,
    coxeter_length,
    specializes,
    theta,
)


def make_trace(polygon: str, pair: str):
    S = minimal_abs(parse_polygon(polygon))
    return full_modification(S, parse_pair(pair))


def stages_by_global(trace):
    """Map global stage number -> stage (B-stage 0 shares the last A-order)."""
    out = {}
    for st in trace.a_stages():
        out[st.index] = st
    for st in trace.b_stages():
        if st.index == 0:
            continue
        out[trace.a + st.index] = st
    return out


def assert_stage_sequence(sequence, token_row, arrows):
    assert tuple(t.token for t in sequence.order) == golden.tokens(token_row)
    assert sequence.arrow_images() == arrows


def check_golden_trace(spec: dict):
    trace = make_trace(spec["polygon"], spec["pair"])
    assert trace.a == spec["a"]
    assert trace.b == spec["b"]
    assert trace.verdict == spec["verdict"]
    assert (length(trace.source), length(trace.result)) == spec["lengths"]

    world = stages_by_global(trace)
    for k, row in spec["stage_orders"].items():
        assert_stage_sequence(world[k].sequence, row, spec["stage_arrows"][k])

    a_sets = {n: {t.token for t in members} for n, members in trace.a_sets().items()}
    assert a_sets == {n: set(v) for n, v in spec["a_sets"].items()}
    b_sets = {n: {t.token for t in members} for n, members in trace.b_sets().items()}
    assert b_sets == {n: set(v) for n, v in spec["b_sets"].items()}
    for n, token in spec["b_markers"].items():
        (stage,) = [s for s in trace.b_stages() if s.index == n]
        assert stage.marker.token == token
    return trace


class TestGoldenTraces:
    def test_trace_17(self):
        trace = check_golden_trace(golden.TRACE_17)
        assert_stage_sequence(trace.result, golden.SPRIME_17, golden.SPRIME_17_ARROWS)

    def test_trace_20(self):
        trace = check_golden_trace(golden.TRACE_20)
        assert_stage_sequence(trace.result, golden.SPRIME_20, golden.SPRIME_20_ARROWS)

    def test_trace_12(self):
        trace = check_golden_trace(golden.TRACE_12)
        assert_stage_sequence(trace.result, golden.SPRIME_12, golden.SPRIME_12_ARROWS)

    def test_small_modification_is_stage_zero(self):
        for spec in (golden.TRACE_17, golden.TRACE_20):
            S = minimal_abs(parse_polygon(spec["polygon"]))
            small = small_modification(S, parse_pair(spec["pair"]))
            assert_stage_sequence(small, spec["stage_orders"][0], spec["stage_arrows"][0])

    def test_render_mentions_every_stage(self):
        trace = make_trace(golden.POLYGON_17, golden.PAIR_17)
        text = render_trace_ascii(trace)
        assert "verdict: Generic" in text
        assert "a = 1" in text and "b = 2" in text
        assert "lengths: 11 -> 10" in text


class TestPairs:
    def test_parse_round_trip(self):
        pair = parse_pair("0:1:4,1:2:2")
        assert pair.spec == "0:1:4,1:2:2"
        assert pair.zero == Symbol(1, 4, 0)
        assert pair.one == Symbol(2, 2, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "0:1:4",
            "1:2:2,0:1:4",
            "0:1:4,0:2:2",
            "0:a:4,1:2:2",
            "0:1:4;1:2:2",
            "0:1:\u0663,1:2:1",
            pytest.param("0:1:" + "9" * 5000 + ",1:2:1", id="5000-digits"),
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidPair):
            parse_pair(text)

    def test_constructor_checks_labels(self):
        with pytest.raises(InvalidPair):
            SmallModPair(Symbol(1, 1, 1), Symbol(2, 1, 1))
        with pytest.raises(InvalidPair):
            SmallModPair(Symbol(1, 1, 0), Symbol(2, 1, 0))

    def test_reversed_positions_rejected(self):
        # 0^2_4 sits after 1^2_3 in the minimal order for 2,5+3,2.
        S = minimal_abs(parse_polygon("2,5+3,2"))
        with pytest.raises(InvalidPair):
            small_modification(S, parse_pair("0:2:4,1:2:3"))

    def test_eligible_pairs_match_cross_pairs(self):
        for poly in enumerate_polygons(6):
            S = minimal_abs(poly)
            expected = length(S)
            assert len(eligible_pairs(S)) == expected
            for pair in eligible_pairs(S, adjacent_only=True):
                assert pair.one.segment == pair.zero.segment + 1

    def test_eligible_pairs_are_every_zero_before_one_up_to_h10(self):
        for poly in enumerate_polygons(10):
            S = minimal_abs(poly)
            every = [SmallModPair(t0, t1) for t0, t1 in itertools.combinations(S.order, 2) if (t0.label, t1.label) == (0, 1)]
            every.sort(key=SmallModPair.sort_key)
            assert eligible_pairs(S) == tuple(every), str(poly)
            adjacent = tuple(pair for pair in every if pair.one.segment == pair.zero.segment + 1)
            assert eligible_pairs(S, adjacent_only=True) == adjacent, str(poly)

    def test_eligible_pairs_sorted(self):
        S = minimal_abs(parse_polygon("2,5+3,2"))
        keys = [p.sort_key() for p in eligible_pairs(S)]
        assert keys == sorted(keys)


class TestPhases:
    def test_b_phase_requires_completed_a(self):
        S = minimal_abs(parse_polygon("2,5+3,2"))
        pair = parse_pair("0:1:4,1:2:2")
        partial = construction_a(S, pair)
        done = construction_b(partial)
        with pytest.raises(PreconditionViolated):
            construction_b(done)

    def test_every_move_meets_its_precondition_up_to_h9(self):
        # Each move carries stage n + 1's marker, pi of stage n's, to just
        # after (A) or just before (B) pi of the member that steers it, the
        # last of A_n or the first of B_n.  Read off the recorded stages: the
        # moved id sits strictly before (A) or after (B) that target in
        # stage n's order, and stage n + 1's order is stage n's with that one
        # move made.
        moves = Counter()
        for poly in enumerate_polygons(9):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                trace = full_modification(S, pair)
                pi = trace.ids[0]
                for stage, nxt in zip(trace.stages, trace.stages[1:]):
                    if nxt.kind != stage.kind:
                        continue
                    where = (str(poly), pair.spec, stage.kind, stage.index)
                    sym = nxt.marker_id
                    assert sym == pi[stage.marker_id], where
                    members = stage.member_ids
                    target = pi[members[-1] if stage.kind == "A" else members[0]]
                    order = list(stage.order)
                    here, there = order.index(sym), order.index(target)
                    assert here < there if stage.kind == "A" else there < here, where
                    order.remove(sym)
                    order.insert(order.index(target) + (stage.kind == "A"), sym)
                    assert tuple(order) == nxt.order, where
                    moves[stage.kind] += 1
        # every stage but each phase's first follows a move: 7118 A and 10236 B stages in 4054 traces
        assert moves == {"A": 7118 - 4054, "B": 10236 - 4054}

    def test_a_phase_cycle_hits_the_stage_cap(self):
        # Synthetic tables whose A-phase, started from id 1, returns to its
        # first state: the A-phase keeps no state set, so the h^2 cap is what
        # stops it.
        with pytest.raises(InternalCheckError, match="A-phase exceeded the stage cap"):
            _cascade(([1, 0, 2], [1, 1, 0], [2, 2, 1]), 0, 1, None)

    def test_full_equals_a_then_b(self):
        S = minimal_abs(parse_polygon("2,7+3,5"))
        pair = parse_pair("0:1:4,1:2:2")
        via_full = full_modification(S, pair)
        partial = construction_a(S, pair)
        assert partial.small == small_modification(S, pair)
        via_phases = construction_b(partial)
        assert via_full == via_phases

    def test_one_pass_equals_split_phases_up_to_h10(self):
        # The split API reads full_modification's one pass: the partial is
        # the full trace cut after stage a, with b and the verdict unset, and
        # completing it gives the full trace.  Same phase stage totals as the
        # traced census counted.
        kinds = Counter()
        traces = 0
        for poly in enumerate_polygons(10):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                where = (str(poly), pair.spec)
                got = full_modification(S, pair)
                partial = construction_a(S, pair)
                assert partial.b is None and partial.verdict is None, where
                assert partial.a == got.a, where
                assert partial.id_stages == got.id_stages[: got.a + 1], where
                want = construction_b(partial)
                assert got == want, where
                assert got.ids == want.ids, where
                kinds.update(stage[0] for stage in got.id_stages)
                traces += 1
        assert traces == 8726
        assert kinds == {"A": 16108, "B": 23519}

    def test_one_pass_builds_one_trace_and_no_inverse(self, monkeypatch):
        # The B-phase reuses the A-phase's positions, so no inverse is
        # rebuilt, and only the full trace is built.
        def refuse(order):
            raise AssertionError("full_modification rebuilt a position array")

        built = []
        trace_type = modification.ModificationTrace

        def counted(*args):
            built.append(args)
            return trace_type(*args)

        monkeypatch.setattr(modification, "_inverse", refuse)
        monkeypatch.setattr(modification, "ModificationTrace", counted)
        calls = 0
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                built.clear()
                trace = full_modification(S, pair)
                assert len(built) == 1 and trace.verdict is not None, (str(poly), pair.spec)
                calls += 1
        assert calls == 1794
        with pytest.raises(AssertionError, match="position array"):
            trace.result

    def test_inverse_lists_positions(self):
        for h in range(7):
            for order in itertools.permutations(range(h)):
                pos = _inverse(order)
                assert [order[z] for z in pos] == list(range(h))


def assert_matches_reference(S, pair, where):
    """The integer cascade against the positional ABS-based one (tests/reference.py), stage by stage.

    Returns the integer cascade's trace.
    """
    got = full_modification(S, pair)
    want = reference.full_modification(S, pair)
    assert (got.a, got.b, got.verdict) == (want.a, want.b, want.verdict), where
    # read before any stage or sequence is built
    want_type = to_binary_sequence(want.result) if want.result is not None else None
    assert got.result_type == want_type, where
    assert got.small == want.small, where
    assert len(got.stages) == len(want.stages), where
    for mine, ref in zip(got.stages, want.stages):
        assert (mine.kind, mine.index, mine.marker, mine.members) == (
            ref.kind,
            ref.index,
            ref.marker,
            ref.members,
        ), where
        assert mine.sequence.order == ref.sequence.order, where
        assert mine.sequence == ref.sequence, where
    assert got.result == want.result, where
    return got


def random_polygon(rng, min_height, max_height, max_segments):
    """A polygon of 1..max_segments coprime segments with m, n <= 9, drawn until its height lies in range."""
    while True:
        segments = []
        for _ in range(rng.randint(1, max_segments)):
            m, n = rng.randint(0, 9), rng.randint(0, 9)
            if math.gcd(m, n) == 1:
                segments.append((m, n))
        height = sum(m + n for m, n in segments)
        if min_height <= height <= max_height:
            # non-increasing slope n / (m + n); equal slopes are equal coprime segments
            return validate(sorted(segments, key=lambda s: Fraction(s[1], s[0] + s[1]), reverse=True))


class TestReferenceCascade:
    def test_agrees_with_positional_reference_exhaustively(self):
        # Every eligible pair up to h = 9.
        traces = 0
        for poly in enumerate_polygons(9):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                traces += 1
                assert_matches_reference(S, pair, (str(poly), pair.spec))
        assert traces == 4054

    def test_agrees_with_positional_reference_on_taller_polygons(self):
        # A seeded sample beyond the exhaustive range: one adjacent pair on each
        # of 60 polygons of height 14-30 with up to four segments.
        rng = random.Random(17)
        heights, verdicts = Counter(), Counter()
        sampled = 0
        while sampled < 60:
            poly = random_polygon(rng, 14, 30, 4)
            S = minimal_abs(poly)
            pairs = eligible_pairs(S, adjacent_only=True)
            if not pairs:
                continue
            pair = rng.choice(pairs)
            trace = assert_matches_reference(S, pair, (str(poly), pair.spec))
            heights[poly.height] += 1
            verdicts[trace.verdict] += 1
            sampled += 1
        assert min(heights) >= 14 and max(heights) <= 30
        # the never-empty cycle key is reached too
        assert set(verdicts) == {GENERIC, NONGENERIC_LENGTH_DROP, NONGENERIC_B_NEVER_EMPTY}, verdicts

    def test_census_traces_are_pinned(self):
        # Every trace at h <= 10, ids and all, as computed before the kernel
        # read its tables off the source and followed the marker by pi, and
        # while every stage still kept its whole member set: the sets read
        # on demand hash the same as those the kernel once built.
        digest = hashlib.blake2b(digest_size=16)
        verdicts = Counter()
        for poly in enumerate_polygons(10):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                t = full_modification(S, pair)
                verdicts[t.verdict] += 1
                stages = tuple((s.kind, s.index, s.order, s.marker_id, s.member_ids) for s in t.stages)
                digest.update(f"{poly}|{pair.spec}|{t.a}|{t.b}|{t.verdict}|{stages!r}\n".encode())
        assert verdicts == {GENERIC: 3961, NONGENERIC_LENGTH_DROP: 3668, NONGENERIC_B_NEVER_EMPTY: 1097}
        assert digest.hexdigest() == "3c41a163aaa0b73b3df59cf30045f513"

    def test_pairs_leave_the_source_tables_unchanged(self):
        # Each pair copies the source's cached id tables before swapping two
        # entries; the cache itself must stay the source's own.
        S = minimal_abs(parse_polygon("2,7+3,5"))
        source = ABS.from_arrows(S.order, S.arrows)
        first, second = eligible_pairs(source)[:2]
        traces = [full_modification(source, first), full_modification(source, second)]
        assert id_tables(source) == id_tables(ABS.from_arrows(S.order, S.arrows))
        for pair, trace in zip((first, second), traces):
            fresh = full_modification(ABS.from_arrows(S.order, S.arrows), pair)
            assert trace.id_stages == fresh.id_stages and trace.verdict == fresh.verdict

    def test_stage_views_equal_rebuilt_sequences(self):
        for spec in (golden.TRACE_12, golden.TRACE_17, golden.TRACE_20):
            trace = make_trace(spec["polygon"], spec["pair"])
            for stage in trace.stages:
                view = stage.sequence
                rebuilt = ABS(view.order, {t: view.pi(t) for t in view.order})
                assert view == rebuilt and rebuilt == view
                assert hash(view) == hash(rebuilt)
                assert view.arrow_images() == rebuilt.arrow_images()
            assert trace.result is trace.stages[-1].sequence

    def test_result_type_is_the_type_of_the_result(self):
        traces = results = 0
        for poly in enumerate_polygons(10):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                trace = full_modification(S, pair)
                traces += 1
                if trace.result is None:
                    assert trace.result_type is None
                    continue
                results += 1
                assert trace.result_type == to_binary_sequence(trace.result), (str(poly), pair.spec)
        assert traces == 8726 and 0 < results < traces

    def test_boundary_set_builds_no_sequence_beyond_the_minimal_one(self, monkeypatch):
        # A cold boundary_set reads verdicts and result types off the ids:
        # the one sequence it builds is minimal_abs's.
        built = []
        init = ABS._init

        def counted(self, order, arrows, pos):
            built.append(order)
            init(self, order, arrows, pos)

        polygon = parse_polygon("2,7+3,5")
        monkeypatch.setattr(ABS, "_init", counted)
        boundary.boundary_set.cache_clear()
        minimal_abs.cache_clear()
        bset = boundary.boundary_set(polygon)
        assert len(bset.elements) == 6
        assert built == [minimal_abs(polygon).order]

    def test_golden_stages_hash_by_value(self):
        # Every stage hashes, and two fresh traces of one pair have equal stages with equal hashes.
        for spec in (golden.TRACE_12, golden.TRACE_17, golden.TRACE_20):
            first, second = (make_trace(spec["polygon"], spec["pair"]) for _ in range(2))
            assert first.stages == second.stages
            assert [hash(s) for s in first.stages] == [hash(s) for s in second.stages]
            assert first == second and hash(first) == hash(second)

    @pytest.mark.parametrize("result_first", [True, False], ids=["result-first", "stages-first"])
    def test_result_is_the_last_stage_in_either_read_order(self, result_first):
        # The result against a rebuild from scratch: the symbol-keyed
        # reference small modification's symbols in the final id order,
        # through the symbol-keyed constructor.
        traces = results = 0
        for poly in enumerate_polygons(9):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                trace = full_modification(S, pair)
                traces += 1
                if result_first:
                    result, stages = trace.result, trace.stages
                else:
                    stages, result = trace.stages, trace.result
                assert result is trace.result and stages is trace.stages
                if trace.b is None:
                    assert result is None
                    continue
                results += 1
                small = reference.small_modification(S, pair)
                assert trace.small == small
                order = [small.order[t] for t in trace.id_stages[-1][2]]
                assert result is stages[-1].sequence, (str(poly), pair.spec)
                assert result == ABS(order, {t: small.pi(t) for t in small.order}), (str(poly), pair.spec)
        assert traces == 4054 and 0 < results < traces

    def test_trace_reads_never_build_the_small_modification(self, monkeypatch):
        def refuse(S, pair):
            raise AssertionError("a trace read rebuilt the small modification")

        monkeypatch.setattr(modification, "small_modification", refuse)
        stages = 0
        for poly, pair, trace in all_traces(8):
            trace.result, trace.small
            render_trace_ascii(trace), trace_to_json(trace)
            for stage in trace.stages:
                stage.marker, stage.members, stage.sequence
                stages += 1
        assert stages > 0

    def test_trace_reads_compute_no_member_set(self, monkeypatch):
        # The cascade steers each stage by one member; the verdict, the
        # result and the stage count never need a whole set.
        def refuse(stage):
            raise AssertionError("a trace read computed a stage's member set")

        monkeypatch.setattr(modification.Stage, "member_ids", property(refuse))
        stages = 0
        for poly, pair, trace in all_traces(8):
            trace.verdict, trace.result_type, trace.result
            stages += len(trace.stages)
        assert stages > 0
        with pytest.raises(AssertionError, match="member set"):
            trace.stages[0].members

    def test_view_rejects_repeated_symbols(self):
        S = minimal_abs(parse_polygon("2,5+3,2"))
        with pytest.raises(ValueError):
            ABS.from_arrows((S.order[0],) * len(S), S.arrows)
        with pytest.raises(ValueError):
            ABS.from_arrows(S.order[1:], S.arrows)

    def test_small_modification_equals_symbol_keyed_reference(self):
        # Swapping two entries of the order and of the arrows against the
        # sigma-after-pi rewiring of a symbol-keyed bijection, every pair up to h = 8.
        pairs = 0
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S):
                pairs += 1
                got = small_modification(S, pair)
                want = reference.small_modification(S, pair)
                where = (str(poly), pair.spec)
                assert got.order == want.order, where
                assert got.arrow_images() == want.arrow_images(), where
                assert got == want and want == got, where
                assert hash(got) == hash(want), where
        assert pairs == 1794


def all_traces(max_height):
    for poly in enumerate_polygons(max_height):
        S = minimal_abs(poly)
        for pair in eligible_pairs(S):
            yield poly, pair, full_modification(S, pair)


class TestStageRecursions:
    def a_divergences(self, trace):
        q = trace.pair.one.segment
        stages = trace.a_stages()
        out = []
        for prev, cur in zip(stages, stages[1:]):
            predicted = a_members_from_previous(trace.small, prev.members, cur.marker, q)
            if predicted != frozenset(cur.members):
                out.append((cur.index, predicted, frozenset(cur.members)))
        return out

    def test_a_shortcut_matches_on_adjacent_pairs(self):
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            for pair in eligible_pairs(S, adjacent_only=True):
                trace = full_modification(S, pair)
                assert not self.a_divergences(trace), (str(poly), pair.spec)

    @pytest.mark.xfail(
        strict=True,
        reason="one-step A-set prediction diverges from the positional definition "
        "on non-adjacent pairs whose marker orbit wraps early (first at h = 8)",
    )
    def test_a_shortcut_matches_everywhere(self):
        for _poly, _pair, trace in all_traces(8):
            assert not self.a_divergences(trace)

    def test_a_shortcut_divergence_witness(self):
        # Pinned counterexample: both pair symbols are arrow-fixed before the
        # swap, so the marker orbit has period 2 and wraps immediately.
        S = minimal_abs(parse_polygon("0,1+0,1+0,1+0,1+0,1+1,1+1,0"))
        pair = parse_pair("0:1:1,1:7:1")
        trace = full_modification(S, pair)
        stages = trace.a_stages()
        assert {t.token for t in stages[0].members} == {
            "0^2_1",
            "0^3_1",
            "0^4_1",
            "0^5_1",
            "0^6_2",
        }
        predicted = a_members_from_previous(
            trace.small, stages[0].members, stages[1].marker, pair.one.segment
        )
        assert {t.token for t in predicted} == {"1^6_1"}
        assert stages[1].members == ()  # the positional definition disagrees
        assert trace.verdict == NONGENERIC_LENGTH_DROP

    def test_b_shortcut_matches_everywhere(self):
        for _poly, _pair, trace in all_traces(8):
            stages = trace.b_stages()
            for prev, cur in zip(stages, stages[1:]):
                predicted = b_members_from_previous(trace.small, prev.members, cur.marker)
                assert predicted == frozenset(cur.members)

    def test_member_counts_never_grow(self):
        for _poly, _pair, trace in all_traces(7):
            for stages in (trace.a_stages(), trace.b_stages()):
                sizes = [len(s.members) for s in stages]
                assert all(x >= y for x, y in zip(sizes, sizes[1:]))

    def test_a_markers_never_rejoin_members(self):
        # A-side only: B-side markers can re-enter later member sets once the
        # orbit wraps (e.g. 5(0,1)+(2,1), pair 0:1:1,1:5:2 at B-stage 2).
        for _poly, _pair, trace in all_traces(7):
            seen = set()
            for stage in trace.a_stages():
                seen.add(stage.marker)
                assert not seen & set(stage.members)


class TestVerdicts:
    def test_census_height_5(self):
        rows = modification_census(5)
        assert len(rows) == 100
        counts = Counter(row.verdict for row in rows)
        assert counts == {
            GENERIC: 81,
            NONGENERIC_LENGTH_DROP: 11,
            NONGENERIC_B_NEVER_EMPTY: 8,
        }

    def test_census_rows_carry_segments(self):
        row = CensusRow("2,5+3,2", "0:1:4,1:2:2", GENERIC, 1, 2)
        assert row.adjacent
        assert not CensusRow("x", "y", GENERIC, 1, 3).adjacent

    def test_renaming_adjacent_uses_blocks_of_equal_segments(self):
        def row(polygon, r, q):
            return CensusRow(polygon, "-", GENERIC, r, q)

        assert row("0,1+0,1+1,0", 1, 3).renaming_adjacent()  # rename 1 <-> 2
        assert row("0,1+0,1+1,0", 1, 2).renaming_adjacent()
        assert not row("0,1+1,1+1,0", 1, 3).renaming_adjacent()
        assert not row("0,1+0,1+1,0", 2, 2).renaming_adjacent()
        assert not row("0,1+0,1+1,0", 3, 1).renaming_adjacent()
        # two blocks of two: segments 1-2 and 3-4 are equal within each block
        blocks = "0,1+0,1+1,1+1,1+1,0"
        for r, q in ((2, 3), (1, 4), (3, 4), (4, 3)):
            assert row(blocks, r, q).renaming_adjacent(), (r, q)
        for r, q in ((4, 1), (1, 5), (2, 5)):
            assert not row(blocks, r, q).renaming_adjacent(), (r, q)

    def test_generic_drop_is_one(self):
        for _poly, _pair, trace in all_traces(7):
            if trace.verdict == GENERIC:
                assert length(trace.source) - length(trace.result) == 1
            elif trace.verdict == NONGENERIC_LENGTH_DROP:
                assert length(trace.source) - length(trace.result) >= 2

    def test_positional_length_is_the_result_length_up_to_h10(self):
        # full_modification reads the result's length off its final
        # positions: a 1 at 0-based position z has z - (the 1s before it) 0s
        # before it, so the length is the 1s' positions summed less
        # 0 + 1 + ... + (m - 1).  Here against the result type's own count,
        # and the verdict against the drop that count gives.
        results = 0
        for poly, pair, trace in all_traces(10):
            if trace.b is None:
                continue
            where = (str(poly), pair.spec)
            label, pos = trace.ids[1], _inverse(trace.id_stages[-1][2])
            m = sum(label)
            after = word_length(trace.result_type)
            assert sum(map(mul, label, pos)) - m * (m - 1) // 2 == after, where
            drop = length(trace.source) - after
            assert trace.verdict == (GENERIC if drop == 1 else NONGENERIC_LENGTH_DROP), where
            results += 1
        assert results == 7629

    def test_a_raised_length_is_an_internal_error(self, monkeypatch):
        # No cascade raises the length; a source length that under-reports
        # makes the result look longer, and the guard fires.
        S = minimal_abs(parse_polygon("2,7+3,5"))
        after = length(S) - 1  # this pair is generic
        monkeypatch.setattr(modification, "length", lambda S: 0)
        with pytest.raises(InternalCheckError, match=rf"full modification raised the length \(0 -> {after}\)"):
            full_modification(S, parse_pair("0:1:4,1:2:2"))

    def test_never_empty_traces_cannot_reach_codimension_one(self):
        # If some order of the small modification reached l(S) - 1, the
        # cascade would have terminated; the sorted-order bound certifies it.
        hits = 0
        for _poly, _pair, trace in all_traces(8):
            if trace.verdict in (NONGENERIC_A_NEVER_EMPTY, NONGENERIC_B_NEVER_EMPTY):
                hits += 1
                assert expansion_sorted_length_bound(trace.small) < length(trace.source) - 1
        assert hits == 221

    def test_no_a_phase_cycles_up_to_h11(self):
        # Every 0-before-1 pair, not only adjacent ones: no A-phase repeats
        # its state, in the integer kernel or in the positional reference,
        # and none even walks its marker's whole pi-orbit.
        traces = 0
        for poly, pair, trace in all_traces(11):
            traces += 1
            small = reference.small_modification(trace.source, pair)
            ref = reference.construction_a(small, pair, source=trace.source)
            assert NONGENERIC_A_NEVER_EMPTY not in (trace.verdict, ref.verdict), (str(poly), pair.spec)
            pi, marker = trace.ids[0], trace.swap[1]
            orbit = 1
            t = pi[marker]
            while t != marker:
                t = pi[t]
                orbit += 1
            assert trace.a < orbit, (str(poly), pair.spec)
        assert traces == 18030

    @pytest.mark.xfail(
        strict=True,
        reason="generic verdicts occur for distant pairs once identical segments "
        "repeat; adjacency only holds up to renaming equal segments",
    )
    def test_generic_implies_literally_adjacent(self):
        for row in modification_census(8):
            if row.verdict == GENERIC:
                assert row.adjacent

    def test_generic_implies_adjacent_after_renaming(self):
        # Identical segments (equal coprime pairs) can be renamed by an
        # automorphism of the sequence, so adjacency is only well defined on
        # blocks of equal segments: the pair must admit SOME renaming with
        # q = r + 1. The converse fails (renameable distant pairs may still be
        # non-generic), so only the forward implication is asserted.
        for row in modification_census(8):
            if row.verdict != GENERIC:
                continue
            assert row.zero_segment != row.one_segment
            assert row.renaming_adjacent(), (row.polygon, row.pair)

    @pytest.mark.xfail(
        strict=True,
        reason="an early 0-member from a deeper segment does not force a "
        "non-generic verdict when the marker orbit leaves its home segment",
    )
    def test_deep_zero_members_force_nongeneric(self):
        for _poly, pair, trace in all_traces(8):
            a0 = trace.a_stages()[0].members
            if any(t.label == 0 and t.segment > pair.zero.segment for t in a0):
                assert trace.verdict != GENERIC

    def test_deep_zero_member_generic_witness(self):
        S = minimal_abs(parse_polygon("0,1+0,1+0,1+0,1+0,1+0,1+0,1+1,0"))
        trace = full_modification(S, parse_pair("0:1:1,1:8:1"))
        a0 = trace.a_stages()[0].members
        assert {t.token for t in a0} == {f"0^{x}_1" for x in range(2, 8)}
        assert all(t.segment > 1 for t in a0)
        assert trace.verdict == GENERIC
        assert (trace.a, trace.b) == (1, 0)


class TestResultContracts:
    def test_results_are_admissible_and_expansion_sorted(self):
        for _poly, _pair, trace in all_traces(7):
            if trace.result is None:
                continue
            assert is_admissible(trace.result)
            values = [binary_expansion(trace.result, t).value for t in trace.result.order]
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_result_keeps_symbol_set(self):
        for _poly, _pair, trace in all_traces(6):
            if trace.result is not None:
                assert set(trace.result.order) == set(trace.source.order)

    def test_expansion_bound_on_golden(self):
        S = minimal_abs(parse_polygon(golden.POLYGON_17))
        small = small_modification(S, parse_pair(golden.PAIR_17))
        assert expansion_sorted_length_bound(small) >= length(S) - 1


class TestWeylBridge:
    def test_golden_specialization(self):
        for spec in (golden.TRACE_17, golden.TRACE_12):
            poly = parse_polygon(spec["polygon"])
            trace = make_trace(spec["polygon"], spec["pair"])
            ctx = JWContext.for_polygon(poly)
            w_prime, u, eps = specialization_to_weyl(trace, ctx)
            assert w_prime == binary_to_jw(to_binary_sequence(trace.result), ctx)
            w = binary_to_jw(to_binary_sequence(trace.source), ctx)
            if ctx.h <= 12:  # h=17: test_golden_specialization_h17
                assert specializes(w_prime, w, ctx)
            # u really is the block-subgroup conjugator: eps = x u x^-1.
            from stratabound.weyl import x_element

            x = x_element(ctx)
            assert x * u * x.inverse() == eps

    def test_golden_specialization_h17(self):
        # The budget caps search nodes, not |W_J| = 5! 12!: the default budget
        # suffices, and a budget below the h rows any witness needs raises.
        poly = parse_polygon(golden.POLYGON_17)
        trace = make_trace(golden.POLYGON_17, golden.PAIR_17)
        ctx = JWContext.for_polygon(poly)
        w_prime, _, _ = specialization_to_weyl(trace, ctx)
        w = binary_to_jw(to_binary_sequence(trace.source), ctx)
        assert specializes(w_prime, w, ctx, budget=math.factorial(5) * math.factorial(12))
        assert specializes(w_prime, w, ctx)
        with pytest.raises(ContextTooLarge):
            specializes(w_prime, w, ctx, budget=ctx.h - 1)

    @staticmethod
    def assert_cocover(trace, ctx, w):
        """v = u^-1 w' theta(u) is a Bruhat cocover of w, and w' represents the result type."""
        w_prime, u, _ = specialization_to_weyl(trace, ctx)
        v = u.inverse() * w_prime * theta(u, ctx)
        where = (str(trace.source), trace.pair.spec)
        assert bruhat_leq(v, w), where
        assert coxeter_length(v) == coxeter_length(w) - 1, where
        assert w_prime == binary_to_jw(trace.result_type, ctx), where

    def assert_generic_cocovers(self, polygons, adjacent_only=False):
        """assert_cocover on every generic trace of the polygons' pairs (adjacent ones only if asked); returns their number."""
        generic = 0
        for poly in polygons:
            S = minimal_abs(poly)
            ctx = JWContext.for_polygon(poly)
            w = binary_to_jw(to_binary_sequence(S), ctx)
            for pair in eligible_pairs(S, adjacent_only):
                trace = full_modification(S, pair)
                if trace.verdict == GENERIC:
                    self.assert_cocover(trace, ctx, w)
                    generic += 1
        return generic

    def test_every_generic_trace_gives_a_cocover(self):
        # B inside the oracle from cascade code alone: every generic trace of
        # every pair up to h = 10, not only the adjacent ones.
        assert self.assert_generic_cocovers(enumerate_polygons(10)) == 3961

    def test_every_generic_trace_gives_a_cocover_up_to_h11(self):
        assert self.assert_generic_cocovers(enumerate_polygons(11)) == 7409

    def test_every_generic_adjacent_trace_of_tall_random_polygons_gives_a_cocover(self):
        # The 60 seeded polygons of height 20-55 on which boundary_set is
        # checked against the oracle: each generic trace there carries its own u.
        assert self.assert_generic_cocovers(tall_random_polygons(), adjacent_only=True) == 671

    def test_golden_traces_give_cocovers(self):
        # The 20-symbol trace drops the length by more than one and still passes.
        for spec in (golden.TRACE_12, golden.TRACE_17, golden.TRACE_20):
            poly = parse_polygon(spec["polygon"])
            trace = make_trace(spec["polygon"], spec["pair"])
            ctx = JWContext.for_polygon(poly)
            self.assert_cocover(trace, ctx, binary_to_jw(to_binary_sequence(trace.source), ctx))

    def test_position_conjugation_identity(self):
        trace = make_trace(golden.POLYGON_12, golden.PAIR_12)
        S = trace.source
        h = len(S)
        p_source = Permutation(S.arrow_images())
        s = Permutation.transposition(
            h, S.position(trace.pair.zero), S.position(trace.pair.one)
        )
        _, _, eps = specialization_to_weyl(trace, JWContext.for_polygon(parse_polygon(golden.POLYGON_12)))
        p_result = Permutation(trace.result.arrow_images())
        assert p_result == eps * (p_source * s) * eps.inverse()

    def test_incomplete_trace_rejected(self):
        S = minimal_abs(parse_polygon("2,5+3,2"))
        pair = parse_pair("0:1:4,1:2:2")
        partial = construction_a(S, pair)
        with pytest.raises(PreconditionViolated):
            specialization_to_weyl(partial, JWContext(h=12, c=5))

    def test_block_split_checked(self):
        # A generic trace whose last order is reversed: its reorder
        # permutation sends the block {1..d} onto the last d positions.
        trace = make_trace(golden.POLYGON_12, golden.PAIR_12)
        kind, n, order, marker, exclude = trace.id_stages[-1]
        stages = trace.id_stages[:-1] + ((kind, n, order[::-1], marker, exclude),)
        reversed_trace = modification.ModificationTrace(
            trace.source, trace.pair, trace.swap, trace.ids, stages, trace.a, trace.b, trace.verdict
        )
        ctx = JWContext.for_polygon(parse_polygon(golden.POLYGON_12))
        assert 0 < ctx.d < ctx.h
        with pytest.raises(PreconditionViolated, match="does not preserve the block split"):
            specialization_to_weyl(reversed_trace, ctx)

    def test_context_degree_checked(self):
        trace = make_trace(golden.POLYGON_12, golden.PAIR_12)
        with pytest.raises(PreconditionViolated):
            specialization_to_weyl(trace, JWContext(h=5, c=2))


class TestJson:
    def test_shape_and_global_indices(self):
        trace = make_trace(golden.POLYGON_17, golden.PAIR_17)
        payload = trace_to_json(trace)
        assert payload["pair"] == golden.PAIR_17
        assert payload["a"] == 1 and payload["b"] == 2
        assert payload["verdict"] == GENERIC
        assert payload["lengths"] == {"source": 11, "result": 10}
        globals_seen = [
            st["global_index"] for st in payload["stages"] if st["kind"] == "B"
        ]
        assert globals_seen == [1, 2, 3]

    def test_incomplete_trace_serializes(self):
        S = minimal_abs(parse_polygon("2,5+3,2"))
        pair = parse_pair("0:1:4,1:2:2")
        partial = construction_a(S, pair)
        payload = trace_to_json(partial)
        assert payload["result"] is None
        assert payload["lengths"]["result"] is None
