"""Boundary sets and the three cross-validation reports."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

import golden
import pin_boundary_types
from conftest import tall_random_polygons
from reference import duality_map_by_conjugation
from stratabound import boundary
from stratabound.boundary import (
    BOUNDARY_CACHE_SIZE,
    BoundaryElement,
    BoundarySet,
    Report,
    boundary_set,
    boundary_set_oracle,
    duality_map_type,
    verify_curtailment,
    verify_direct_sum,
    verify_duality,
)
from stratabound.errors import DimensionMismatch, PreconditionViolated, VerificationFailure
from stratabound.modification import parse_pair
from stratabound.newton import NewtonPolygon, Segment, curtail, dual, enumerate_polygons, parse_polygon
from stratabound.sequences import ABS, abs_from_binary_sequence, length, minimal_abs


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def two_segment_polygons(max_height):
    return [p for p in enumerate_polygons(max_height) if p.z == 2]


class TestBoundarySet:
    @pytest.mark.parametrize("polygon", [golden.POLYGON_17, golden.POLYGON_12])
    def test_six_generic_pairs(self, polygon):
        bset = boundary_set(parse_polygon(polygon))
        assert len(bset.elements) == 6
        assert bset.pair_set() == {parse_pair(p) for p in golden.SIX_PAIRS}
        for element in bset.elements:
            assert len(element.type) == parse_polygon(polygon).height

    def test_matches_oracle_exhaustively(self):
        for poly in enumerate_polygons(6):
            assert boundary_set(poly).types() == boundary_set_oracle(poly).types(), str(poly)

    def test_matches_oracle_at_height_9(self):
        polygons = [p for p in enumerate_polygons(9) if p.height == 9]
        assert polygons
        for poly in polygons:
            assert boundary_set(poly).types() == boundary_set_oracle(poly).types(), str(poly)

    def test_matches_oracle_at_height_10(self):
        polygons = [p for p in enumerate_polygons(10) if p.height == 10]
        assert len(polygons) == 401
        for poly in polygons:
            assert boundary_set(poly).types() == boundary_set_oracle(poly).types(), str(poly)

    def test_matches_oracle_on_random_polygons_of_height_20_to_60(self):
        # At the default budget: the oracle's 2 l(w) + 1 nodes do not grow
        # with C(h, c), which passes 10^6 from h = 23 on.
        polygons = tall_random_polygons()
        assert max(math.comb(p.height, p.codimension) for p in polygons) > 10**6
        for poly in polygons:
            assert boundary_set(poly).types() == boundary_set_oracle(poly).types(), str(poly)

    def test_matches_pinned_answers_up_to_height_12(self):
        pinned = pin_boundary_types.load()
        assert (len(pinned), sum(map(len, pinned.values()))) == (2679, 6132)
        computed = {
            str(poly): pin_boundary_types.boundary_types(poly)
            for poly in enumerate_polygons(pin_boundary_types.HEIGHT)
        }
        assert computed == pinned

    def test_pinning_refuses_when_the_oracle_disagrees(self, monkeypatch, tmp_path, capsys):
        disagreeing = boundary_set(parse_polygon(golden.POLYGON_12))
        monkeypatch.setattr(pin_boundary_types, "boundary_set_oracle", lambda poly: disagreeing)
        target = tmp_path / "pinned.json.gz"
        assert pin_boundary_types.main(target) == 1
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == f"not writing {target}: the oracle disagrees on 0,1\n"

    def test_methods_are_labelled(self):
        poly = parse_polygon("1,2+1,1")
        assert boundary_set(poly).method != boundary_set_oracle(poly).method

    def test_types_drop_length_by_one(self):
        for poly in enumerate_polygons(7):
            base = length(minimal_abs(poly))
            for t in boundary_set(poly).types():
                assert length(abs_from_binary_sequence(t)) == base - 1

    def test_isoclinic_boundary_empty(self):
        assert boundary_set(parse_polygon("1,1")).types() == frozenset()
        assert boundary_set(parse_polygon("0,1+0,1")).types() == frozenset()

    def test_json_shape(self):
        payload = boundary_set(parse_polygon("2,5+3,2")).to_json()
        assert set(payload) == {"polygon", "method", "elements"}
        assert len(payload["elements"]) == 6
        for element in payload["elements"]:
            assert element["pairs"]


class TestBoundaryCache:
    def test_repeat_call_returns_the_same_object(self):
        first = boundary_set(parse_polygon("2,5+3,2"))
        assert boundary_set(parse_polygon("2,5+3,2")) is first

    def test_cached_equals_uncached_up_to_height_9(self):
        for poly in enumerate_polygons(9):
            assert boundary_set(poly) == boundary_set.__wrapped__(poly), str(poly)

    def test_bound_is_the_module_constant(self):
        assert boundary_set.cache_info().maxsize == BOUNDARY_CACHE_SIZE

    def test_duality_reads_both_sets_from_the_cache(self):
        poly = parse_polygon("2,5+3,2")
        boundary_set(poly)
        boundary_set(dual(poly))
        before = boundary_set.cache_info()
        assert verify_duality(poly).ok
        after = boundary_set.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


class TestDirectSum:
    def test_passes_up_to_height_7(self):
        for poly in enumerate_polygons(7):
            if poly.z >= 2:
                report = verify_direct_sum(poly)
                assert report.ok, (str(poly), report.witness)

    def test_single_segment_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_direct_sum(parse_polygon("1,2"))

    def test_report_fields(self):
        report = verify_direct_sum(parse_polygon("2,5+3,2"))
        assert report.kind == "direct-sum"
        assert report.status == "ok"
        assert report.witness is None
        assert report.bijection  # every summand image recorded
        assert report.raise_if_failed() is report


class TestCurtailment:
    def eligible(self, max_height):
        return [
            p
            for p in two_segment_polygons(max_height)
            if 2 * p.segments[1].n >= p.segments[1].height
        ]

    def test_passes_up_to_height_9(self):
        polys = self.eligible(9)
        assert polys
        for poly in polys:
            report = verify_curtailment(poly)
            assert report.ok, (str(poly), report.witness)

    def test_equal_slopes_allowed(self):
        # The guard is slope >= 1/2, not strict separation: the equal-slope
        # case has empty boundary sets on both sides and passes vacuously.
        report = verify_curtailment(parse_polygon("1,1+1,1"))
        assert report.ok

    def test_shallow_second_slope_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_curtailment(parse_polygon("2,5+3,2"))  # slope_2 = 2/5

    def test_wrong_segment_count_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_curtailment(parse_polygon("1,2"))
        with pytest.raises(PreconditionViolated):
            verify_curtailment(parse_polygon("0,1+1,1+1,0"))


class TestDuality:
    def test_passes_up_to_height_9(self):
        for poly in two_segment_polygons(9):
            report = verify_duality(poly)
            assert report.ok, (str(poly), report.witness)

    def test_map_is_reverse_and_flip(self):
        for h in range(1, 9):
            for bits in itertools.product((0, 1), repeat=h):
                c = bits.count(1)
                flipped = tuple(1 - b for b in reversed(bits))
                assert duality_map_by_conjugation(bits, c) == flipped
                assert duality_map_type(bits, c) == flipped

    def test_map_equals_conjugation_up_to_height_12(self):
        words = 0
        for h in range(1, 13):
            for bits in itertools.product((0, 1), repeat=h):
                c = bits.count(1)
                assert duality_map_type(bits, c) == duality_map_by_conjugation(bits, c), bits
                words += 1
        assert words == 2**13 - 2

    def test_map_checks_the_codimension(self):
        with pytest.raises(DimensionMismatch):
            duality_map_type((1, 0, 0), 2)

    def test_wrong_segment_count_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_duality(parse_polygon("1,2"))


class TestFailureReports:
    """Each type-map witness, forced by a patched collaborator, with its exact payload."""

    def stub_boundary_set(self, monkeypatch, polygon, *words):
        # boundary_set as before, except that ``polygon`` gets the set of ``words``.
        real = boundary.boundary_set

        def patched(p):
            if p == parse_polygon(polygon):
                return BoundarySet(p, tuple(BoundaryElement(tuple(map(int, word)), ()) for word in words), "stub")
            return real(p)

        monkeypatch.setattr(boundary, "boundary_set", patched)

    def direct_sum_report(self, second, bijection, witness):
        # verify_direct_sum's failing payload for 0,1+1,1+1,0; ``second`` is
        # the listing of B(1,1+1,0), its second adjacent pair.
        return {
            "polygon": "0,1+1,1+1,0",
            "kind": "direct-sum",
            "lhs": ["i=1 0,1+1,1: ['100']", f"i=2 1,1+1,0: {second}"],
            "rhs": ["0110", "1001"],
            "bijection": bijection,
            "status": "fail",
            "witness": witness,
        }

    def test_direct_sum_constant_map_is_not_injective(self, monkeypatch):
        monkeypatch.setattr(boundary, "direct_sum_type", lambda types: (1, 0, 0, 1))
        assert verify_direct_sum(parse_polygon("0,1+1,1+1,0")).to_json() == self.direct_sum_report(
            "['110']",
            [["i=1:100", "1001"], ["i=2:110", "1001"]],
            {"check": "injective", "image": "1001", "sources": ["i=1:100", "i=2:110"]},
        )

    def test_direct_sum_image_outside_the_boundary(self, monkeypatch):
        monkeypatch.setattr(boundary, "direct_sum_type", lambda types: (0, 0, 1, 1))
        assert verify_direct_sum(parse_polygon("0,1+1,1+1,0")).to_json() == self.direct_sum_report(
            "['110']",
            [["i=1:100", "0011"], ["i=2:110", "0011"]],
            {"check": "image_in_boundary", "source": "i=1:100", "image": "0011"},
        )

    def test_direct_sum_images_do_not_exhaust_the_boundary(self, monkeypatch):
        self.stub_boundary_set(monkeypatch, "1,1+1,0")  # no elements
        assert verify_direct_sum(parse_polygon("0,1+1,1+1,0")).to_json() == self.direct_sum_report(
            "[]",
            [["i=1:100", "1001"]],
            {"check": "exhausts_boundary", "unmatched": ["0110"]},
        )

    def test_duality_constant_map_is_not_injective(self, monkeypatch):
        monkeypatch.setattr(boundary, "duality_map_type", lambda bits, c: (1, 1, 1, 0, 0, 0))
        assert verify_duality(parse_polygon("1,2+2,1")).to_json() == {
            "polygon": "1,2+2,1",
            "kind": "duality",
            "lhs": ["101100", "110010"],
            "rhs": ["101100", "110010"],
            "bijection": [["101100", "111000"], ["110010", "111000"]],
            "status": "fail",
            "witness": {"check": "injective"},
        }

    def test_duality_wrong_map_is_not_onto(self, monkeypatch):
        monkeypatch.setattr(boundary, "duality_map_type", lambda bits, c: tuple(1 - b for b in bits))
        assert verify_duality(parse_polygon("1,2+2,1")).to_json() == {
            "polygon": "1,2+2,1",
            "kind": "duality",
            "lhs": ["101100", "110010"],
            "rhs": ["101100", "110010"],
            "bijection": [["101100", "010011"], ["110010", "001101"]],
            "status": "fail",
            "witness": {"check": "onto_dual_boundary", "extra": ["001101", "010011"], "missing": ["101100", "110010"]},
        }

    def test_curtailment_onto_curtailed_boundary(self, monkeypatch):
        self.stub_boundary_set(monkeypatch, "1,1+1,0", "011")
        assert verify_curtailment(parse_polygon("1,2+1,1")).to_json() == {
            "polygon": "1,2+1,1",
            "kind": "curtailment",
            "lhs": ["11000"],
            "rhs": ["011"],
            "bijection": [["11000", "110"]],
            "status": "fail",
            "witness": {"check": "onto_curtailed_boundary", "extra": ["110"], "missing": ["011"]},
        }

    def test_curtailment_covers_boundary_leaves_the_bijection_empty(self, monkeypatch):
        self.stub_boundary_set(monkeypatch, "1,2+1,1", "00011")
        assert verify_curtailment(parse_polygon("1,2+1,1")).to_json() == {
            "polygon": "1,2+1,1",
            "kind": "curtailment",
            "lhs": ["00011"],
            "rhs": ["110"],
            "bijection": [],
            "status": "fail",
            "witness": {"check": "covers_boundary", "missing": ["00011"]},
        }


    # verify_curtailment's checks before the type map, each failed by one
    # patched input on 0,1+3,5, whose two generic pairs have different types.
    CURTAILED = "0,1+3,5"

    def pin_curtailment_sets(self, monkeypatch):
        # The real boundary sets of the polygon and its curtailment, read
        # before any cascade is patched, so the cache never holds a patched set.
        p = parse_polygon(self.CURTAILED)
        sets = {q: boundary_set(q) for q in (p, curtail(p))}
        monkeypatch.setattr(boundary, "boundary_set", sets.__getitem__)
        return p

    def patch_traces(self, monkeypatch, S, change):
        # full_modification as before, except that traces of S go through ``change``.
        real = boundary.full_modification

        def patched(T, pair):
            trace = real(T, pair)
            return change(trace) if T == S else trace

        monkeypatch.setattr(boundary, "full_modification", patched)

    def curtailment_witness(self, p):
        report = verify_curtailment(p)
        assert report.status == "fail"
        return report.witness["check"]

    def test_curtailment_embedding_order(self, monkeypatch):
        p = self.pin_curtailment_sets(monkeypatch)
        monkeypatch.setattr(boundary, "_curtail_removed", lambda S: frozenset())
        assert self.curtailment_witness(p) == "embedding_order"

    def test_curtailment_embedding_pi(self, monkeypatch):
        # the curtailed sequence keeps its order, with its arrows reversed
        p = self.pin_curtailment_sets(monkeypatch)
        R = minimal_abs(curtail(p))
        other = ABS.from_arrows(R.order, R.arrows[::-1])
        assert other != R
        real = boundary.minimal_abs
        monkeypatch.setattr(boundary, "minimal_abs", lambda q: other if q == curtail(p) else real(q))
        assert self.curtailment_witness(p) == "embedding_pi"

    def test_curtailment_pair_sets(self, monkeypatch):
        # the curtailed sequence offers no pairs
        p = self.pin_curtailment_sets(monkeypatch)
        R = minimal_abs(curtail(p))
        real = boundary.eligible_pairs
        monkeypatch.setattr(boundary, "eligible_pairs", lambda S, adjacent_only: () if S == R else real(S, adjacent_only))
        assert self.curtailment_witness(p) == "pair_sets"

    def test_curtailment_verdict_agreement(self, monkeypatch):
        p = self.pin_curtailment_sets(monkeypatch)
        self.patch_traces(monkeypatch, minimal_abs(curtail(p)), lambda t: SimpleNamespace(verdict="stub"))
        assert self.curtailment_witness(p) == "verdict_agreement"

    def test_curtailment_restriction_matches(self, monkeypatch):
        p = self.pin_curtailment_sets(monkeypatch)
        self.patch_traces(
            monkeypatch, minimal_abs(curtail(p)), lambda t: SimpleNamespace(verdict=t.verdict, result_type=())
        )
        assert self.curtailment_witness(p) == "restriction_matches"

    def test_curtailment_well_defined(self, monkeypatch):
        # Both generic traces of the original report one type, but their
        # restrictions differ.
        p = self.pin_curtailment_sets(monkeypatch)
        self.patch_traces(
            monkeypatch, minimal_abs(p), lambda t: SimpleNamespace(verdict=t.verdict, result_type=(), result=t.result)
        )
        assert self.curtailment_witness(p) == "well_defined"

# SHA-256 of every report scripts/verify_suite.py produces at its default
# heights (direct-sum h <= 10, curtailment and duality h <= 12), in the
# script's order, each as sorted-key JSON plus a newline.
VERIFY_SUITE_REPORTS = 653
VERIFY_SUITE_DIGEST = "06d80976e07ab3b7af474103321264fd93f883890d1b080dbde5ef31ffd4d386"
# The same over a wider range: direct-sum h <= 13, curtailment and duality h <= 20.
VERIFY_SUITE_WIDE_REPORTS = 2926
VERIFY_SUITE_WIDE_DIGEST = "15ff26f3341837d002c3afb6ecc2169b0fa97c2f33f6db4a1229cf71e0e39739"


def verify_suite_digest(direct_sum_height, two_segment_height):
    """(reports, failures, SHA-256) of scripts/verify_suite.py's reports at these heights."""
    reports = runpy.run_path(str(SCRIPTS / "verify_suite.py"))["reports"]
    digest = hashlib.sha256()
    count = failures = 0
    for report in reports(direct_sum_height, two_segment_height):
        count += 1
        failures += not report.ok
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode() + b"\n")
    return count, failures, digest.hexdigest()


class TestReport:
    def test_verify_suite_reports_are_pinned(self):
        assert verify_suite_digest(10, 12) == (VERIFY_SUITE_REPORTS, 0, VERIFY_SUITE_DIGEST)

    def test_verify_suite_reports_are_pinned_on_a_wider_range(self):
        assert verify_suite_digest(13, 20) == (VERIFY_SUITE_WIDE_REPORTS, 0, VERIFY_SUITE_WIDE_DIGEST)

    def test_json_schema(self):
        payload = verify_duality(parse_polygon("2,5+3,2")).to_json()
        assert set(payload) == {
            "polygon",
            "kind",
            "lhs",
            "rhs",
            "bijection",
            "status",
            "witness",
        }
        assert payload["status"] == "ok"

    def test_raise_if_failed_carries_witness(self):
        poly = NewtonPolygon((Segment(1, 2),))
        report = Report(
            polygon=poly,
            kind="direct-sum",
            lhs=(),
            rhs=(),
            bijection=(),
            status="fail",
            witness={"check": "exhausts_boundary", "unmatched": ["101"]},
        )
        assert not report.ok
        with pytest.raises(VerificationFailure) as exc:
            report.raise_if_failed()
        assert exc.value.witness == {"check": "exhausts_boundary", "unmatched": ["101"]}
