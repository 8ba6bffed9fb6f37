"""Boundary sets and the three cross-validation reports."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

import golden
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
from stratabound.newton import NewtonPolygon, Segment, dual, enumerate_polygons, parse_polygon
from stratabound.sequences import abs_from_binary_sequence, length, minimal_abs


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

    def stub_boundary_set(self, monkeypatch, polygon, word):
        # boundary_set as before, except that ``polygon`` gets the one-element set {word}.
        real = boundary.boundary_set

        def patched(p):
            if p == parse_polygon(polygon):
                return BoundarySet(p, (BoundaryElement(tuple(map(int, word)), ()),), "stub")
            return real(p)

        monkeypatch.setattr(boundary, "boundary_set", patched)

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


# SHA-256 of every report scripts/verify_suite.py produces at its default
# heights (direct-sum h <= 10, curtailment and duality h <= 12), in the
# script's order, each as sorted-key JSON plus a newline.
VERIFY_SUITE_REPORTS = 653
VERIFY_SUITE_DIGEST = "06d80976e07ab3b7af474103321264fd93f883890d1b080dbde5ef31ffd4d386"


class TestReport:
    def test_verify_suite_reports_are_pinned(self):
        digest = hashlib.sha256()
        reports = 0

        def feed(report):
            nonlocal reports
            reports += 1
            digest.update(json.dumps(report.to_json(), sort_keys=True).encode() + b"\n")

        for poly in enumerate_polygons(10):
            if poly.z in (2, 3):
                feed(verify_direct_sum(poly))
        for poly in two_segment_polygons(12):
            if 2 * poly.segments[1].n >= poly.segments[1].height:
                feed(verify_curtailment(poly))
            feed(verify_duality(poly))
        assert (reports, digest.hexdigest()) == (VERIFY_SUITE_REPORTS, VERIFY_SUITE_DIGEST)

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
