"""Boundary sets and the three cross-validation reports."""

from __future__ import annotations

import pytest

import golden
from stratabound.boundary import (
    Report,
    boundary_set,
    boundary_set_oracle,
    duality_map_type,
    verify_curtailment,
    verify_direct_sum,
    verify_duality,
)
from stratabound.errors import PreconditionViolated, VerificationFailure
from stratabound.modification import parse_pair
from stratabound.newton import NewtonPolygon, Segment, enumerate_polygons, parse_polygon
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
        import itertools

        for h in range(1, 9):
            for bits in itertools.product((0, 1), repeat=h):
                c = bits.count(1)
                assert duality_map_type(bits, c) == tuple(1 - b for b in reversed(bits))

    def test_wrong_segment_count_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_duality(parse_polygon("1,2"))


class TestReport:
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
