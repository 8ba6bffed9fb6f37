"""Permutations, minimal coset representatives, Bruhat and specialization order."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    bruhat_leq_by_covers,
    generic_specializations_by_transpositions,
    parabolic_elements,
    specializes_bruteforce,
    witness_exists_sorted,
)
from stratabound.errors import ContextTooLarge, DimensionMismatch
from stratabound.newton import enumerate_polygons, parse_polygon
from stratabound.sequences import abs_from_binary_sequence, length, minimal_abs, to_binary_sequence
from stratabound.weyl import (
    JWContext,
    Permutation,
    binary_to_jw,
    bruhat_leq,
    coxeter_length,
    generic_specializations_oracle,
    is_jw,
    jw_elements,
    jw_to_binary,
    specializes,
    theta,
    x_element,
)

perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda h: st.permutations(list(range(1, h + 1))).map(lambda p: Permutation(tuple(p)))
)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 3))

    def test_composition_convention(self):
        # (v * w)(i) = v(w(i)): apply w first.
        v = Permutation((2, 3, 1))
        w = Permutation((1, 3, 2))
        assert (v * w).images == (2, 1, 3)

    def test_mismatched_degrees(self):
        with pytest.raises(DimensionMismatch):
            Permutation((1, 2)) * Permutation((1, 2, 3))

    @given(perms)
    def test_inverse(self, w):
        assert (w * w.inverse()).images == Permutation.identity(w.degree).images

    @given(perms)
    def test_length_invariant_under_inverse(self, w):
        assert coxeter_length(w) == coxeter_length(w.inverse())

    @given(perms, st.data())
    def test_transposition_changes_length_parity(self, w, data):
        if w.degree < 2:
            return
        i = data.draw(st.integers(min_value=1, max_value=w.degree - 1))
        s = Permutation.transposition(w.degree, i, i + 1)
        assert abs(coxeter_length(w * s) - coxeter_length(w)) == 1

    def test_coxeter_length_golden(self):
        assert coxeter_length(Permutation((3, 1, 2))) == 2
        assert coxeter_length(Permutation.identity(5)) == 0
        assert coxeter_length(Permutation((4, 3, 2, 1))) == 6


class TestBruhat:
    def test_agrees_with_cover_walk_exhaustive(self):
        for h in (2, 3, 4):
            elems = [Permutation(p) for p in itertools.permutations(range(1, h + 1))]
            for v in elems:
                for w in elems:
                    assert bruhat_leq(v, w) == bruhat_leq_by_covers(v, w)

    def test_partial_order_axioms_degree_5(self):
        elems = [Permutation(p) for p in itertools.permutations(range(1, 6))]
        n = len(elems)
        leq = np.zeros((n, n), dtype=bool)
        for i, v in enumerate(elems):
            for j, w in enumerate(elems):
                leq[i, j] = bruhat_leq(v, w)
        assert leq.diagonal().all()  # reflexive
        assert not (leq & leq.T & ~np.eye(n, dtype=bool)).any()  # antisymmetric
        closure = leq @ leq  # transitive: leq∘leq implies leq
        assert not (closure & ~leq).any()

    def test_length_monotone(self):
        elems = [Permutation(p) for p in itertools.permutations(range(1, 5))]
        for v in elems:
            for w in elems:
                if bruhat_leq(v, w):
                    assert coxeter_length(v) <= coxeter_length(w)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bruhat_leq(Permutation((1, 2)), Permutation((1, 2, 3)))


class TestRepresentatives:
    def test_round_trip_exhaustive(self):
        for h in range(1, 9):
            for bits in itertools.product((0, 1), repeat=h):
                ctx = JWContext(h=h, c=h - bits.count(0))
                assert jw_to_binary(binary_to_jw(bits, ctx), ctx) == bits

    def test_count_and_membership(self):
        for h in range(1, 7):
            for c in range(0, h + 1):
                ctx = JWContext(h=h, c=c)
                elems = jw_elements(ctx)
                assert len(elems) == math.comb(h, c)
                assert len(set(elems)) == len(elems)
                for w in elems:
                    assert is_jw(w, ctx)

    def test_length_counts_cross_pairs(self):
        # For a representative, inversions are exactly the pairs where a
        # 1-position follows a 0-position: w(a) > c >= w(b) with a < b.
        for h in range(1, 8):
            for c in range(0, h + 1):
                ctx = JWContext(h=h, c=c)
                for w in jw_elements(ctx):
                    img = w.images
                    cross = sum(
                        1
                        for a in range(h)
                        for b in range(a + 1, h)
                        if img[a] > c >= img[b]
                    )
                    assert coxeter_length(w) == cross

    def test_word_mismatch_errors(self):
        ctx = JWContext(h=3, c=1)
        with pytest.raises(DimensionMismatch):
            binary_to_jw((1, 1, 0), ctx)
        with pytest.raises(DimensionMismatch):
            binary_to_jw((1, 0), ctx)
        assert is_jw(Permutation((2, 1, 3)), ctx)  # valid: block preimages ascend
        with pytest.raises(DimensionMismatch):
            jw_to_binary(Permutation((3, 2, 1)), ctx)
        with pytest.raises(DimensionMismatch):
            jw_to_binary(Permutation((1, 2)), ctx)

    def test_length_identity_with_sequences(self):
        for h in range(1, 9):
            for bits in itertools.product((0, 1), repeat=h):
                ctx = JWContext(h=h, c=bits.count(1))
                assert length(abs_from_binary_sequence(bits)) == coxeter_length(
                    binary_to_jw(bits, ctx)
                )

    def test_minimal_sequence_arrows_factor_through_x(self):
        # Position arrows of the minimal sequence equal x composed with the
        # sequence's type representative.
        for poly in enumerate_polygons(8):
            S = minimal_abs(poly)
            ctx = JWContext(h=poly.height, c=poly.codimension)
            w = binary_to_jw(to_binary_sequence(S), ctx)
            x = x_element(ctx)
            assert S.arrow_images() == (x * w).images


class TestConjugationMachinery:
    def test_x_element_golden(self):
        assert x_element(JWContext(h=3, c=1)).images == (3, 1, 2)
        assert x_element(JWContext(h=17, c=5)).images == tuple(
            list(range(13, 18)) + list(range(1, 13))
        )

    def test_theta_is_a_homomorphism(self):
        ctx = JWContext(h=5, c=2)
        us = parabolic_elements(ctx)
        for u in us[:6]:
            for v in us[:6]:
                assert theta(u * v, ctx).images == (theta(u, ctx) * theta(v, ctx)).images

    def test_theta_swaps_block_structure(self):
        # Conjugation by x carries the {1..c} | {c+1..h} block subgroup onto
        # the {1..d} | {d+1..h} one.
        ctx = JWContext(h=5, c=2)
        d = ctx.d
        for u in parabolic_elements(ctx):
            v = theta(u, ctx)
            assert all(v(i) <= d for i in range(1, d + 1))
            assert all(v(i) > d for i in range(d + 1, ctx.h + 1))

    def test_parabolic_budget(self):
        with pytest.raises(ContextTooLarge):
            parabolic_elements(JWContext(h=12, c=6), budget=10)

    def test_parabolic_size(self):
        ctx = JWContext(h=5, c=2)
        assert len(parabolic_elements(ctx)) == math.factorial(2) * math.factorial(3)


class TestSpecializationOrder:
    def test_reflexive_like_cases(self):
        ctx = JWContext(h=2, c=1)
        assert specializes(Permutation((1, 2)), Permutation((2, 1)), ctx)
        assert not specializes(Permutation((2, 1)), Permutation((1, 2)), ctx)

    def test_downward_closed_in_bruhat(self):
        # If w' specializes to w, every representative below w' does too.
        for h in range(2, 6):
            for c in range(1, h):
                ctx = JWContext(h=h, c=c)
                elems = jw_elements(ctx)
                for w in elems:
                    reachable = [wp for wp in elems if specializes(wp, w, ctx)]
                    for wp in reachable:
                        for wq in elems:
                            if bruhat_leq(wq, wp):
                                assert specializes(wq, w, ctx)

    def test_budget_guard(self):
        ctx = JWContext(h=12, c=6)
        with pytest.raises(ContextTooLarge):
            specializes(Permutation.identity(12), Permutation.identity(12), ctx, budget=10)

    def test_budget_counts_search_nodes(self):
        # u = id is the first leaf: one node per row, so h nodes fit and h - 1 do not.
        ctx = JWContext(h=12, c=6)
        ident = Permutation.identity(12)
        assert specializes(ident, ident, ctx, budget=12)
        with pytest.raises(ContextTooLarge, match="more than 11 nodes"):
            specializes(ident, ident, ctx, budget=11)
        # |W_J| = 6! 6! = 518400 no longer counts against the budget
        assert specializes(ident, ident, ctx, budget=100)

    def test_search_equals_bruteforce_on_all_pairs(self):
        for h in range(1, 7):
            for c in range(0, h + 1):
                ctx = JWContext(h=h, c=c)
                elems = jw_elements(ctx)
                for wp in elems:
                    for w in elems:
                        assert specializes(wp, w, ctx) == specializes_bruteforce(wp, w, ctx), (wp, w, ctx)

    def test_search_equals_bruteforce_on_boundary_candidates(self):
        # Every candidate the oracle filter tests for some polygon, h <= 8.
        for poly in enumerate_polygons(8):
            ctx = JWContext.for_polygon(poly)
            w = binary_to_jw(to_binary_sequence(minimal_abs(poly)), ctx)
            for wp in jw_elements(ctx):
                if coxeter_length(wp) == coxeter_length(w) - 1:
                    assert specializes(wp, w, ctx) == specializes_bruteforce(wp, w, ctx), (str(poly), wp)

    def test_packed_search_equals_sorted_search_h9(self):
        # Every candidate the oracle filter tests for a polygon of height 9.
        for poly in enumerate_polygons(9):
            if poly.height != 9:
                continue
            ctx = JWContext.for_polygon(poly)
            w = binary_to_jw(to_binary_sequence(minimal_abs(poly)), ctx)
            for wp in jw_elements(ctx):
                if coxeter_length(wp) == coxeter_length(w) - 1:
                    expected = witness_exists_sorted(wp.images, w.images, ctx.c)
                    assert specializes(wp, w, ctx) == expected, (str(poly), wp)

    def test_oracle_methods_agree(self):
        for h in range(2, 7):
            for c in range(1, h):
                ctx = JWContext(h=h, c=c)
                for w in jw_elements(ctx):
                    if coxeter_length(w) == 0:
                        continue
                    a = generic_specializations_oracle(w, ctx)
                    b = generic_specializations_by_transpositions(w, ctx)
                    assert set(a) == set(b)

    def test_oracle_results_one_length_below(self):
        poly = parse_polygon("1,2+2,1")
        ctx = JWContext(h=poly.height, c=poly.codimension)
        w = binary_to_jw(to_binary_sequence(minimal_abs(poly)), ctx)
        for wp in generic_specializations_oracle(w, ctx):
            assert coxeter_length(wp) == coxeter_length(w) - 1
            assert is_jw(wp, ctx)
