"""Permutations, minimal coset representatives, Bruhat and specialization order."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from stratabound import weyl
from reference import (
    bruhat_leq_by_covers,
    cycle_type,
    generic_specializations_by_transpositions,
    generic_specializations_by_type_table,
    parabolic_elements,
    specializes_bruteforce,
    type_table,
    word_of_type,
)
from stratabound.errors import ContextTooLarge, DimensionMismatch, InternalCheckError
from stratabound.newton import enumerate_polygons, parse_polygon
from stratabound.sequences import abs_from_binary_sequence, length, minimal_abs, to_binary_sequence, word_length
from stratabound.weyl import (
    DEFAULT_BUDGET,
    JWContext,
    Permutation,
    _certificate,
    _certified_specializations,
    _cocover_types,
    _keyed_cycles,
    _times_x,
    _witness_exists,
    _word_of_type,
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

    def test_length_buckets_equal_coxeter_length_buckets(self):
        # Bucketing the reference type table by the sequence length of each
        # representative's word must equal bucketing by Coxeter length, each
        # bucket in jw_elements order.
        for h in range(1, 10):
            for c in range(0, h + 1):
                expected: dict[int, list[Permutation]] = {}
                for w in jw_elements(JWContext(h=h, c=c)):
                    expected.setdefault(coxeter_length(w), []).append(w)
                got: dict[int, list[Permutation]] = {}
                for wp in type_table(h, c).values():
                    got.setdefault(word_length(0 if v > c else 1 for v in wp), []).append(Permutation(wp))
                got = {length: tuple(sorted(ws, key=lambda w: w.images)) for length, ws in got.items()}
                assert got == {length: tuple(ws) for length, ws in expected.items()}, (h, c)

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

    def test_budget_of_the_sorted_search_node_count_suffices_h8(self):
        # On every candidate the oracle filter tests at h <= 8, a budget of
        # the nodes the search visits finishes it and one node less does not.
        checked = nodes = 0
        for poly in enumerate_polygons(8):
            ctx = JWContext.for_polygon(poly)
            w = binary_to_jw(to_binary_sequence(minimal_abs(poly)), ctx)
            for wp in jw_elements(ctx):
                if coxeter_length(wp) != coxeter_length(w) - 1:
                    continue
                expected, n = _witness_exists(wp.images, w.images, ctx.c, DEFAULT_BUDGET)
                assert n >= 2, (str(poly), wp)
                assert specializes(wp, w, ctx, budget=n) == expected, (str(poly), wp)
                with pytest.raises(ContextTooLarge, match=f"more than {n - 1} nodes"):
                    specializes(wp, w, ctx, budget=n - 1)
                checked += 1
                nodes += n
        assert checked == 826
        assert nodes == 26505

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


class TestCycleTypeOracle:
    """The coloured-cycle-type rule behind ``generic_specializations_oracle``."""

    def test_cycle_type_of_a_transposition(self):
        # (1 2) and (3) at c = 1: words 10 and 0, kept as least rotations 01 and 0.
        assert cycle_type([0, 2, 1, 3], 1) == ((1, 0), (2, 1))
        assert _cocover_types([0, 2, 1, 3], 1, ()) == [((1, 0), (2, 1))]

    def test_type_is_the_block_conjugacy_class(self):
        # Two permutations share a coloured cycle type exactly when some u in
        # W_J = S_c x S_d conjugates one into the other, every c, h <= 5.
        for h in range(1, 6):
            perms = [list((0, *p)) for p in itertools.permutations(range(1, h + 1))]
            for c in range(0, h + 1):
                us = [u.images for u in parabolic_elements(JWContext(h=h, c=c))]
                for P in perms:
                    orbit = set()
                    for u in us:
                        u_inv = [0] * (h + 1)
                        for a, b in enumerate(u, start=1):
                            u_inv[b] = a
                        orbit.add(tuple(u_inv[P[u[a - 1]]] for a in range(1, h + 1)))
                    t = cycle_type(P, c)
                    same = {tuple(Q[1:]) for Q in perms if cycle_type(Q, c) == t}
                    assert same == orbit, (P, c)

    def test_exchanged_entries_split_or_join_cycles(self):
        # _cocover_types reads each exchange off the cycles of P; it must equal
        # the type of P with the two entries exchanged, for every pair, h <= 6.
        for h in range(1, 7):
            pairs = list(itertools.combinations(range(1, h + 1), 2))
            for p in itertools.permutations(range(1, h + 1)):
                P = [0, *p]
                for c in range(0, h + 1):
                    expected = [cycle_type(P, c)]
                    for a, b in pairs:
                        Q = list(P)
                        Q[a], Q[b] = Q[b], Q[a]
                        expected.append(cycle_type(Q, c))
                    assert _cocover_types(P, c, pairs) == expected, (P, c)

    def test_rule_equals_search_on_every_candidate_h9(self):
        # For every c and every w in ^JW, every representative one length
        # below w: the rule accepts it exactly when the reference search does.
        candidates = accepted = nodes = 0
        for h in range(1, 10):
            for c in range(0, h + 1):
                ctx = JWContext(h=h, c=c)
                elems = jw_elements(ctx)
                for w in elems:
                    got = set(generic_specializations_oracle(w, ctx))
                    expected = set()
                    for wp in elems:
                        if coxeter_length(wp) != coxeter_length(w) - 1:
                            continue
                        found, n = _witness_exists(wp.images, w.images, c, DEFAULT_BUDGET)
                        if found:
                            expected.add(wp)
                        candidates += 1
                        nodes += n
                    assert got == expected, (w, ctx)
                    accepted += len(got)
        assert candidates == 4816
        assert accepted == 2033
        assert nodes == 365527

    def test_every_certificate_lies_under_w_h9(self):
        # Each "yes" comes with u: u lies in W_J and u^{-1} w' theta(u) is the
        # cocover v, which lies under w in Bruhat order.
        certified = 0
        for h in range(1, 10):
            for c in range(0, h + 1):
                ctx = JWContext(h=h, c=c)
                for w in jw_elements(ctx):
                    for wp, v, u_images in _certified_specializations(w, ctx):
                        u = Permutation(u_images)
                        assert all(u(a) <= c for a in range(1, c + 1))
                        conjugate = u.inverse() * wp * theta(u, ctx)
                        assert conjugate.images == v
                        assert coxeter_length(conjugate) == coxeter_length(w) - 1
                        assert bruhat_leq(conjugate, w), (wp, w, ctx)
                        certified += 1
        assert certified > 0

    def test_certificate_rejects_a_non_conjugate_pair(self):
        # (1 2 3) and (1 3 2) x-twisted at c = 1: w x has one 3-cycle, v x
        # three fixed points, so no u in W_J carries one to the other.
        wp, v = (2, 3, 1), (3, 1, 2)
        assert cycle_type(_times_x(wp, 1), 1) != cycle_type(_times_x(v, 1), 1)
        with pytest.raises(InternalCheckError, match="not W_J-twisted conjugate"):
            _certificate(wp, _keyed_cycles(_times_x(wp, 1), 1), v, 1)
        e = (1, 2, 3)
        assert _certificate(e, _keyed_cycles(_times_x(e, 1), 1), e, 1) == e

    def test_lemma_no_conjugate_is_shorter_h7(self):
        # l(u^{-1} w' theta(u)) >= l(w') for every w' in ^JW and u in W_J.
        checked = 0
        for h in range(1, 8):
            for c in range(0, h + 1):
                ctx = JWContext(h=h, c=c)
                twists = [(u.inverse().images, theta(u, ctx).images) for u in parabolic_elements(ctx)]
                for wp in jw_elements(ctx):
                    img = wp.images
                    length = coxeter_length(wp)
                    for u_inv, th in twists:
                        v = [u_inv[img[th[a] - 1] - 1] for a in range(h)]
                        inversions = sum(1 for a in range(h) for b in range(a + 1, h) if v[a] > v[b])
                        assert inversions >= length, (wp, ctx)
                        checked += 1
        assert checked == sum((h + 1) * math.factorial(h) for h in range(1, 8))

    def test_budget_is_the_nodes_one_call_needs(self):
        # The l(w) + 1 permutations typed plus at most l(w) types inverted:
        # a budget of exactly 2 l(w) + 1 nodes suffices and one less raises.
        for spec in ("1,2+2,1", "2,5+3,2", "0,1+5,1+1,0"):
            poly = parse_polygon(spec)
            ctx = JWContext.for_polygon(poly)
            w = binary_to_jw(to_binary_sequence(minimal_abs(poly)), ctx)
            nodes = 2 * coxeter_length(w) + 1
            expected = generic_specializations_oracle(w, ctx)
            assert expected
            with pytest.raises(ContextTooLarge, match=f"more than {nodes - 1} nodes for JWContext"):
                generic_specializations_oracle(w, ctx, budget=nodes - 1)
            assert generic_specializations_oracle(w, ctx, budget=nodes) == expected

    def test_oracle_equals_type_table_lookup_on_every_polygon_h10(self):
        # The inversion finds exactly what a lookup in the reference table of
        # all C(h, c) representatives finds, on every polygon's minimal word.
        checked = 0
        for poly in enumerate_polygons(10):
            ctx = JWContext.for_polygon(poly)
            w = binary_to_jw(to_binary_sequence(minimal_abs(poly)), ctx)
            assert generic_specializations_oracle(w, ctx) == generic_specializations_by_type_table(w, ctx), str(poly)
            checked += 1
        assert checked == 983

    def test_candidate_of_another_type_is_dropped(self, monkeypatch):
        # An inverted word of the right length but the wrong type must be
        # skipped before its certificate is asked for: answer the first
        # found type with the second found representative's word.
        poly = parse_polygon("2,5+3,2")
        ctx = JWContext.for_polygon(poly)
        c = ctx.c
        w = binary_to_jw(to_binary_sequence(minimal_abs(poly)), ctx)
        found = _certified_specializations(w, ctx)
        assert len(found) >= 2
        first, second = (cycle_type(_times_x(wp.images, c), c) for wp, _, _ in found[:2])
        assert first != second
        word_of = weyl._word_of_type
        monkeypatch.setattr(weyl, "_word_of_type", lambda t: word_of(second if t == first else t))
        assert _certified_specializations(w, ctx) == found[1:]

    def test_oracle_rejects_a_non_representative(self):
        with pytest.raises(DimensionMismatch):
            generic_specializations_oracle(Permutation((3, 2, 1)), JWContext(h=3, c=1))
        with pytest.raises(DimensionMismatch):
            generic_specializations_oracle(Permutation((1, 2)), JWContext(h=3, c=1))

    def test_type_table_lengths_are_one_per_type(self):
        # Every type holds one representative (checked at h <= 10): the
        # reference table has C(h, c) entries, each keyed by its
        # representative's own type.
        for h in range(1, 11):
            for c in range(0, h + 1):
                table = type_table(h, c)
                assert len(table) == math.comb(h, c)
                assert all(cycle_type(_times_x(w, c), c) == t for t, w in table.items()), (h, c)

    def test_type_table_refuses_a_shared_type(self, monkeypatch):
        # A second representative of one type raises as the table is built.
        monkeypatch.setattr(reference, "cycle_type", lambda P, c: ())
        type_table.cache_clear()
        try:
            with pytest.raises(InternalCheckError, match=r"\(1, 2, 3\) and \(1, 3, 2\) share a coloured cycle type"):
                type_table(3, 2)
        finally:
            type_table.cache_clear()

    def test_inverse_ebwt_recovers_every_word_h12(self):
        # The word of w comes back from type(w x), so no two representatives
        # share a type: every 0/1 word of length 1..12, every c.  The
        # library's integer-keyed inversion reads back the same word.
        checked = 0
        for h in range(1, 13):
            for nu in itertools.product((0, 1), repeat=h):
                c = sum(nu)
                w = binary_to_jw(nu, JWContext(h=h, c=c))
                t = cycle_type(_times_x(w.images, c), c)
                assert word_of_type(t) == nu
                assert tuple(_word_of_type(t)) == nu
                checked += 1
        assert checked == 2**13 - 2
