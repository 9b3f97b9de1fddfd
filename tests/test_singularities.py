"""Local class groups, Gorenstein indices, T-singularities, resolutions.

The Gorenstein index is computed by three independent routes (group
arithmetic, a brute multiple scan and the cone formula on a corresponding
generator matrix) and by a fourth, modular route on adjusted matrices;
resolution counts, read off the degree matrix, are cross-checked against
the fan cone of the generator matrix, a convex hull oracle and the negative
continued fraction walked entry by entry.
"""

import random
from math import gcd, prod

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import golden
import oracles
from fwpp import abelian, markov, planes
from fwpp.planes import DegreeMatrix
from oracles import GeneratorMatrix


def mk(mu, u, eta=None):
    return DegreeMatrix(mu, tuple(u), tuple(eta) if eta else (0, 0, 0))


def classified_planes(norm_bound):
    for a in (1, 2, 3, 4, 5, 6, 8, 9):
        yield from planes.classify(a, norm_bound)


class TestAnticanonical:
    def test_examples(self):
        assert planes.anticanonical_class(mk(4, (1, 1, 2), (0, 1, 1))) == (4, 2)
        assert planes.anticanonical_class(mk(9, (1, 1, 1), (0, 1, 8))) == (3, 0)
        assert planes.anticanonical_class(mk(1, (1, 2, 3))) == (6, 0)

    def test_closed_form_on_series(self):
        for c in classified_planes(500):
            q = c.matrix
            x, xi, _, _ = oracles.decompose(q.u, q.mu * c.series.a)
            coeff = 1
            target = q.mu * c.series.a * xi[1] * xi[2]
            while coeff * coeff < target:
                coeff += 1
            assert coeff * coeff == target
            wz_free, wz_tors = planes.anticanonical_class(q)
            assert wz_free == coeff * x[0] * x[1] * x[2]
            key = str(c.series)
            if key in golden.ANTICANONICAL_TORSION:
                assert wz_tors == golden.ANTICANONICAL_TORSION[key]


class TestLocalInvariants:
    def test_class_group_orders(self):
        assert planes.fake_weights_of_degree_matrix(mk(4, (1, 1, 2), (0, 1, 1)))[2] == 8
        assert planes.fake_weights_of_degree_matrix(mk(1, (1, 4, 5)))[0] == 1
        assert planes.fake_weights_of_degree_matrix(mk(9, (1, 1, 1), (0, 1, 2)))[1] == 9

    def test_gorenstein_examples(self):
        assert [planes.local_gorenstein_index(mk(3, (1, 2, 3), (0, 1, 1)), k) for k in range(3)] == [3, 3, 1]
        assert [planes.local_gorenstein_index(mk(8, (1, 1, 2), (0, 1, 3)), k) for k in range(3)] == [2, 1, 4]
        assert [planes.local_gorenstein_index(mk(1, (1, 1, 1)), k) for k in range(3)] == [1, 1, 1]

    def test_t_singularity_examples(self):
        q = mk(8, (1, 1, 2), (0, 1, 1))
        rep = planes.singularity_report(q)
        assert (rep.is_t[0], rep.d[0]) == (False, None)
        flag, d = rep.is_t[2], rep.d[2]
        assert flag and d * planes.local_gorenstein_index(q, 2) ** 2 == 16
        rep = planes.singularity_report(mk(1, (1, 4, 5)))
        flag, d = rep.is_t[0], rep.d[0]
        assert flag and d == 1


class TestConeFormula:
    def test_examples(self):
        assert oracles.cone_gorenstein_index((1, 0), (0, 1)) == 1
        assert oracles.cone_gorenstein_index((1, 0), (1, -2)) == 1
        assert oracles.cone_gorenstein_index((4, 1), (4, -3)) == 4

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            oracles.cone_gorenstein_index((1, 2), (-1, -2))

    def test_agrees_with_group_route_everywhere(self):
        for c in classified_planes(1500):
            p = oracles.generator_of(c.matrix)
            for k in range(3):
                cone = p.cone_of_fixed_point(k)
                assert oracles.cone_gorenstein_index(*cone) == planes.local_gorenstein_index(c.matrix, k)
                assert oracles.cone_resolution_count(*cone) == planes.resolution_curve_count(c, k)


class TestResolutionCounts:
    def test_smooth(self):
        assert oracles.cone_resolution_count((1, 0), (0, 1)) == 0
        assert [planes.resolution_curve_count(mk(1, (1, 1, 1)), k) for k in range(3)] == [0, 0, 0]

    def test_example_cones(self):
        for rows, curves in ((((3, 3, -6), (1, -2, 1)), [2, 8, 2]), (((1, 1, -1), (0, -16, 8)), [1, 1, 15])):
            p = GeneratorMatrix(rows)
            assert [oracles.cone_resolution_count(*p.cone_of_fixed_point(k)) for k in range(3)] == curves
            q = DegreeMatrix(*oracles.cokernel_structure(rows))  # the degree matrix of p, columns in p's order
            assert oracles.corresponds(q, p)
            assert [planes.resolution_curve_count(q, k) for k in range(3)] == curves

    def test_hull_oracle_agreement(self):
        for c in classified_planes(260):
            p = oracles.generator_of(c.matrix)
            for k in range(3):
                v, vp = p.cone_of_fixed_point(k)
                assert planes.resolution_curve_count(c, k) == oracles.cone_resolution_count(v, vp) == oracles.hull_resolution_count(v, vp)

    def test_hull_oracle_on_every_small_cone_type(self):
        # cone(e1, (m - k, m)) is the cyclic quotient singularity of type (m, k)
        for m in range(2, 600):
            for k in range(1, m):
                if gcd(m, k) == 1:
                    cone = ((1, 0), (m - k, m))
                    count = planes._hirzebruch_jung_length(m, k)
                    assert count == oracles.hull_resolution_count(*cone) == oracles.hirzebruch_jung_walk(m, k), (m, k)
                    assert oracles.cone_resolution_count(*cone) == count, (m, k)

    def test_walk_oracle_on_large_cone_types(self):
        rng = random.Random(20)
        for _ in range(2000):
            digits = rng.randrange(20, 401)
            m = rng.randrange(10 ** (digits - 1), 10**digits)
            k = rng.randrange(1, m)
            while gcd(m, k) != 1:
                k = rng.randrange(1, m)
            assert planes._hirzebruch_jung_length(m, k) == oracles.hirzebruch_jung_walk(m, k), (m, k)

    def test_walk_oracle_on_large_partial_quotients(self):
        # m/k = [a1; a2, ..., an + 1] with partial quotients of up to 40 digits,
        # so runs of up to 10^40 entries 2 sit at every position of the expansion
        rng = random.Random(20)
        for _ in range(500):
            quotients = [rng.randrange(1, 10 ** rng.randrange(1, 41)) for _ in range(rng.randrange(1, 12))]
            m, k = quotients[-1] + 1, 1
            for a in reversed(quotients[:-1]):
                m, k = a * m + k, m
            assert planes._hirzebruch_jung_length(m, k) == oracles.hirzebruch_jung_walk(m, k), quotients

    @pytest.mark.parametrize("m, k", [(4, 2), (9, 6), (10**40, 10**20), (5, 0)])
    def test_type_that_is_not_reduced_is_an_invariant_failure(self, m, k):
        with pytest.raises(markov.InvariantError):
            planes._hirzebruch_jung_length(m, k)

    def test_long_chain_of_twos(self):
        # type (10^40 + 1, 10^40) resolves by a chain of 10^40 curves
        assert planes._hirzebruch_jung_length(10**40 + 1, 10**40) == oracles.hirzebruch_jung_walk(10**40 + 1, 10**40) == 10**40
        assert oracles.cone_resolution_count((1, 0), (1, 10**40 + 1)) == 10**40
        n = 10**40
        assert planes.singularity_report(DegreeMatrix(1, (1, n, n + 1), (0, 0, 0))).res_curves == (0, 1, n)


#: free parts for the differential test: 1, so that some ``u_k = 1``, small, or of 20 to 30 digits
FREE_PARTS = st.one_of(st.just(1), st.integers(2, 10**6), st.integers(10**19, 10**30 - 1))


@st.composite
def large_degree_matrices(draw):
    """Valid degree matrices with ``mu`` in 1..60 and free parts of up to 30
    digits: common factors are divided out of the drawn free parts, and each
    torsion entry is drawn among the residues that keep every pair of
    columns generating ``K``."""
    mu = draw(st.integers(1, 60))
    u = list(draw(st.tuples(FREE_PARTS, FREE_PARTS, FREE_PARTS)))
    for k in (1, 2):
        while (g := gcd(u[k], prod(u[:k]))) > 1:
            u[k] //= g
    eta = []
    for k in range(3):
        allowed = [e for e in range(mu) if all(abelian.pair_generates((u[j], eta[j]), (u[k], e), mu) for j in range(k))]
        if not allowed:
            reject()
        eta.append(draw(st.sampled_from(allowed)))
    return DegreeMatrix(mu, tuple(u), tuple(eta))


class TestCurveCountFromTheDegreeMatrix:
    @settings(max_examples=300, deadline=None)
    @given(large_degree_matrices())
    @example(DegreeMatrix(1, (1, 10**29 + 1, 10**29 + 2), (0, 0, 0)))
    @example(DegreeMatrix(60, (1, 7, 10**29 + 4), (0, 1, 1)))
    def test_agrees_with_the_fan_cone(self, q):
        p = oracles.generator_of(q)
        for k in range(3):
            assert planes.resolution_curve_count(q, k) == oracles.cone_resolution_count(*p.cone_of_fixed_point(k)), (q, k)

    @pytest.mark.parametrize("shift", [1, 2], ids=["free part", "torsion part"])
    def test_a_wrong_weight_fails_the_check(self, monkeypatch, shift):
        # at z(2) of (mu=8, u=(1, 1, 2)) a shift by u_2 = 2 keeps the free parts and moves the torsion by a unit
        solve = planes._quotient_weight
        monkeypatch.setattr(planes, "_quotient_weight", lambda q, i, j, k: solve(q, i, j, k) + shift)
        with pytest.raises(markov.InvariantError, match=r"fails q_j = t\*q_i \+ s\*q_k$"):
            planes.resolution_curve_count(mk(8, (1, 1, 2), (0, 1, 3)), 2)

    def test_a_matrix_whose_columns_fail_to_generate_is_a_defect(self):
        # a class record is not checked on construction: pow's refusal must not reach the CLI as exit 2
        plane = planes.ClassifiedPlane(12, (2, 4, 6), (0, 1, 1), 1, ())
        with pytest.raises(markov.InvariantError, match=r"^weight at z\(0\) of ClassifiedPlane\(.*: base is not invertible"):
            planes.singularity_report(plane)


class TestWorkedExamples:
    @pytest.mark.parametrize("example", golden.WORKED_EXAMPLES, ids=lambda e: f"mu{e['mu']}-u{e['u']}")
    def test_full_data(self, example):
        mu, u = example["mu"], example["u"]
        matrices = [mk(mu, u, (0, 1, eta)) for (eta, *_rest) in example["members"]]
        for q, (eta, rows, iota, flags, curves) in zip(matrices, example["members"]):
            printed = GeneratorMatrix(rows)
            assert oracles.corresponds(q, printed)
            computed = oracles.generator_of(q)
            assert computed.weights == planes.fake_weights_of_degree_matrix(q)
            rep = planes.singularity_report(q)
            assert rep.iota == iota
            assert rep.is_t == flags
            assert rep.res_curves == curves
            # the printed generator carries the same per-point data
            for k in range(3):
                v, vp = printed.cone_of_fixed_point(k)
                assert oracles.cone_gorenstein_index(v, vp) == iota[k]
                assert oracles.cone_resolution_count(v, vp) == curves[k]
        iso_pairs = {
            (i, j)
            for i in range(len(matrices))
            for j in range(i + 1, len(matrices))
            if planes.isomorphism_witness(matrices[i], matrices[j]) is not None
        }
        assert iso_pairs == set(example["isomorphic_pairs"])


class TestConstellationTables:
    def test_iota_lies_in_table_and_flags_match(self):
        for c in classified_planes(2000):
            q = c.matrix
            x = oracles.decompose(q.u, q.mu * c.series.a)[0]
            rep = planes.singularity_report(q)
            allowed = golden.CONSTELLATIONS[str(c.series)]
            multipliers = tuple(rep.iota[k] // x[k] for k in range(3))
            assert all(rep.iota[k] == multipliers[k] * x[k] for k in range(3))
            assert multipliers in allowed
            expected_flags = (False, False, True) if str(c.series) in golden.ONE_T_SERIES else (True, True, True)
            assert rep.is_t == expected_flags
            for k in range(3):
                assert rep.cl[k] % rep.iota[k] == 0
                assert rep.iota[k] % x[k] == 0

    def test_brute_force_index_scan(self):
        for c in classified_planes(800):
            for k in range(3):
                assert planes.local_gorenstein_index(c.matrix, k) == oracles.brute_gorenstein_index(c.matrix, k)

    def test_modular_route(self):
        for c in classified_planes(800):
            for k in range(3):
                assert planes.local_gorenstein_index(c.matrix, k) == oracles.modular_gorenstein_index(c.matrix, k)
