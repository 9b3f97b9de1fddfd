"""Local class groups, Gorenstein indices, T-singularities, resolutions.

The Gorenstein index is computed by three independent routes (group
arithmetic, a brute multiple scan and the cone formula on a corresponding
generator matrix) and by a fourth, modular route on adjusted matrices;
resolution counts are cross-checked against a convex hull oracle and the
negative continued fraction walked entry by entry.
"""

import random
from math import gcd

import pytest

import golden
import oracles
from fwpp import markov, planes
from fwpp.planes import DegreeMatrix, GeneratorMatrix


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
            d = markov.decompose(markov.SolutionTriple(q.mu * c.series.a, tuple(sorted(q.u))))
            coeff = 1
            target = q.mu * c.series.a * d.xi[1] * d.xi[2]
            while coeff * coeff < target:
                coeff += 1
            assert coeff * coeff == target
            wz_free, wz_tors = planes.anticanonical_class(q)
            assert wz_free == coeff * d.x[0] * d.x[1] * d.x[2]
            key = str(c.series)
            if key in golden.ANTICANONICAL_TORSION:
                assert wz_tors == golden.ANTICANONICAL_TORSION[key]


class TestLocalInvariants:
    def test_class_group_orders(self):
        assert planes.local_class_group_order(mk(4, (1, 1, 2), (0, 1, 1)), 2) == 8
        assert planes.local_class_group_order(mk(1, (1, 4, 5)), 0) == 1
        assert planes.local_class_group_order(mk(9, (1, 1, 1), (0, 1, 2)), 1) == 9

    def test_gorenstein_examples(self):
        assert [planes.local_gorenstein_index(mk(3, (1, 2, 3), (0, 1, 1)), k) for k in range(3)] == [3, 3, 1]
        assert [planes.local_gorenstein_index(mk(8, (1, 1, 2), (0, 1, 3)), k) for k in range(3)] == [2, 1, 4]
        assert [planes.local_gorenstein_index(mk(1, (1, 1, 1)), k) for k in range(3)] == [1, 1, 1]

    def test_t_singularity_examples(self):
        q = mk(8, (1, 1, 2), (0, 1, 1))
        assert planes.is_t_singular(q, 0) == (False, None)
        flag, d = planes.is_t_singular(q, 2)
        assert flag and d * planes.local_gorenstein_index(q, 2) ** 2 == 16
        flag, d = planes.is_t_singular(mk(1, (1, 4, 5)), 0)
        assert flag and d == 1

    def test_charts(self):
        assert planes.t_singular_chart(1, 1, 0) == ((1, 1), (1, 0))
        chart = planes.t_singular_chart(2, 2, 1)
        assert chart == ((2, 2), (5, 1))
        assert abs(chart[0][0] * chart[1][1] - chart[0][1] * chart[1][0]) == 8
        chart = planes.t_singular_chart(4, 1, 1)
        assert chart == ((4, 4), (5, 1))
        assert abs(chart[0][0] * chart[1][1] - chart[0][1] * chart[1][0]) == 16
        with pytest.raises(ValueError):
            planes.t_singular_chart(4, 1, 2)

    def test_chart_invariants_match_their_parameters(self):
        for iota, d, b in [(2, 2, 1), (3, 1, 2), (4, 1, 3), (5, 2, 4)]:
            rows = planes.t_singular_chart(iota, d, b)
            cols = ((rows[0][0], rows[1][0]), (rows[0][1], rows[1][1]))
            assert oracles.cone_gorenstein_index(*cols) == iota
            assert abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == d * iota * iota


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
            p = planes.generator_of(c.matrix)
            for k in range(3):
                assert oracles.cone_gorenstein_index(*p.cone_of_fixed_point(k)) == planes.local_gorenstein_index(c.matrix, k)


class TestResolutionCounts:
    def test_smooth(self):
        assert planes.resolution_curve_count((1, 0), (0, 1)) == 0

    def test_example_cones(self):
        p = GeneratorMatrix(((3, 3, -6), (1, -2, 1)))
        assert [planes.resolution_curve_count(*p.cone_of_fixed_point(k)) for k in range(3)] == [2, 8, 2]
        p = GeneratorMatrix(((1, 1, -1), (0, -16, 8)))
        assert [planes.resolution_curve_count(*p.cone_of_fixed_point(k)) for k in range(3)] == [1, 1, 15]

    def test_hull_oracle_agreement(self):
        for c in classified_planes(260):
            p = planes.generator_of(c.matrix)
            for k in range(3):
                v, vp = p.cone_of_fixed_point(k)
                assert planes.resolution_curve_count(v, vp) == oracles.hull_resolution_count(v, vp)

    def test_hull_oracle_on_every_small_cone_type(self):
        # cone(e1, (m - k, m)) is the cyclic quotient singularity of type (m, k)
        for m in range(2, 600):
            for k in range(1, m):
                if gcd(m, k) == 1:
                    cone = ((1, 0), (m - k, m))
                    count = planes.resolution_curve_count(*cone)
                    assert count == oracles.hull_resolution_count(*cone) == oracles.hirzebruch_jung_walk(m, k), (m, k)

    def test_walk_oracle_on_large_cone_types(self):
        rng = random.Random(20)
        for _ in range(2000):
            digits = rng.randrange(20, 401)
            m = rng.randrange(10 ** (digits - 1), 10**digits)
            k = rng.randrange(1, m)
            while gcd(m, k) != 1:
                k = rng.randrange(1, m)
            assert planes.resolution_curve_count((1, 0), (m - k, m)) == oracles.hirzebruch_jung_walk(m, k), (m, k)

    def test_walk_oracle_on_large_partial_quotients(self):
        # m/k = [a1; a2, ..., an + 1] with partial quotients of up to 40 digits,
        # so runs of up to 10^40 entries 2 sit at every position of the expansion
        rng = random.Random(20)
        for _ in range(500):
            quotients = [rng.randrange(1, 10 ** rng.randrange(1, 41)) for _ in range(rng.randrange(1, 12))]
            m, k = quotients[-1] + 1, 1
            for a in reversed(quotients[:-1]):
                m, k = a * m + k, m
            assert planes.resolution_curve_count((1, 0), (m - k, m)) == oracles.hirzebruch_jung_walk(m, k), quotients

    @pytest.mark.parametrize("m, k", [(4, 2), (9, 6), (10**40, 10**20), (5, 0)])
    def test_type_that_is_not_reduced_is_an_invariant_failure(self, m, k):
        with pytest.raises(markov.InvariantError):
            planes._hirzebruch_jung_length(m, k)

    def test_long_chain_of_twos(self):
        # type (10^40 + 1, 10^40) resolves by a chain of 10^40 curves
        assert planes.resolution_curve_count((1, 0), (1, 10**40 + 1)) == 10**40
        n = 10**40
        assert planes.singularity_report(DegreeMatrix(1, (1, n, n + 1), (0, 0, 0))).res_curves == (0, 1, n)


class TestWorkedExamples:
    @pytest.mark.parametrize("example", golden.WORKED_EXAMPLES, ids=lambda e: f"mu{e['mu']}-u{e['u']}")
    def test_full_data(self, example):
        mu, u = example["mu"], example["u"]
        matrices = [mk(mu, u, (0, 1, eta)) for (eta, *_rest) in example["members"]]
        for q, (eta, rows, iota, flags, curves) in zip(matrices, example["members"]):
            printed = GeneratorMatrix(rows)
            assert planes.corresponds(q, printed)
            computed = planes.generator_of(q)
            assert computed.weights == planes.fake_weights_of_degree_matrix(q)
            rep = planes.singularity_report(q)
            assert rep.iota == iota
            assert rep.is_t == flags
            assert rep.res_curves == curves
            # the printed generator carries the same per-point data
            for k in range(3):
                v, vp = printed.cone_of_fixed_point(k)
                assert oracles.cone_gorenstein_index(v, vp) == iota[k]
                assert planes.resolution_curve_count(v, vp) == curves[k]
        iso_pairs = {
            (i, j)
            for i in range(len(matrices))
            for j in range(i + 1, len(matrices))
            if planes.is_isomorphic(matrices[i], matrices[j])
        }
        assert iso_pairs == set(example["isomorphic_pairs"])


class TestConstellationTables:
    def test_iota_lies_in_table_and_flags_match(self):
        for c in classified_planes(2000):
            q = c.matrix
            d = markov.decompose(markov.SolutionTriple(q.mu * c.series.a, tuple(sorted(q.u))))
            x = d.x
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
