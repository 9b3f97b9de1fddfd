"""Degree/generator matrices, adjusted forms, isomorphism, classification."""

import decimal
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import golden
import oracles
from fwpp import abelian, adjacency, cli, markov, planes
from fwpp.abelian import KAutomorphism
from fwpp.planes import DegreeMatrix
from oracles import GeneratorMatrix


def mk(mu, u, eta=None):
    return DegreeMatrix(mu, tuple(u), tuple(eta) if eta else (0, 0, 0))


def series_label(q):
    """The series label of ``q``'s class."""
    return planes._series_of(planes.adjust(q), planes.integral_degree(q))


def columns(q):
    """The columns ``(u_i, eta_i)`` of a degree matrix, as pairs."""
    return tuple(zip(q.u, q.eta))


class TestWeightsAndDegree:
    def test_generator_weights(self):
        assert GeneratorMatrix(((1, 1, -2), (0, 1, -1))).weights == (1, 1, 1)
        assert GeneratorMatrix(((4, 4, -4), (1, -3, 1))).weights == (8, 8, 16)
        assert GeneratorMatrix(((15, 15, -3), (2, -13, 2))).weights == (9, 36, 225)

    def test_degree_matrix_weights(self):
        assert planes.fake_weights_of_degree_matrix(mk(2, (1, 1, 2), (0, 1, 1))) == (2, 2, 4)
        assert planes.fake_weights_of_degree_matrix(mk(1, (1, 4, 5))) == (1, 4, 5)
        assert planes.fake_weights_of_degree_matrix(mk(8, (1, 9, 2), (0, 1, 5))) == (8, 72, 16)

    def test_degree(self):
        assert planes.degree((1, 1, 1)) == 9
        assert planes.degree((8, 8, 16)) == 1
        assert planes.degree((2, 3, 5)) == Fraction(10, 3)

    def test_degree_matrix_validation(self):
        with pytest.raises(ValueError):
            mk(9, (1, 1, 4), (0, 1, 1))  # columns 1,2 generate an index-3 subgroup
        with pytest.raises(ValueError):
            mk(1, (1, 2, 4))  # gcd(2, 4) > 1 in the free group
        with pytest.raises(ValueError):
            mk(4, (1, 1, -2), (0, 1, 1))
        for mu in (0, -3):
            with pytest.raises(ValueError, match="torsion order"):
                mk(mu, (1, 1, 1))

    def test_degree_matrix_fields_are_its_integers(self):
        assert DegreeMatrix._fields == ("mu", "u", "eta")

    def test_list_built_matrices_store_tuples(self):
        q, q_tuple = DegreeMatrix(8, [1, 1, 2], [0, 1, 3]), DegreeMatrix(8, (1, 1, 2), (0, 1, 3))
        assert q == q_tuple and hash(q) == hash(q_tuple)
        assert (q.u, q.eta) == ((1, 1, 2), (0, 1, 3))
        assert str(series_label(q)) == "1-8-3"
        p, p_tuple = GeneratorMatrix([[4, 4, -4], [1, -3, 1]]), GeneratorMatrix(((4, 4, -4), (1, -3, 1)))
        assert p == p_tuple and hash(p) == hash(p_tuple)
        assert p.rows == ((4, 4, -4), (1, -3, 1)) and p.weights == (8, 8, 16)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(((1, 1, 2), (0, 1, 1)))  # halfplane only
        with pytest.raises(ValueError):
            GeneratorMatrix(((2, 1, -1), (0, 1, -1)))  # imprimitive column


class TestCorrespondence:
    @pytest.mark.parametrize("rows,mu,u,eta", golden.MATRIX_TABLE)
    def test_published_pairs(self, rows, mu, u, eta):
        q = mk(mu, u, eta)
        p = GeneratorMatrix(rows)
        assert oracles.corresponds(q, p)

    def test_generator_of_matches_published_up_to_row_ops(self):
        for rows, mu, u, eta in golden.MATRIX_TABLE:
            q = mk(mu, u, eta)
            computed = oracles.generator_of(q)
            hnf_pub, _ = oracles.hermite_normal_form([list(r) for r in rows])
            hnf_own, _ = oracles.hermite_normal_form([list(r) for r in computed.rows])
            assert hnf_pub == hnf_own

    def test_kernel_examples(self):
        q = mk(8, (1, 1, 2), (0, 1, 3))
        p = oracles.generator_of(q)
        ref, _ = oracles.hermite_normal_form([[4, 4, -4], [1, -3, 1]])
        own, _ = oracles.hermite_normal_form([list(r) for r in p.rows])
        assert ref == own
        q = mk(9, (1, 4, 25), (0, 1, 5))
        p = oracles.generator_of(q)
        ref, _ = oracles.hermite_normal_form([[5, 5, -1], [1, -44, 7]])
        own, _ = oracles.hermite_normal_form([list(r) for r in p.rows])
        assert ref == own

    def test_correspondence_rejects_wrong_eta(self):
        p = GeneratorMatrix(((4, 4, -4), (1, -3, 1)))
        assert oracles.corresponds(mk(8, (1, 1, 2), (0, 1, 3)), p)
        assert not oracles.corresponds(mk(8, (1, 1, 2), (0, 1, 1)), p)
        assert not oracles.corresponds(mk(8, (1, 1, 2), (0, 1, 5)), p)


def digits(n):
    """The decimal text of ``n``, at any size."""
    return str(decimal.Decimal(n))


class TestDefectsPastTheDigitLimit:
    """A defect on integers past the 4,300 digits ``str(int)`` writes by default raises
    ``InvariantError`` naming them in full, never the digit limit's ``ValueError``."""

    U = (10**5000, 1, 1)  # u[0] has 5,001 digits; no integral degree, but a plane

    def test_generator_of_failing_the_correspondence_test(self, monkeypatch):
        monkeypatch.setattr(oracles, "corresponds", lambda q, p: False)
        with pytest.raises(markov.InvariantError) as info:
            oracles.generator_of(mk(1, self.U))
        u0 = digits(self.U[0])
        assert str(info.value) == f"kernel basis of DegreeMatrix(mu=1, u=({u0}, 1, 1), eta=(0, 0, 0)) fails the correspondence test"

    def test_generator_of_with_a_refused_kernel_basis(self, monkeypatch):
        real = oracles.validate_generator_matrix

        def negate(rows):  # the kernel basis with its first column negated
            return real(tuple((-r[0], *r[1:]) for r in rows))

        monkeypatch.setattr(oracles, "validate_generator_matrix", negate)
        with pytest.raises(markov.InvariantError) as info:
            oracles.generator_of(mk(1, self.U))
        u0 = digits(self.U[0])
        assert str(info.value).startswith(f"kernel basis of DegreeMatrix(mu=1, u=({u0}, 1, 1), eta=(0, 0, 0)): columns of ((-1, ")
        assert str(info.value).endswith(") do not positively span the plane")

    def test_classify_given_a_node_off_its_equation(self, monkeypatch):
        u = (1, 1, 10**5000)
        monkeypatch.setattr(markov, "enumerate_tree", lambda a, bound, **kwargs: oracles.tree_of(a, bound, None, ((u,),), ()))
        with pytest.raises(markov.InvariantError) as info:
            planes.classify(9, 10**5001)
        assert str(info.value) == f"classified node (1, 1, {digits(u[2])}) of mu 1 is not of degree 9"


class TestAdjust:
    def test_idempotent(self):
        q = mk(4, (1, 1, 2), (0, 1, 1))
        adjusted = planes.adjust(q)
        assert adjusted is q  # already adjusted: same column order, returned itself
        assert planes.adjust(adjusted) == adjusted

    def test_permutes_and_normalizes(self):
        q = mk(2, (2, 1, 1), (1, 0, 1))
        assert planes.adjust(q) == mk(2, (1, 1, 2), (0, 1, 1))

    def test_sporadic_merges(self):
        assert planes.adjust(mk(9, (1, 1, 1), (0, 1, 5))) == mk(9, (1, 1, 1), (0, 1, 2))
        assert planes.adjust(mk(9, (1, 1, 1), (0, 1, 8))) == mk(9, (1, 1, 1), (0, 1, 2))
        assert planes.adjust(mk(9, (1, 1, 4), (0, 1, 8))) == mk(9, (1, 1, 4), (0, 1, 5))
        assert planes.adjust(mk(9, (1, 1, 4), (0, 1, 2))) == mk(9, (1, 1, 4), (0, 1, 2))
        assert planes.adjust(mk(8, (1, 1, 2), (0, 1, 7))) == mk(8, (1, 1, 2), (0, 1, 3))
        assert planes.adjust(mk(8, (1, 1, 2), (0, 1, 1))) == mk(8, (1, 1, 2), (0, 1, 1))

    def test_non_integral_degree_rejected(self):
        with pytest.raises(ValueError):
            planes.adjust(mk(1, (2, 3, 5)))

    def test_adjusted_input_is_returned_itself(self):
        for a in golden.SOLVABLE_PARAMETERS:
            for c in planes.classify(a, 10**6):
                q = c.matrix
                assert planes.adjust(q) is q

    def test_a_class_record_adjusts_to_its_matrix(self):
        for a in golden.SOLVABLE_PARAMETERS:
            for c in planes.classify(a, 10**6):
                q = planes.adjust(c)
                assert type(q) is DegreeMatrix and q == c.matrix

    def test_free_group_needs_the_identity_automorphism(self):
        # at mu = 1 every residue and modular inverse is 0, so normalizing
        # the torsion row applies (k, m) -> (k, 0), in every column order
        classes = [c for a in golden.SOLVABLE_PARAMETERS for c in planes.classify(a, 10**6, mu=1)]
        assert {c.series.a for c in classes} == {5, 6, 8, 9}
        for c in classes:
            for perm in ((0, 1, 2), (2, 0, 1)):
                permuted = oracles.permuted(c.matrix, perm)
                adjusted = planes.adjust(permuted)
                assert adjusted == c.matrix and adjusted.eta == (0, 0, 0)
                assert planes.isomorphism_witness(permuted, adjusted)[0] == KAutomorphism(1, 0, 0)

    def test_non_integral_degree_message(self):
        q = mk(1, (2, 3, 5))
        expected = f"degree {Fraction(100, 30)} of {q} is not integral"
        assert expected == "degree 10/3 of DegreeMatrix(mu=1, u=(2, 3, 5), eta=(0, 0, 0)) is not integral"
        with pytest.raises(ValueError) as info:
            planes.integral_degree(q)
        assert str(info.value) == expected

    def test_adjust_is_isomorphic_to_input(self):
        for c in planes.classify(1, 300):
            for eta in planes.SERIES_ETAS[(1, c.matrix.mu)]:
                try:
                    q = mk(c.matrix.mu, c.matrix.u, (0, 1, eta))
                except ValueError:
                    continue
                assert planes.isomorphism_witness(q, planes.adjust(q)) is not None


class TestIsomorphism:
    def test_sporadic_pairs(self):
        assert planes.isomorphism_witness(mk(9, (1, 1, 1), (0, 1, 2)), mk(9, (1, 1, 1), (0, 1, 5))) is not None
        assert planes.isomorphism_witness(mk(9, (1, 1, 4), (0, 1, 5)), mk(9, (1, 1, 4), (0, 1, 8))) is not None
        assert planes.isomorphism_witness(mk(9, (1, 4, 25), (0, 1, 2)), mk(9, (1, 4, 25), (0, 1, 5))) is None
        assert planes.isomorphism_witness(mk(8, (1, 1, 2), (0, 1, 3)), mk(8, (1, 1, 2), (0, 1, 7))) is not None
        assert planes.isomorphism_witness(mk(8, (1, 1, 2), (0, 1, 1)), mk(8, (1, 1, 2), (0, 1, 7))) is None

    def test_reflexive_and_mu_mismatch(self):
        q = mk(8, (1, 1, 2), (0, 1, 3))
        assert planes.isomorphism_witness(q, q) is not None
        assert planes.isomorphism_witness(q, mk(4, (1, 1, 2), (0, 1, 3))) is None

    def test_witness_is_valid(self):
        q1 = mk(9, (1, 1, 4), (0, 1, 5))
        q2 = mk(9, (1, 1, 4), (0, 1, 8))
        phi, perm = planes.isomorphism_witness(q1, q2)
        image = [abelian.apply_automorphism(phi, col, q1.mu) for col in columns(q1)]
        assert tuple(image[perm[j]] for j in range(3)) == columns(q2)

    def test_witness_forms_at_most_18_column_images(self, monkeypatch):
        # six column orders, three images each, whatever mu is
        images = []
        real = abelian.apply_automorphism

        def counting(phi, x, mu):
            images.append(x)
            return real(phi, x, mu)

        monkeypatch.setattr(abelian, "apply_automorphism", counting)
        pairs = [
            (mk(9, (1, 1, 1), (0, 1, 2)), mk(9, (1, 1, 1), (0, 1, 5))),
            (mk(9, (1, 4, 25), (0, 1, 2)), mk(9, (1, 4, 25), (0, 1, 5))),
            (mk(1_000_003, (1, 1, 1), (0, 1, 2)), mk(1_000_003, (1, 1, 1), (0, 1, 3))),
            (mk(1_000_003, (1, 1, 1), (0, 1, 2)), mk(1_000_003, (1, 1, 1), (0, 2, 4))),
        ]
        for q1, q2 in pairs:
            images.clear()
            planes.isomorphism_witness(q1, q2)
            assert 0 < len(images) <= 18
        assert planes.isomorphism_witness(*pairs[2]) is None
        assert planes.isomorphism_witness(*pairs[3]) == (KAutomorphism(1, 0, 2), (0, 1, 2))

    def test_witness_matches_oracle_on_classified_pairs(self):
        # distinct classes sharing a weight vector are the hard negatives;
        # every series presentation of a class is a positive
        classes = [c for a in (1, 2, 3, 8, 9) for c in planes.classify(a, 400)]
        for x in classes:
            for y in classes:
                if (x.matrix.mu, x.matrix.u) == (y.matrix.mu, y.matrix.u):
                    assert planes.isomorphism_witness(x.matrix, y.matrix) == oracles.brute_isomorphism_witness(x.matrix, y.matrix)
            for sid in x.all_series:
                q = mk(x.matrix.mu, x.matrix.u, (0, 1 % x.matrix.mu, sid.eta))
                witness = planes.isomorphism_witness(q, x.matrix)
                assert witness is not None
                assert witness == oracles.brute_isomorphism_witness(q, x.matrix)

    def test_equivalence_relation_on_samples(self):
        sample = []
        for u in ((1, 1, 1), (1, 1, 4)):
            for eta in (2, 5, 8):
                sample.append(mk(9, u, (0, 1, eta)))
        for x in sample:
            assert planes.isomorphism_witness(x, x) is not None
            for y in sample:
                assert (planes.isomorphism_witness(x, y) is None) == (planes.isomorphism_witness(y, x) is None)
                for z in sample:
                    if planes.isomorphism_witness(x, y) is not None and planes.isomorphism_witness(y, z) is not None:
                        assert planes.isomorphism_witness(x, z) is not None


class TestClassify:
    def test_degree_4(self):
        classes = planes.classify(4, 16)
        assert [(str(c.series), c.matrix) for c in classes] == [
            ("4-2-1", mk(2, (1, 1, 2), (0, 1, 1)))
        ]

    def test_degree_7_empty(self):
        assert planes.classify(7, 10**4) == []

    def test_degree_5_small(self):
        classes = planes.classify(5, 10)
        assert [(str(c.series), c.matrix.u) for c in classes] == [("5-1-0", (1, 4, 5))]

    def test_exception_merges_at_degree_1(self):
        classes = [c for c in planes.classify(1, 32) if c.matrix.mu == 8]
        assert [c.matrix.eta[2] for c in classes] == [1, 3, 5]
        merged = [c for c in classes if len(c.all_series) == 2]
        assert len(merged) == 1 and merged[0].matrix.eta[2] == 3

    def test_all_24_series_appear(self):
        seen = set()
        for a in (1, 2, 3, 4, 5, 6, 8, 9):
            for c in planes.classify(a, 400):
                for s in c.all_series:
                    seen.add(str(s))
        assert seen == set(golden.ALL_SERIES)

    def test_roundtrip_through_generator(self):
        for a in (1, 2, 3, 4, 5, 6, 8, 9):
            for c in planes.classify(a, 300):
                p = oracles.generator_of(c.matrix)
                q2 = DegreeMatrix(*oracles.cokernel_structure([list(r) for r in p.rows]))
                assert planes.isomorphism_witness(c.matrix, q2) is not None

    def test_weights_solve_scaled_equation(self):
        for a in (1, 2, 3, 4, 5, 6, 8, 9):
            for c in planes.classify(a, 400):
                w = c.weights
                assert markov.is_solution(w, a)
                assert markov.is_solution(c.matrix.u, c.matrix.mu * a)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            planes.classify(0, 10)

    @pytest.mark.parametrize("a", [7, 9])
    def test_negative_node_cap_is_refused(self, a):
        # 7 has no family, whose tree would refuse the cap; 9 has one
        with pytest.raises(ValueError, match="node cap must be non-negative, got -1"):
            planes.classify(a, 10, max_nodes=-1)

    def test_node_cap_counts_classes_past_the_trees(self):
        # each degree-1 tree at 600 has at most 5 nodes; the four families have 45 classes
        with pytest.raises(markov.EnumerationCapExceeded, match="^45 classes exceed the node cap 5$"):
            planes.classify(1, 600, max_nodes=5)
        assert len(planes.classify(1, 600, max_nodes=45)) == 45

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6, 8, 9])
    def test_mu_filter_partitions_the_classification(self, a):
        bound = 10**5 if a == 1 else 10**6
        parts = []
        for deg, mu in planes.SERIES_FAMILIES:
            if deg == a:
                part = planes.classify(a, bound, mu=mu)
                assert part and all(c.matrix.mu == mu for c in part)
                parts.extend(part)
        parts.sort(key=lambda c: (c.norm, c.u, c.eta, c.mu))
        assert planes.classify(a, bound) == parts

    def test_checks_each_node_once_and_builds_no_matrix(self, monkeypatch):
        # degree 5 has one family with one eta and no ties among the
        # entries: each node is checked once, and its class is a record
        # built without any DegreeMatrix; its graph solves each partner on
        # the integers of its node, so it builds none either
        counts = {"node": 0, "matrix": 0, "partner": 0}
        real_check, real_partner = planes._check_node, adjacency._partner

        def checking(*args):
            counts["node"] += 1
            real_check(*args)

        real_new = DegreeMatrix.__new__

        def new(cls, *args):
            counts["matrix"] += 1
            return real_new(cls, *args)

        def partner(*args):
            counts["partner"] += 1
            return real_partner(*args)

        monkeypatch.setattr(planes, "_check_node", checking)
        monkeypatch.setattr(DegreeMatrix, "__new__", new)
        monkeypatch.setattr(adjacency, "_partner", partner)
        classes = planes.classify(5, 10**12)
        assert len(classes) == len(markov.enumerate_tree(5, 10**12).nodes) == counts["node"] == 125
        assert counts["matrix"] == 0
        graph = adjacency.adjacency_graph(5, 1, 10**12)
        assert len(graph.nodes) == 125 and graph.edges
        assert counts["partner"] >= len(graph.edges) and counts["matrix"] == 0
        monkeypatch.undo()
        assert all(c.weights == planes.fake_weights_of_degree_matrix(c.matrix) for c in classes)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 12), st.tuples(*[st.integers(1, 60)] * 3), st.integers(0, 11))
    def test_node_checks_match_the_constructor(self, mu, u, e):
        # classify's family check (a reduced unit) and _check_node accept
        # exactly the matrices (u; 0, 1, eta) the constructor accepts
        eta = (0, 1 % mu, e % mu)
        try:
            DegreeMatrix(mu, u, eta)
        except ValueError:
            accepted = False
        else:
            accepted = True
        try:
            planes._check_node(u, mu, (eta[2],))
        except markov.InvariantError:
            checked = False
        else:
            checked = gcd(eta[2], mu) == 1
        assert checked == accepted

    def test_a_non_unit_series_eta_is_a_defect(self, monkeypatch):
        monkeypatch.setitem(planes.SERIES_ETAS, (1, 8), (1, 2, 3, 5, 7))
        with pytest.raises(markov.InvariantError, match="not all reduced units mod 8"):
            planes.classify(1, 10**6)

    def test_a_unit_eta_failing_columns_1_2_is_a_defect(self, monkeypatch):
        # 1 is a unit mod 9, but (1, 1, 1; 0, 1, 1) has equal columns 1 and 2
        monkeypatch.setitem(planes.SERIES_ETAS, (1, 9), (1, 2, 5, 8))
        with pytest.raises(markov.InvariantError, match="columns 1,2"):
            planes.classify(1, 10**6)

    def test_a_refused_tied_node_matrix_is_a_defect(self, monkeypatch):
        # _check_node certified the matrices of the tied node (1, 1, 2) of (1, 8): a refusal is no input error
        monkeypatch.setattr(abelian, "pair_generates", lambda *args: False)
        with pytest.raises(markov.InvariantError, match=r"^tied node \(1, 1, 2\) of mu 8: columns 0,1 .* fail to generate the class group$"):
            planes.classify(1, 1000)

    def test_a_refused_tied_node_adjustment_is_a_defect(self, monkeypatch):
        def refuse(mu, u, eta, perms):
            raise ValueError("normalization refused")

        monkeypatch.setattr(planes, "_adjusted", refuse)
        with pytest.raises(markov.InvariantError, match=r"^tied node \(1, 1, 2\) of mu 8: normalization refused$"):
            planes.classify(1, 1000)

    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    def test_equals_the_normalizing_oracle(self, a):
        # same classes, matrices, labels, merged labels and order as adjusting
        # every eta of every node: ClassifiedPlane equality compares norm, u,
        # eta, mu and all_series, so the label is the oracle's least merged one
        assert planes.classify(a, 10**48) == oracles.normalizing_classify(a, 10**48)
        for deg, mu in planes.SERIES_FAMILIES:
            if deg == a:
                assert planes.classify(a, 10**24, mu=mu) == oracles.normalizing_classify(a, 10**24, mu=mu)

    def test_one_canonical_pass_per_node(self, monkeypatch):
        # no runtime witness search and no public adjust; each node is
        # arranged once, and only a node with tied entries is arranged
        # again, for the orders of its arranged triple, normalizes its etas
        # and labels its merged classes
        calls = {"witness": 0, "arrangements": 0, "adjust": 0, "labels": 0}
        normalized = []
        real_adjusted = planes._adjusted

        def normalizing(mu, u, eta, perms):
            normalized.append(u)
            return real_adjusted(mu, u, eta, perms)

        monkeypatch.setattr(planes, "_adjusted", normalizing)

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(planes, "isomorphism_witness", "witness")
        counted(markov, "admissible_arrangements", "arrangements")
        counted(planes, "adjust", "adjust")
        counted(planes, "_series_of", "labels")
        classes = planes.classify(1, 10**12)
        arrangements = calls["arrangements"]
        trees = [(mu, markov.enumerate_tree(mu, 10**12 // mu).nodes) for a, mu in planes.SERIES_FAMILIES if a == 1]
        nodes = sum(len(t) for _, t in trees)
        tied = [(markov.arrange(u, mu)[0], mu) for mu, t in trees for u in t if len(markov.admissible_arrangements(u, mu)) > 1]
        assert len(classes) >= nodes > 0
        assert calls["witness"] == calls["adjust"] == 0
        tied_nodes = {(tuple(sorted(u)), mu) for u, mu in tied}
        assert calls["labels"] == sum((tuple(sorted(c.matrix.u)), c.matrix.mu) in tied_nodes for c in classes) > 0
        assert sorted(tied) == [((1, 1, 1), 9), ((1, 1, 2), 8), ((1, 1, 4), 9)]
        assert arrangements == nodes + len(tied)
        # each tied node normalizes each of its family's etas, and no other node normalizes
        assert sorted(normalized) == sorted(u for u, mu in tied for _ in planes.SERIES_ETAS[(1, mu)])

    def test_series_weights_and_matrix_are_derived(self):
        c = planes.classify(2, 100)[0]
        assert c == planes.ClassifiedPlane(c.norm, c.u, c.eta, c.mu, c.all_series)
        assert c.series == c.all_series[0] == min(c.all_series)
        assert c.weights == tuple(c.mu * x for x in c.u)
        assert c.norm == sum(c.weights)
        assert c.matrix == DegreeMatrix(c.mu, c.u, c.eta) and c.matrix is not c.matrix

    def test_a_tied_label_other_than_the_least_merged_one_is_a_defect(self, monkeypatch):
        # the tied node (1, 1, 2) of (1, 8) merges etas 3 and 7 into the adjusted (1, 1, 2; 0, 1, 3)
        real = planes._series_of

        def last_label(q, a):
            return planes.SeriesId(a, 8, 7) if (q.mu, q.u, q.eta) == (8, (1, 1, 2), (0, 1, 3)) else real(q, a)

        assert [c.all_series for c in planes.classify(1, 32, mu=8) if len(c.all_series) > 1] == [
            (planes.SeriesId(1, 8, 3), planes.SeriesId(1, 8, 7))
        ]
        monkeypatch.setattr(planes, "_series_of", last_label)
        with pytest.raises(markov.InvariantError, match="not labelled by the least of its series"):
            planes.classify(1, 32, mu=8)

    def test_mu_filter_without_a_family(self):
        assert planes.classify(1, 10**4, mu=7) == []
        assert planes.classify(7, 10**4, mu=1) == []


class TestSeriesId:
    def test_examples(self):
        assert str(series_label(mk(4, (1, 1, 2), (0, 1, 3)))) == "2-4-3"
        assert str(series_label(mk(1, (1, 2, 3)))) == "6-1-0"
        assert str(series_label(mk(3, (1, 1, 1), (0, 1, 2)))) == "3-3-2"

    def test_unknown_series_raises_the_typed_invariant_error(self, monkeypatch):
        monkeypatch.setattr(planes, "SERIES_ETAS", {(2, 4): (1,)})
        with pytest.raises(AssertionError) as info:
            series_label(mk(4, (1, 1, 2), (0, 1, 3)))
        assert type(info.value) is markov.InvariantError
        assert str(info.value) == "adjusted matrix DegreeMatrix(mu=4, u=(1, 1, 2), eta=(0, 1, 3)) maps to unknown series 2-4-3"


_SAMPLE_CLASSES = None


def sample_classes():
    global _SAMPLE_CLASSES
    if _SAMPLE_CLASSES is None:
        _SAMPLE_CLASSES = [
            c for a in (1, 2, 3, 4, 5, 6, 8, 9) for c in planes.classify(a, 400)
        ]
    return _SAMPLE_CLASSES


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_adjust_recovers_canonical_from_any_presentation(data):
    # equality of adjusted matrices characterizes isomorphism: any
    # automorphism-and-permutation presentation adjusts back to the class
    c = data.draw(st.sampled_from(sample_classes()))
    mu = c.matrix.mu
    phi = data.draw(st.sampled_from(list(oracles.automorphisms(mu, positive_only=True))))
    perm = data.draw(st.permutations(range(3)))
    cols = [abelian.apply_automorphism(phi, col, mu) for col in columns(c.matrix)]
    cols = [cols[i] for i in perm]
    q = DegreeMatrix(mu, tuple(x[0] for x in cols), tuple(x[1] for x in cols))
    assert planes.adjust(q) == c.matrix
    assert planes.isomorphism_witness(q, c.matrix) is not None


def same_weight_classes():
    """Classes of :func:`sample_classes` keyed by torsion order and sorted
    free parts: the distinct classes within a key are the hard negatives."""
    groups = {}
    for c in sample_classes():
        groups.setdefault((c.matrix.mu, tuple(sorted(c.matrix.u))), []).append(c)
    return groups


def random_presentation(data, q):
    """``q`` under a drawn positive automorphism and column order."""
    phi = data.draw(st.sampled_from(list(oracles.automorphisms(q.mu, positive_only=True))))
    return image_of(q, phi, data.draw(st.permutations(range(3))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witness_exists_exactly_when_adjusted_forms_agree(data):
    # the criterion classify merges by: on inputs of integral degree, equal
    # adjusted forms are equivalent to isomorphism, and each input is
    # isomorphic to its adjusted form
    c1 = data.draw(st.sampled_from(sample_classes()))
    group = same_weight_classes()[(c1.matrix.mu, tuple(sorted(c1.matrix.u)))]
    c2 = data.draw(st.one_of(st.sampled_from(group), st.sampled_from(sample_classes())))
    q1 = random_presentation(data, c1.matrix)
    q2 = random_presentation(data, c2.matrix)
    adj1, adj2 = planes.adjust(q1), planes.adjust(q2)
    witness = planes.isomorphism_witness(q1, q2)
    assert (witness is not None) == (adj1 == adj2) == (c1 == c2)
    assert witness == oracles.brute_isomorphism_witness(q1, q2)
    assert planes.isomorphism_witness(q1, adj1) is not None
    assert planes.isomorphism_witness(q2, adj2) is not None


def draw_eta(draw, mu, u):
    """Torsion row drawn entry by entry among the residues that keep every
    column pair generating; rejects only when no residue is left, so every
    valid row stays reachable."""
    eta = []
    for k in range(3):
        allowed = [
            e for e in range(mu)
            if all(abelian.pair_generates((u[j], eta[j]), (u[k], e), mu) for j in range(k))
        ]
        if not allowed:
            reject()
        eta.append(draw(st.sampled_from(allowed)))
    return tuple(eta)


@st.composite
def degree_matrices(draw, max_mu=29):
    """Small valid degree matrices: pairwise coprime free parts and torsion
    parts with every pair of columns generating the group."""
    mu = draw(st.integers(1, max_mu))
    u0 = draw(st.integers(1, 12))
    u1 = draw(st.sampled_from([x for x in range(1, 13) if gcd(x, u0) == 1]))
    u2 = draw(st.sampled_from([x for x in range(1, 13) if gcd(x, u0 * u1) == 1]))
    return DegreeMatrix(mu, (u0, u1, u2), draw_eta(draw, mu, (u0, u1, u2)))


def image_of(q, phi, perm):
    cols = [abelian.apply_automorphism(phi, col, q.mu) for col in columns(q)]
    cols = [cols[i] for i in perm]
    return DegreeMatrix(q.mu, tuple(x[0] for x in cols), tuple(x[1] for x in cols))


@settings(max_examples=150, deadline=None)
@given(degree_matrices(), st.data())
def test_witness_matches_oracle_on_isomorphic_images(q, data):
    phi = KAutomorphism(1, data.draw(st.integers(0, q.mu - 1)), data.draw(st.sampled_from(oracles.units(q.mu))))
    q2 = image_of(q, phi, data.draw(st.permutations(range(3))))
    witness = planes.isomorphism_witness(q, q2)
    assert witness is not None
    assert witness == oracles.brute_isomorphism_witness(q, q2)


@settings(max_examples=150, deadline=None)
@given(degree_matrices(), st.permutations(range(3)), st.data())
def test_witness_matches_oracle_on_random_pairs(q, perm, data):
    u2 = tuple(q.u[i] for i in perm)
    q2 = DegreeMatrix(q.mu, u2, draw_eta(data.draw, q.mu, u2))
    assert planes.isomorphism_witness(q, q2) == oracles.brute_isomorphism_witness(q, q2)


@settings(max_examples=50, deadline=None)
@given(degree_matrices(max_mu=1), st.permutations(range(3)))
def test_witness_matches_oracle_at_mu_one(q, perm):
    q2 = oracles.permuted(q, perm)
    witness = planes.isomorphism_witness(q, q2)
    assert witness == oracles.brute_isomorphism_witness(q, q2)
    assert witness[0] == KAutomorphism(1, 0, 0)


#: row entries for the annihilation differential: small, and of 20 to 31 digits
ROW_ENTRIES = st.one_of(st.integers(-60, 60), st.integers(10**19, 10**30), st.integers(-(10**30), -(10**19)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(degree_matrices(), degree_matrices(max_mu=1)), st.data())
def test_integer_annihilation_matches_element_sum(q, data):
    # rows are random, integer combinations of the kernel rows (always
    # annihilating), or such combinations shifted by a row of free sum zero,
    # which annihilates only when mu divides its torsion sum
    k1, k2 = oracles.generator_of(q).rows
    free_zero = (q.u[1], -q.u[0], 0)
    rows, kinds = [], set()
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["random", "kernel", "free_zero"]))
        if kind == "random":
            row = tuple(data.draw(ROW_ENTRIES) for _ in range(3))
        else:
            a, b, t = (data.draw(ROW_ENTRIES) for _ in range(3))
            row = tuple(a * x + b * y for x, y in zip(k1, k2))
            if kind == "free_zero":
                row = tuple(r + t * z for r, z in zip(row, free_zero))
        rows.append(row)
        kinds.add(kind)
    expected = oracles.k_annihilates(q, rows)
    assert abelian.annihilates(rows, q.u, q.eta, q.mu) == expected
    if kinds == {"kernel"}:
        assert expected


class TestSerialization:
    def test_degree_matrix_json_roundtrip(self):
        q = mk(8, (1, 9, 2), (0, 1, 5))
        assert cli._read_matrix_arg(oracles.dumps(oracles.matrix_obj(q))) == q

    def test_plane_json(self):
        c = planes.classify(2, 50)[0]
        obj = json.loads(cli._class_json(c, True))
        assert obj["series"] in {"2-4-1", "2-4-3", "2-3-1", "2-3-2"}
        assert all(isinstance(x, str) for x in obj["weights"])
        assert set(obj["report"]) == {"cl", "iota", "isT", "d", "resCurves"}

    def test_torsion_order_past_the_str_digit_limit(self):
        mu_text = "3" + "0" * 4998 + "1"
        q = cli._read_matrix_arg(json.dumps({"mu": mu_text, "u": ["1", "1", "1"], "eta": ["0", "1", "2"]}))
        assert q == DegreeMatrix(3 * 10**4999 + 1, (1, 1, 1), (0, 1, 2))

    def test_integers_past_the_str_digit_limit(self):
        # str(int) refuses more than 4,300 digits by default; 18 mutations
        # of the smallest entry of (1, 1, 1) at a = 9 pass 10^5000
        u = (1, 1, 1)
        while u[2] < 10**5000:
            u = tuple(sorted((u[1], u[2], (u[1] + u[2]) ** 2 // u[0])))
        assert markov.is_solution(u, 9) and u[2] > 10**4300

        def parsed(texts):
            return [int(decimal.Decimal(x)) for x in texts]

        tree = oracles.tree_of(9, markov.norm(u), None, ((u,),), ())
        node = json.loads("".join(cli._tree_json(tree)))["nodes"][0]
        assert parsed(node["u"]) == list(u) and parsed([node["norm"]]) == [markov.norm(u)]
        q = planes.adjust(DegreeMatrix(1, u, (0, 0, 0)))
        c = oracles.classified_plane(q, [series_label(q)])
        obj = json.loads(cli._class_json(c, True))
        assert parsed(obj["u"]) == list(q.u) and parsed(obj["weights"]) == list(c.weights)
        assert parsed(obj["report"]["cl"]) == list(c.weights)
        # text output: labels, tables and the parser reading them back
        text = [str(decimal.Decimal(x)) for x in u]
        assert [cli.integer(x) for x in text] == list(u)
        assert cli._row("%s\t%s\t%s", u) == "\t".join(text)
        assert f'"({",".join(text)})";' in "".join(cli._tree_dot(tree))
        assert cli._label(q) == f"({','.join(text)})"
