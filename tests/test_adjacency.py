"""K*-surface data, adjacent partners, graphs and the self-adjacency census."""

import decimal
import functools
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import oracles
from fwpp import abelian, adjacency, cli, markov, planes
from fwpp.adjacency import KStarData
from fwpp.planes import DegreeMatrix


def mk(mu, u, eta=None):
    return DegreeMatrix(mu, tuple(u), tuple(eta) if eta else (0, 0, 0))


def split_neighbors(q):
    """``(neighbors, self_pairs)`` of ``q``: one pair per partner class other
    than ``q``, sorted by its columns, and the pairs back to ``q`` itself."""
    q_canon = planes.adjust(q)
    pairs = oracles.adjacency_neighbors(q)
    neighbors = {}
    for pair in pairs:
        if pair.q2 != q_canon:
            neighbors.setdefault(pair.q2, pair)
    ordered = sorted(neighbors.values(), key=lambda p: (p.q2.u, p.q2.eta))
    return ordered, [p for p in pairs if p.q2 == q_canon]


@functools.cache
def accepted_kstar_data():
    """Every ``KStarData`` the constructor accepts with ``l1, l2 <= 8``,
    ``-9 <= d0 <= -1`` and ``|d2| <= 20``."""
    return list(oracles.kstar_box(8, 9, 20))


class TestKStarData:
    def test_validation(self):
        KStarData(2, 2, -2, 1, 1)
        KStarData(1, 2, -1, 0, 1)
        with pytest.raises(ValueError):
            KStarData(2, 2, -2, 0, 1)  # d1 = 0 needs l1 = 1
        with pytest.raises(ValueError):
            KStarData(2, 2, -2, 2, 1)  # gcd(l1, d1) != 1
        with pytest.raises(ValueError):
            KStarData(2, 2, 1, 1, 1)  # slope inequality fails

    def test_weight_4vector(self):
        assert oracles.weight_4vector(KStarData(2, 2, -2, 1, 1)) == (4, 4, 4, 4)
        assert oracles.weight_4vector(KStarData(4, 4, -1, 1, 1)) == (8, 8, 4, 4)


class TestSlices:
    def test_examples(self):
        p1, p2 = oracles.slice_matrices(KStarData(2, 2, -2, 1, 1))
        assert p1.rows == ((2, 2, -2), (1, -3, 1))
        assert p1 == p2
        p1, _ = oracles.slice_matrices(KStarData(4, 4, -1, 1, 1))
        assert p1.rows == ((4, 4, -4), (1, -3, 1))

    def test_toric_slice_still_valid(self):
        p1, p2 = oracles.slice_matrices(KStarData(1, 2, -1, 0, 1))
        assert p1.weights == (1, 1, 1)
        assert p2.weights == (1, 1, 4)

    def test_slice_weights_follow_the_mutation(self):
        for kstar in (KStarData(2, 6, -2, 1, 5), KStarData(2, 10, -4, 1, 31), KStarData(3, 9, -1, 1, 2)):
            p1, p2 = oracles.slice_matrices(kstar)
            w1 = p1.weights
            w2 = p2.weights
            assert w1[:2] == w2[:2]
            assert w1[2] == -kstar.d0 * kstar.l1**2
            assert w2[2] == -kstar.d0 * kstar.l2**2
            assert w2[2] * w1[2] == (w1[0] + w1[1]) ** 2

    @settings(max_examples=300, deadline=None)
    @given(st.deferred(lambda: st.sampled_from(accepted_kstar_data())))
    def test_accepted_data_has_valid_slices_of_its_degree(self, kstar):
        # adjacent_partner certifies its surface by this constructor; only this
        # direction holds: (1, 1, 2, 0, -1) has valid slices but is refused
        p1, p2 = oracles.slice_matrices(kstar)  # each validated as a generator matrix
        assert p1.weights[:2] == p2.weights[:2]
        assert (p1.weights[2], p2.weights[2]) == (-kstar.d0 * kstar.l1**2, -kstar.d0 * kstar.l2**2)
        assert planes.degree(p1.weights) == planes.degree(p2.weights) == oracles.kstar_degree(kstar)


class TestKStarDegree:
    def test_examples(self):
        assert oracles.kstar_degree(KStarData(2, 2, -2, 1, 1)) == 2
        assert oracles.kstar_degree(KStarData(4, 4, -1, 1, 1)) == 1

    def test_equals_slice_degrees(self):
        for kstar in (KStarData(2, 2, -2, 1, 1), KStarData(1, 2, -1, 0, 1), KStarData(2, 6, -2, 1, 5)):
            p1, p2 = oracles.slice_matrices(kstar)
            d = oracles.kstar_degree(kstar)
            assert d == planes.degree(p1.weights)
            assert d == planes.degree(p2.weights)

    def test_closed_forms_agree(self):
        for kstar in (KStarData(2, 2, -2, 1, 1), KStarData(3, 3, -1, 1, 1), KStarData(2, 10, -4, 1, 31)):
            w = oracles.weight_4vector(kstar)
            alt = Fraction(-kstar.d0, w[0] * w[1]) * (kstar.l1 + kstar.l2) ** 2
            assert oracles.kstar_degree(kstar) == alt


class TestAssemble3x4:
    def test_minors_match_weight_formula(self):
        for kstar in (KStarData(2, 2, -2, 1, 1), KStarData(4, 4, -1, 1, 1), KStarData(1, 1, -3, 0, 1)):
            p = oracles.assemble_3x4(kstar)
            assert oracles.weights_of_3x4(p) == oracles.weight_4vector(kstar)


class TestAdjacentPartner:
    def test_self_adjacent_2_4_3(self):
        q = mk(4, (1, 1, 2), (0, 1, 3))
        pair = adjacency.adjacent_partner(q, 2)
        assert pair.kstar == KStarData(2, 2, -2, 1, 1)
        assert pair.q2 == planes.adjust(q) and pair.kstar.non_toric and pair.kstar.l1 <= pair.kstar.l2

    def test_self_adjacent_1_8_3(self):
        q = mk(8, (1, 1, 2), (0, 1, 3))
        pair = adjacency.adjacent_partner(q, 2)
        assert pair.kstar == KStarData(4, 4, -1, 1, 1)
        assert pair.q2 == planes.adjust(q) and pair.kstar.non_toric

    def test_projective_plane_partner_is_toric(self):
        pair = adjacency.adjacent_partner(mk(1, (1, 1, 1)), 2)
        assert pair.q2.u == (1, 1, 4)
        assert pair.kstar.l1 == 1 and not pair.kstar.non_toric

    def test_takes_no_gorenstein_index(self):
        # the index is computed, never trusted: a wrong one would report bad input as a library defect
        with pytest.raises(TypeError, match="l1"):
            adjacency.adjacent_partner(mk(2, (1, 1, 2), (0, 1, 1)), 2, l1=2)

    def test_not_t_singular_slot_rejected(self):
        with pytest.raises(adjacency.NotDegenerableError):
            adjacency.adjacent_partner(mk(3, (1, 2, 3), (0, 1, 1)), 0)

    def test_non_integral_degree_refused_before_the_d1_scan(self, monkeypatch):
        # mu = n**2 makes z(2) T-singular with l1 = n and l2 = 2n, so the
        # d1 scan would test candidates in a number growing with sqrt(mu)
        rows_tested = []
        real = abelian.annihilates
        monkeypatch.setattr(abelian, "annihilates", lambda *args: rows_tested.append(args) or real(*args))
        n = 10**4 + 1
        q = mk(n * n, (1, 1, 1), (1, n - 1, 0))
        rep = planes.singularity_report(q)
        assert (rep.is_t[2], rep.d[2]) == (True, 1) and planes.local_gorenstein_index(q, 2) == n
        with pytest.raises(ValueError, match="not integral"):
            adjacency.adjacent_partner(q, 2)
        assert rows_tested == []

    def test_worked_slice_for_1_8_1_deep_node(self):
        pair = adjacency.adjacent_partner(mk(8, (1, 9, 2), (0, 1, 1)), 2)
        assert pair.kstar == KStarData(2, 10, -4, 1, 31)
        p1, _ = oracles.slice_matrices(pair.kstar)
        assert p1.rows == ((2, 2, -10), (1, -7, 31))
        assert pair.q2.u == (1, 9, 50) and pair.q2.eta[2] == 1

    def test_partner_weights_are_the_slot_mutation(self):
        for a in (1, 2, 3, 4, 5, 6, 8, 9):
            for c in planes.classify(a, 700):
                w = planes.fake_weights_of_degree_matrix(c.matrix)
                for slot in range(3):
                    if not planes.singularity_report(c.matrix).is_t[slot]:
                        continue
                    pair = adjacency.adjacent_partner(c.matrix, slot)
                    w2 = planes.fake_weights_of_degree_matrix(pair.q2)
                    rest = [w[j] for j in range(3) if j != slot]
                    mutated = tuple(sorted(rest + [(rest[0] + rest[1]) ** 2 // w[slot]]))
                    assert tuple(sorted(w2)) == mutated
                    assert planes.degree(w2) == planes.degree(w) == oracles.kstar_degree(pair.kstar)
                    # the last fixed point of the partner slice stays at most T-singular
                    flag = planes.singularity_report(pair.q2_raw).is_t[2]
                    assert flag
                    assert planes.local_gorenstein_index(pair.q2_raw, 2) == pair.kstar.l2


@st.composite
def deep_series_members(draw, max_digits=60):
    """A series member reached by a random norm-increasing mutation walk from
    an initial triple, until its largest entry has at least the drawn number
    of digits (at most ``max_digits``); the last step may overshoot it."""
    a, mu = draw(st.sampled_from(planes.SERIES_FAMILIES))
    u = draw(st.sampled_from(sorted(t.u for t in markov.initial_solutions(a * mu))))
    digits = draw(st.integers(1, max_digits))
    while len(str(u[2])) < digits:
        u = draw(st.sampled_from(sorted({v for v in (oracles.play(u, a * mu, k) for k in range(3)) if sum(v) > sum(u)})))
    eta = draw(st.sampled_from(planes.SERIES_ETAS[(a, mu)]))
    return DegreeMatrix(mu, markov.arrange(u, a * mu)[0], (0, 1 % mu, eta % mu))


class TestDeepPartners:
    @settings(max_examples=150, deadline=None)
    @given(deep_series_members())
    def test_partner_is_an_involution_by_the_slot_mutation(self, q):
        w = planes.fake_weights_of_degree_matrix(q)
        q_canon = planes.adjust(q)
        for slot in range(3):
            if not planes.singularity_report(q).is_t[slot]:
                continue
            pair = adjacency.adjacent_partner(q, slot)
            assert adjacency.adjacent_partner(pair.q2_raw, 2).q2 == q_canon
            r0, r1 = (w[j] for j in range(3) if j != slot)
            new, rem = divmod((r0 + r1) ** 2, w[slot])
            assert rem == 0
            assert sorted(planes.fake_weights_of_degree_matrix(pair.q2)) == sorted((r0, r1, new))
            # the partner's norm in closed form, as adjacency_graph prunes by it
            a = planes.integral_degree(q)
            assert sum(planes.fake_weights_of_degree_matrix(pair.q2)) == a * r0 * r1 - sum(w)


class TestPartnerReconstruction:
    def test_agrees_with_the_d1_scan_on_every_graph_node(self):
        # every T-point of every family's graph nodes; the scan is O(l1)
        largest_gcd = 1
        for (a, mu) in planes.SERIES_FAMILIES:
            graph = adjacency.adjacency_graph(a, mu, 10**5 if a == 1 else 10**8)
            for node in graph.nodes:
                q = node.plane.matrix
                for slot in range(3):
                    if not planes.singularity_report(q).is_t[slot]:
                        continue
                    kstar = adjacency.adjacent_partner(q, slot).kstar
                    assert kstar == oracles.scan_partner_kstar(q, slot)
                    largest_gcd = max(largest_gcd, gcd(kstar.l1, kstar.l2))
        assert largest_gcd > 1

    def test_isotropy_orders_with_common_factor(self):
        q = mk(9, (1, 1, 1), (0, 1, 2))
        pair = adjacency.adjacent_partner(q, 2)
        assert pair.kstar == KStarData(l1=3, l2=6, d0=-1, d1=1, d2=1)
        assert pair.kstar == oracles.scan_partner_kstar(q, 2)

    def test_large_index_tests_few_candidates(self, monkeypatch):
        # l1 = 3,071,217 at norm 9.4 * 10^12, where a d1 scan runs 3 * 10^6 steps
        rows_tested = []
        real = abelian.annihilates

        def counting(rows, free, tors, mu):
            rows_tested.append(rows)
            return real(rows, free, tors, mu)

        monkeypatch.setattr(abelian, "annihilates", counting)
        q = mk(3, (5365416001, 98, 3144124620363), (0, 1, 2))
        pair = adjacency.adjacent_partner(q, 2)
        assert pair.kstar == KStarData(l1=3071217, l2=5241, d0=-1, d1=663350, d2=4109)
        # no value of d1 is tested: one call certifies the first slice and one
        # the partner's second; a count of 0 would mean the patch no longer sees the calls
        assert 0 < len(rows_tested) <= 4
        w = planes.fake_weights_of_degree_matrix(q)
        mutated = sorted([w[0], w[1], (w[0] + w[1]) ** 2 // w[2]])
        assert sorted(planes.fake_weights_of_degree_matrix(pair.q2)) == mutated


class TestSliceCokernel:
    def test_closed_form_matches_smith_normal_form_on_every_graph_partner(self):
        # the second slice of every T-point of every family's graph nodes
        slices = 0
        for (a, mu) in planes.SERIES_FAMILIES:
            graph = adjacency.adjacency_graph(a, mu, 10**5 if a == 1 else 10**8)
            for node in graph.nodes:
                q = node.plane.matrix
                for slot in range(3):
                    if not planes.singularity_report(q).is_t[slot]:
                        continue
                    pair = adjacency.adjacent_partner(q, slot)
                    _, p2 = oracles.slice_matrices(pair.kstar)
                    mu, u, _ = oracles.cokernel_structure(p2.rows)
                    mu_ref, u_ref, eta_ref = oracles.snf_cokernel_structure(p2.rows)
                    assert mu == mu_ref == pair.q2_raw.mu
                    assert u == u_ref == pair.q2_raw.u
                    q_ref = DegreeMatrix(mu_ref, u_ref, eta_ref)
                    assert planes.isomorphism_witness(pair.q2_raw, q_ref) is not None
                    assert planes.adjust(q_ref) == pair.q2
                    slices += 1
        assert slices > 1000


def partner_slots():
    """``(q, k)`` for every T-singular slot of every class of the 13
    families: degree 1 below 10^12, the others below 10^24."""
    for (a, mu) in planes.SERIES_FAMILIES:
        for c in planes.classify(a, 10**12 if a == 1 else 10**24, mu=mu):
            for k in range(3):
                if planes.singularity_report(c.matrix).is_t[k]:
                    yield c.matrix, k


class TestClosedFormPartner:
    """The partner solved in ``K`` against the cokernel of the second slice."""

    def test_equals_the_slice_cokernel_and_keeps_columns_i_and_j(self):
        slots = 0
        for q, k in partner_slots():
            pair = adjacency.adjacent_partner(q, k)
            assert pair.q2 == oracles.cokernel_partner(q, k)
            assert pair.kstar == oracles.lift_partner_kstar(q, k)
            raw, mu = pair.q2_raw, q.mu
            i, j = sorted((n for n in range(3) if n != k), key=lambda n: (mu * q.u[n], n))
            assert (raw.u[:2], raw.eta[:2]) == ((q.u[i], q.u[j]), (q.eta[i], q.eta[j]))
            # the two congruences of the torsion column mutation
            e, eta = raw.eta[2], q.eta
            l1, l2 = pair.kstar.l1, pair.kstar.l2
            assert (e * eta[k] - (eta[i] + eta[j]) ** 2) % mu == 0
            assert (l1 * l1 * e - l2 * l2 * eta[k]) % mu == 0
            slots += 1
        assert slots == 11084

    def test_a_wrong_partner_column_is_refused(self, monkeypatch):
        # a Bezout pair that is not one gives a column off the mutation
        monkeypatch.setattr(abelian, "bezout", lambda a, c: (0, 0))
        with pytest.raises(markov.InvariantError, match="free part"):
            adjacency.adjacent_partner(mk(8, (1, 9, 2), (0, 1, 1)), 2)

    def test_two_annihilation_certificates_per_partner(self, monkeypatch):
        # the first slice, then the second: no d1 candidate is tested
        calls = []
        real = abelian.annihilates
        monkeypatch.setattr(abelian, "annihilates", lambda rows, *args: calls.append(rows) or real(rows, *args))
        partners = 0
        for (a, mu) in planes.SERIES_FAMILIES:
            for c in planes.classify(a, 10**8, mu=mu):
                for k in range(3):
                    if planes.singularity_report(c.matrix).is_t[k]:
                        del calls[:]
                        kstar = adjacency.adjacent_partner(c.matrix, k).kstar
                        p1, p2 = (p.rows for p in oracles.slice_matrices(kstar))
                        assert calls == [p1, p2]
                        partners += 1
        assert partners == 1926

    def test_data_off_the_first_slice_is_refused(self, monkeypatch):
        # l1 = 2 and l2 = 10 here, so rows starting with 2 are those of P1
        real = abelian.annihilates
        monkeypatch.setattr(abelian, "annihilates", lambda rows, *args: rows[0][0] != 2 and real(rows, *args))
        with pytest.raises(markov.InvariantError, match="does not annihilate the columns"):
            adjacency.adjacent_partner(mk(8, (1, 9, 2), (0, 1, 1)), 2)

    def test_a_partner_off_the_second_slice_is_refused(self, monkeypatch):
        # l1 = 2 and l2 = 10 here, so rows starting with 10 are those of P2
        real = abelian.annihilates
        monkeypatch.setattr(abelian, "annihilates", lambda rows, *args: rows[0][0] != 10 and real(rows, *args))
        with pytest.raises(markov.InvariantError, match="do not annihilate the second slice"):
            adjacency.adjacent_partner(mk(8, (1, 9, 2), (0, 1, 1)), 2)

    def test_a_refused_partner_is_an_invariant_failure(self, monkeypatch):
        # the certificates make the partner a plane: its refusal is a defect, not bad input
        q = mk(8, (1, 9, 2), (0, 1, 1))
        monkeypatch.setattr(abelian, "pair_generates", lambda *args: False)
        with pytest.raises(markov.InvariantError, match=r"^partner of DegreeMatrix\(mu=8, u=\(1, 9, 2\), eta=\(0, 1, 1\)\) at slot 2: "
                                                        r"columns 0,1 .* fail to generate the class group$"):
            adjacency.adjacent_partner(q, 2)

    def test_a_refused_partner_adjustment_is_an_invariant_failure(self, monkeypatch):
        def refuse(mu, u, eta, perms):
            raise ValueError("normalization refused")

        monkeypatch.setattr(planes, "_adjusted", refuse)
        with pytest.raises(markov.InvariantError, match=r"^partner of DegreeMatrix\(.*\) at slot 2: normalization refused$"):
            adjacency.adjacent_partner(mk(8, (1, 9, 2), (0, 1, 1)), 2)

    def test_data_off_the_first_slice_past_the_digit_limit(self, monkeypatch):
        # a defect on a plane whose entries pass the 4,300 digits str(int) writes
        # by default raises InvariantError, naming the slice data in full
        u = (1, 1, 1)
        while u[2] < 10**5000:
            u = tuple(sorted((u[1], u[2], (u[1] + u[2]) ** 2 // u[0])))
        q = mk(1, u)
        kstar = adjacency.adjacent_partner(q, 0).kstar
        monkeypatch.setattr(abelian, "annihilates", lambda *args: False)
        with pytest.raises(markov.InvariantError) as info:
            adjacency.adjacent_partner(q, 0)
        fields = ", ".join(f"{name}={decimal.Decimal(getattr(kstar, name))}" for name in ("l1", "l2", "d0", "d1", "d2"))
        columns = ", ".join(str(decimal.Decimal(x)) for x in u)
        assert len(columns) > 4300
        assert str(info.value) == f"slice data KStarData({fields}) does not annihilate the columns of DegreeMatrix(mu=1, u=({columns}), eta=(0, 0, 0))"


class TestSlotRange:
    @pytest.mark.parametrize("slot", [-1, 3])
    def test_adjacent_partner_refuses(self, slot):
        # -1 used to index slot 2 and return its partner; 3 raised IndexError
        with pytest.raises(ValueError, match="0, 1 or 2"):
            adjacency.adjacent_partner(mk(4, (1, 1, 2), (0, 1, 3)), slot)

    @pytest.mark.parametrize("slot", [-1, 3])
    def test_can_degenerate_refuses(self, slot):
        with pytest.raises(ValueError, match="0, 1 or 2"):
            oracles.can_degenerate(mk(8, (1, 9, 2), (0, 1, 1)), slot)


class TestCanDegenerate:
    def test_smooth_plane_cannot(self):
        for slot in range(3):
            assert not oracles.can_degenerate(mk(1, (1, 1, 1)), slot)

    def test_non_t_slots_cannot(self):
        q = mk(3, (1, 2, 3), (0, 1, 1))
        assert not oracles.can_degenerate(q, 0)
        assert not oracles.can_degenerate(q, 1)

    def test_index_one_slot_cannot(self):
        # the base member of series 1-8-1 has index 1 at its T-point, so no
        # non-toric degeneration exists there and the node is isolated
        q = mk(8, (1, 1, 2), (0, 1, 1))
        assert planes.singularity_report(q).is_t[2]
        assert planes.local_gorenstein_index(q, 2) == 1
        assert not oracles.can_degenerate(q, 2)

    def test_deep_node_can(self):
        q = mk(8, (1, 9, 2), (0, 1, 1))
        assert oracles.can_degenerate(q, 2)

    def test_equivalent_to_both_isotropy_orders_nontrivial(self):
        for a in (1, 2, 3, 4, 5, 6, 8, 9):
            for c in planes.classify(a, 700):
                for slot in range(3):
                    if planes.singularity_report(c.matrix).is_t[slot]:
                        pair = adjacency.adjacent_partner(c.matrix, slot)
                        assert oracles.can_degenerate(c.matrix, slot) == pair.kstar.non_toric

    @settings(max_examples=100, deadline=None)
    @given(deep_series_members())
    def test_equivalent_on_deep_members(self, q):
        # non_toric drives nonToricSelf in graph JSON and the dot comments
        for slot in range(3):
            if planes.singularity_report(q).is_t[slot]:
                assert oracles.can_degenerate(q, slot) == adjacency.adjacent_partner(q, slot).kstar.non_toric


class TestNeighbors:
    def test_one_pair_per_t_singular_slot(self):
        for a in (1, 2, 5, 9):
            for c in planes.classify(a, 700):
                slots = [k for k in range(3) if planes.singularity_report(c.matrix).is_t[k]]
                pairs = oracles.adjacency_neighbors(c.matrix)
                assert pairs == [adjacency.adjacent_partner(c.matrix, k) for k in slots]

    def test_2_3_1_node(self):
        nbrs, selfp = split_neighbors(mk(3, (1, 8, 3), (0, 1, 1)))
        assert [(p.q2.u, p.q2.eta[2]) for p in nbrs] == [((1, 8, 27), 1)]
        assert not selfp

    def test_1_5_red_edge(self):
        nbrs, selfp = split_neighbors(mk(5, (1, 4, 5), (0, 1, 2)))
        assert [(p.q2.u, p.q2.eta[2]) for p in nbrs] == [((1, 4, 5), 3)]
        assert not selfp

    def test_smooth_plane_neighbor(self):
        nbrs, selfp = split_neighbors(mk(1, (1, 1, 1)))
        assert [p.q2.u for p in nbrs] == [(1, 1, 4)]
        assert not selfp

    def test_merged_base_has_both_eta_partners(self):
        nbrs, selfp = split_neighbors(mk(8, (1, 1, 2), (0, 1, 3)))
        assert {(p.q2.u, p.q2.eta[2]) for p in nbrs} == {((1, 9, 2), 3), ((1, 9, 2), 7)}
        assert len(selfp) == 1 and selfp[0].kstar.non_toric

    def test_symmetry(self):
        for a in (1, 2, 5, 9):
            for c in planes.classify(a, 700):
                nbrs, _ = split_neighbors(c.matrix)
                for pair in nbrs:
                    back, _ = split_neighbors(pair.q2)
                    assert any(other.q2 == c.matrix for other in back)


class TestGraphs:
    def test_tree_isomorphisms(self):
        chains = {
            9: [(9, 1), (3, 3)],
            8: [(8, 1), (4, 2)],
            6: [(6, 1), (3, 2), (2, 3), (1, 6)],
            5: [(5, 1), (1, 5)],
        }
        for reduced, families in chains.items():
            tree = markov.enumerate_tree(reduced, 400)
            tree_edges = {frozenset((x, y)) for x, y in tree.edges}
            for (a, mu) in families:
                graph = adjacency.adjacency_graph(a, mu, 400 * mu)
                keep = {n.plane for n in graph.nodes if n.all_t}
                assert {tuple(sorted(n.plane.u)) for n in graph.nodes if n.all_t} == set(tree.nodes)
                got = {
                    frozenset((tuple(sorted(e.a.u)), tuple(sorted(e.b.u))))
                    for e in graph.edges
                    if e.a in keep and e.b in keep
                }
                assert got == tree_edges
                # nothing connects the at-most-T part to the other series
                for e in graph.edges:
                    assert (e.a in keep) == (e.b in keep)

    def test_t24_two_components(self):
        graph = adjacency.adjacency_graph(2, 4, 200)
        comps = oracles.graph_components(graph)
        assert len(comps) == 2
        etas = sorted({m.eta[2] for comp in comps for m in comp})
        assert etas == [1, 3]
        for comp in comps:
            assert len({m.eta[2] for m in comp}) == 1
        assert len({frozenset((e.a, e.b)) for e in graph.edges}) == len(graph.edges)
        # nodes are adjusted matrices only, not other presentations of them
        assert oracles.permuted(mk(4, (1, 1, 2), (0, 1, 3)), (2, 0, 1)) not in {n.plane.matrix for n in graph.nodes}

    def test_figure(self):
        self._check_figure(golden.ADJ_FIGURE_2_3_1)
        self._check_figure(golden.ADJ_FIGURE_1_5_1)
        self._check_figure(golden.ADJ_FIGURE_1_5_23)

    def _check_figure(self, fig):
        mu = fig["mu"]
        bound = max(mu * sum(u) for (u, _) in fig["nodes"])
        graph = adjacency.adjacency_graph(fig["a"], mu, bound)
        labels = {(n.plane.u, n.plane.eta[2]): n.plane for n in graph.nodes}
        wanted = set()
        for (u, eta) in fig["nodes"]:
            assert (u, eta) in labels, f"figure node {(u, eta)} missing"
            wanted.add(labels[(u, eta)])
        expected_edges = {
            frozenset((labels[a], labels[b])): jump for (a, b, jump) in fig["edges"]
        }
        got_edges = {
            frozenset((e.a, e.b)): e.jump
            for e in graph.edges
            if e.a in wanted and e.b in wanted
        }
        assert got_edges == expected_edges

    def test_t19_connected_with_jumps(self):
        # all three eta branches of the mu = 9 family form one component,
        # glued through the sporadic base identifications and jump edges
        graph = adjacency.adjacency_graph(1, 9, 12000)
        assert sorted({n.plane.matrix.eta[2] for n in graph.nodes}) == [2, 5, 8]
        assert len(oracles.graph_components(graph)) == 1
        assert any(e.jump for e in graph.edges)

    def test_dot_output_styles_jumps(self):
        graph = adjacency.adjacency_graph(1, 5, 300)
        dot = "".join(cli._graph_dot(graph))
        assert "color=red" in dot
        assert "peripheries=2" in dot  # the self-adjacent base of (1-5-1)


def graph_bound(a):
    return 10**5 if a == 1 else 10**16


class TestPrunedGraph:
    """The graph builds only the partners of norm in ``[N, bound]``."""

    @pytest.mark.parametrize("a, mu", planes.SERIES_FAMILIES)
    def test_equals_the_unpruned_graph(self, a, mu):
        graph = adjacency.adjacency_graph(a, mu, 10**30)
        full = oracles.full_adjacency_graph(a, mu, 10**30)
        assert graph.nodes == full.nodes
        assert [n.self_kstar for n in graph.nodes] == [n.self_kstar for n in full.nodes]
        assert graph.edges == full.edges
        assert "".join(cli._graph_dot(graph)) == "".join(cli._graph_dot(full))
        assert "".join(cli._graph_json(graph)) == "".join(cli._graph_json(full))

    def test_partner_norm_is_closed_form(self):
        for (a, mu) in planes.SERIES_FAMILIES:
            for node in adjacency.adjacency_graph(a, mu, graph_bound(a)).nodes:
                q, w, n = node.plane.matrix, node.plane.weights, node.plane.norm
                for k in range(3):
                    if not planes.singularity_report(q).is_t[k]:
                        continue
                    wi, wj = (w[j] for j in range(3) if j != k)
                    partner = adjacency.adjacent_partner(q, k).q2
                    assert sum(planes.fake_weights_of_degree_matrix(partner)) == a * wi * wj - n

    def test_node_cap_refuses_before_any_partner(self, monkeypatch):
        # the tree of (2, 3) has 30 nodes below 10^6, its classes 60
        partners = []
        real = adjacency._partner

        def counting(*args):
            partners.append(args)
            return real(*args)

        monkeypatch.setattr(adjacency, "_partner", counting)
        with pytest.raises(markov.EnumerationCapExceeded, match="60 classes exceed the node cap 40"):
            adjacency.adjacency_graph(2, 3, 10**6, max_nodes=40)
        assert partners == []
        assert len(adjacency.adjacency_graph(2, 3, 10**6, max_nodes=60).nodes) == 60
        assert partners

    def test_unclassified_partner_is_a_defect(self, monkeypatch):
        # (1, 9, 2; 3) is a partner of the base node (1, 1, 2; 3) of (1, 8);
        # a classify that loses it must not lose the edge silently
        lost = mk(8, (1, 9, 2), (0, 1, 3))
        real = planes.classify

        def lossy(*args, **kwargs):
            return [c for c in real(*args, **kwargs) if c.matrix != lost]

        assert lost in {e.b.matrix for e in adjacency.adjacency_graph(1, 8, 10**5).edges}
        monkeypatch.setattr(adjacency.planes, "classify", lossy)
        with pytest.raises(markov.InvariantError, match=r"u=\(1, 9, 2\).*u=\(1, 1, 2\)"):
            adjacency.adjacency_graph(1, 8, 10**5)


def _nth_call_fails(n):
    """``abelian.annihilates`` refusing its ``n``-th call in each run: 1 is the first slice, 2 the second."""

    def inject(monkeypatch, c, k):
        calls, real = itertools.count(1), abelian.annihilates
        monkeypatch.setattr(abelian, "annihilates", lambda *args: next(calls) != n and real(*args))

    return inject


def _wrong_index(index):
    """``planes.local_gorenstein_index`` reading ``index`` at the slot under test: the graph's T-test still passes."""

    def inject(monkeypatch, c, k):
        real = planes.local_gorenstein_index
        monkeypatch.setattr(planes, "local_gorenstein_index", lambda q, n: index if (q.u, q.eta, n) == (c.u, c.eta, k) else real(q, n))

    return inject


def _wrapped(module, name, wrap):
    def inject(monkeypatch, c, k):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))

    return inject


#: one injected defect per certificate of ``adjacency._partner``: the family, the class (``u``, ``eta``, slot) it hits,
#: or None for the first partner of the family's graph, and the message with ``{q}`` for the class, as both routes raise it
PARTNER_CERTIFICATES = {
    "T-test": ((1, 5), None, _wrapped(planes, "_t_test", lambda real: lambda cl, iota: (False, None) if cl < 0 else real(cl, iota)),
               adjacency.NotDegenerableError, "fixed point 2 of {q} is not a T-singularity"),
    "integral l2": ((5, 1), ((1, 4, 5), (0, 0, 0), 1), _wrong_index(1),
                    adjacency.NotDegenerableError, "second isotropy order of {q} at slot 1 is not integral"),
    "slice congruences": ((3, 2), ((1, 2, 3), (0, 1, 1), 1), _wrong_index(1),
                          markov.InvariantError, "slice congruences of {q} at slot 1 have no solution"),
    "gcd(h, g)": ((4, 2), ((1, 1, 2), (0, 1, 1), 2), _wrong_index(2),
                  markov.InvariantError, "first slice torsion 0 of {q} at slot 2 is not a unit mod 2"),
    "KStarData checks": ((1, 5), None, _wrapped(adjacency, "_check_kstar", lambda real: lambda l1, l2, d0, d1, d2: real(l1, l2, -d0, d1, d2)),
                         markov.InvariantError, "slice data of {q} at slot 2: slope inequalities fail for KStarData(l1=1, l2=1, d0=25, d1=0, d2=20)"),
    "first slice": ((1, 5), None, _nth_call_fails(1),
                    markov.InvariantError, "slice data KStarData(l1=1, l2=1, d0=-25, d1=0, d2=20) does not annihilate the columns of {q}"),
    "mutation": ((1, 5), None, _wrapped(abelian, "bezout", lambda real: lambda a, c: (0, 0)),
                 markov.InvariantError, "partner column of {q} at slot 2 has free part 0, not the mutation's"),
    "second slice": ((1, 5), None, _nth_call_fails(2),
                     markov.InvariantError, "partner columns (1, 4, 5), (0, 1, 1) of {q} do not annihilate the second slice"),
    "pair generation": ((1, 5), None, _wrapped(abelian, "pair_generates", lambda real: lambda *args: False),
                        markov.InvariantError, "partner of {q} at slot 2: columns 0,1 of (mu=5, u=(1, 4, 5), eta=(0, 1, 1)) fail to generate the class group"),
    "leading unit": ((1, 5), None, _wrapped(planes, "_normalize_second_row", lambda real: lambda u, eta, mu: real((mu * u[0], *u[1:]), eta, mu)),
                     markov.InvariantError, "partner of {q} at slot 2: leading free part 5 is not coprime to mu=5"),
    "second unit": ((1, 5), None, _wrapped(planes, "_normalize_second_row", lambda real: lambda u, eta, mu: real(u, (0, 0, eta[2]), mu)),
                    markov.InvariantError, "partner of {q} at slot 2: second torsion entry 0 is not a unit mod 5"),
}


class TestGraphCertificates:
    """Every certificate of a partner runs on the graph's partners as on :func:`adjacency.adjacent_partner`'s."""

    @pytest.mark.parametrize("name", PARTNER_CERTIFICATES)
    def test_a_defect_is_refused_on_both_routes(self, monkeypatch, name):
        (a, mu), target, inject, error, message = PARTNER_CERTIFICATES[name]
        bound = 10**5
        window = [(c, k) for c in planes.classify(a, bound, mu=mu) for k in range(3)
                  if planes.singularity_report(c).is_t[k] and c.norm <= a * c.weights[k - 1] * c.weights[k - 2] - c.norm <= bound]
        c, k = window[0] if target is None else next((c, k) for c, k in window if (c.u, c.eta, k) == target)
        pinned = message.format(q=repr(c))
        inject(monkeypatch, c, k)
        with pytest.raises(error) as partner:
            adjacency.adjacent_partner(c, k)
        monkeypatch.undo()
        inject(monkeypatch, c, k)
        with pytest.raises(error) as graph:
            adjacency.adjacency_graph(a, mu, bound)
        assert str(partner.value) == str(graph.value) == pinned

    def test_the_graph_builds_objects_only_for_self_pairs(self, monkeypatch):
        built = {"DegreeMatrix": 0, "AdjacentPair": 0, "KStarData": 0}
        for cls in (DegreeMatrix, adjacency.AdjacentPair, KStarData):
            real_new = cls.__new__

            def counting(cls, *args, real_new=real_new, **kwargs):
                built[cls.__name__] += 1
                return real_new(cls, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", counting)
        graph = adjacency.adjacency_graph(1, 8, 10**48)
        self_pairs = sum(n.self_kstar is not None for n in graph.nodes)
        assert self_pairs == 3 and len(graph.edges) == 2214
        assert built == {"DegreeMatrix": 0, "AdjacentPair": 0, "KStarData": self_pairs}

    @settings(max_examples=150, deadline=None)
    @given(deep_series_members(max_digits=30))
    def test_core_equals_the_lift_scan_and_adjacent_partner(self, q):
        a = planes.integral_degree(q)
        for k in range(3):
            if planes.singularity_report(q).is_t[k]:
                kstar, raw, (u, eta) = adjacency._partner(q, k, planes.local_gorenstein_index(q, k), a)
                assert KStarData(*kstar) == oracles.lift_partner_kstar(q, k)
                pair = adjacency.adjacent_partner(q, k)
                assert raw == (pair.q2_raw.u, pair.q2_raw.eta)
                assert (u, eta) == (pair.q2.u, pair.q2.eta)


class TestGlobalInvariants:
    def test_every_class_has_a_partner_or_self_loop(self):
        for a in (1, 2, 3, 4, 5, 6, 8, 9):
            for c in planes.classify(a, 700):
                nbrs, selfp = split_neighbors(c.matrix)
                assert nbrs or selfp

    def test_nontoric_pair_keys_determine_the_surface_data(self):
        # both sides of a non-toric pair reconstruct the same isotropy
        # orders and the same hyperbolic class group order -d0
        seen: dict[tuple, tuple] = {}
        for a in (1, 2, 3, 4, 5, 6, 8, 9):
            for c in planes.classify(a, 700):
                for slot in range(3):
                    if not planes.singularity_report(c.matrix).is_t[slot]:
                        continue
                    pair = adjacency.adjacent_partner(c.matrix, slot)
                    if not pair.kstar.non_toric:
                        continue
                    key = (c.matrix.mu, tuple(sorted([(c.matrix.u, c.matrix.eta), (pair.q2.u, pair.q2.eta)])))
                    data = (tuple(sorted((pair.kstar.l1, pair.kstar.l2))), pair.kstar.d0)
                    assert seen.setdefault(key, data) == data


    def test_edge_ends_in_class_order_are_in_column_order(self):
        # adjacency_graph sorts each edge's two ends as classes, norm first; (u, eta) order must agree
        edges = 0
        for (a, mu) in planes.SERIES_FAMILIES:
            for e in adjacency.adjacency_graph(a, mu, 10**40).edges:
                assert e.a < e.b and (e.a.u, e.a.eta) < (e.b.u, e.b.eta)
                edges += 1
        assert edges == 15174


class TestClassifyOneFamily:
    def test_graph_enumerates_one_family(self, monkeypatch):
        trees = []
        real = markov.enumerate_tree

        def counting(*args, **kwargs):
            trees.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(markov, "enumerate_tree", counting)
        graph = adjacency.adjacency_graph(1, 8, 10**5)
        assert len(trees) == 1
        assert len(graph.nodes) == len(planes.classify(1, 10**5, mu=8))

    def test_t_point_data_is_derived_once(self, monkeypatch):
        # one partner per edge and self-pair: 24 + 3
        self._check_t_point_work(monkeypatch, 10**5, 27)

    def test_one_partner_per_edge_at_48_digits(self, monkeypatch):
        # 2,214 edges + 3 self-pairs; rebuilding every T-point made 6,645
        self._check_t_point_work(monkeypatch, 10**48, 2217)

    @staticmethod
    def _check_t_point_work(monkeypatch, bound, partners):
        # one Gorenstein index per node slot, handed to the partner solved
        # there by the integer core
        counts = {"iota": 0, "partner": 0, "adjust": 0, "normalize": 0, "degree": 0}

        def counted(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(planes, "local_gorenstein_index", "iota")
        counted(adjacency, "_partner", "partner")
        counted(planes, "adjust", "adjust")
        counted(planes, "_adjusted", "normalize")
        counted(planes, "integral_degree", "degree")
        graph = adjacency.adjacency_graph(1, 8, bound)
        assert counts["partner"] == partners == len(graph.edges) + sum(n.self_kstar is not None for n in graph.nodes)
        assert counts["iota"] == 3 * len(graph.nodes)
        # nodes come adjusted from classify, which checks each node's degree
        # in its node check and normalizes the four etas of its one tied
        # node, (1, 1, 2); each partner is normalized once, over the
        # arrangements for the family's degree, which no partner derives again
        assert counts["adjust"] == 0
        assert counts["normalize"] == 4 + counts["partner"]
        assert counts["degree"] == 0


class TestCensus:
    def test_sixteen_series(self):
        census = adjacency.self_adjacency_census()
        assert {str(e.series) for e in census} == golden.SELF_ADJACENT_SERIES
        assert len(census) == 16

    def test_non_toric_sublist(self):
        census = adjacency.self_adjacency_census()
        assert {str(e.series) for e in census if e.kstar.non_toric} == golden.NON_TORIC_SELF_ADJACENT

    def test_equals_the_unpruned_census(self, monkeypatch):
        # the census is the pruned graph at each family's base norm, so it
        # builds only the 18 partners of that norm; the unpruned scan of
        # every T-singular point of the base classes builds 49
        expected = [e for (a, mu) in planes.SERIES_FAMILIES for e in oracles.census(a, mu)]
        partners = []
        real = adjacency._partner

        def counting(*args):
            partners.append(args)
            return real(*args)

        monkeypatch.setattr(adjacency, "_partner", counting)
        assert adjacency.self_adjacency_census() == expected
        assert len(partners) == 18

    def test_a_self_pair_of_a_class_record_reads_adjust_of_the_record(self):
        # the documented self-adjacency test, pair.q2 == planes.adjust(q), holds for a class record q as for its matrix
        self_adjacent = set()
        for (a, mu) in planes.SERIES_FAMILIES:
            for c in planes.classify(a, mu * markov.norm(markov.REDUCED_ROOTS[mu * a]), mu=mu):
                for k in range(3):
                    if planes.singularity_report(c).is_t[k] and (pair := adjacency.adjacent_partner(c, k)).q2 == c.matrix:
                        assert pair.q2 == planes.adjust(c)
                        self_adjacent.add(str(c.series))
        assert self_adjacent == golden.SELF_ADJACENT_SERIES

    def test_9_1_0_not_self_adjacent(self):
        nbrs, selfp = split_neighbors(mk(1, (1, 1, 1)))
        assert not selfp
