"""The classification checked from the other side, on both halves of the theorem.

Every other classification oracle starts from what it checks: the series table or the partner construction.  These
start from every degree matrix of every solution below a bound, and from every K*-surface in a box of its data, on the
fan side in ``oracles``.  So a plane outside the 24 series, or a K*-surface whose slices are not joined in the
adjacency graphs, fails here.  The large sizes are marked ``slow``: tier-1 deselects them and ``pytest -m slow`` runs
them.
"""

import pytest

import oracles
from fwpp import adjacency, planes

#: the families whose equation has solutions but which carry no series; they hold no plane at all
SERIES_LESS = {(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)}


def check_toric(a, bound):
    """The classes of every family of degree ``a`` below ``bound``, found over all degree matrices, are those of
    :func:`fwpp.planes.classify`; returns their number."""
    families = oracles.toric_families(a, bound)
    assert set(families) == {f for f in SERIES_LESS | set(planes.SERIES_ETAS) if f[0] == a}
    for (_, mu), classes in families.items():
        assert classes == sorted(c.matrix for c in planes.classify(a, bound, mu=mu)), mu
        assert (not classes) == ((a, mu) in SERIES_LESS), mu
    found = sorted(q for classes in families.values() for q in classes)
    assert found == sorted(c.matrix for c in planes.classify(a, bound))
    return len(found)


def check_surfaces(l_max, d0_max, d2_max):
    """Both slices of every surface of integral degree in the box are classes joined by an edge of their family's
    adjacency graph, or one class adjacent to itself; returns the number of such surfaces."""
    families = {}
    for kstar in oracles.kstar_box(l_max, d0_max, d2_max):
        degree = oracles.kstar_degree(kstar)
        if degree.denominator == 1:
            q1, q2 = oracles.slice_planes(kstar)
            assert q1.mu == q2.mu, kstar
            families.setdefault((degree.numerator, q1.mu), []).append((kstar, q1, q2))
    assert set(families) == set(planes.SERIES_ETAS)
    for (a, mu), surfaces in families.items():
        bound = max(sum(planes.fake_weights_of_degree_matrix(q)) for _, q1, q2 in surfaces for q in (q1, q2))
        graph = adjacency.adjacency_graph(a, mu, bound)
        nodes = {n.plane.matrix: n for n in graph.nodes}
        edges = {frozenset((e.a.matrix, e.b.matrix)) for e in graph.edges}
        for kstar, q1, q2 in surfaces:
            assert q1 in nodes and q2 in nodes, kstar
            if q1 == q2:
                assert nodes[q1].self_kstar is not None, kstar
            else:
                assert frozenset((q1, q2)) in edges, kstar
    return sum(len(surfaces) for surfaces in families.values())


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6, 8, 9])
def test_every_plane_below_10_to_the_8_is_classified(a):
    assert check_toric(a, 10**8) == {1: 430, 2: 152, 3: 69, 4: 27, 5: 56, 6: 54, 8: 29, 9: 21}[a]


@pytest.mark.slow
@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6, 8, 9])
def test_every_plane_below_10_to_the_12_is_classified(a):
    assert check_toric(a, 10**12) == {1: 965, 2: 336, 3: 149, 4: 57, 5: 125, 6: 119, 8: 60, 9: 40}[a]


def test_every_surface_in_the_small_box_is_an_edge_or_a_self_pair():
    assert check_surfaces(6, 6, 30) == 164


@pytest.mark.slow
def test_every_surface_in_the_large_box_is_an_edge_or_a_self_pair():
    assert check_surfaces(16, 12, 300) == 379
