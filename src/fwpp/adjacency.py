"""Toric degenerations of rational K*-surfaces of Picard number one.

A quasismooth rational K*-surface of Picard number one is cut out of a
three-dimensional fake weighted projective space whose fan has a 3x4
generator matrix built from data ``(l1, l2, d0, d1, d2)``, a
:class:`KStarData`; it degenerates into two fake weighted projective planes,
the *slices*, whose fans have the 2x3 generator matrices

    P1 = [[l1, l1, -l2], [d1, d1 + l1*d0, d2]],
    P2 = [[l2, l2, -l1], [d2, d2 + l2*d0, d1]].

No generator matrix is built here: the surface is its five integers, and the
rows of the slices enter only as relations that degree matrices in
``K = Z + Z/mu`` must annihilate.
Two planes are *adjacent* when they arise this way from a common surface.
Given a plane whose fixed point ``z(k)`` is a T-singularity, the surface
data is reconstructed uniquely: ``l1`` is the local Gorenstein index at the
point, ``d0 = -w_k / l1**2``, ``l2 = l1*(w_i + w_j) / w_k``, and ``d1`` is
pinned down by the requirement that both rows of ``P1`` annihilate the given
degree matrix.  Integrality of ``d2`` is a linear congruence fixing ``d1`` modulo
``l1 / gcd(l1, l2)``, and the torsion of ``P1``'s second row fixes the lift,
each solved by a modular inverse, so no value of ``d1`` is searched.  The
partner keeps the columns ``i`` and ``j`` of the given degree matrix; its
new column is the one element of ``K`` that makes both rows of ``P2``
relations, solved with a Bezout pair of ``l1`` and ``d1``, so the partner
is the grading by the cokernel of ``P2``.  It is adjusted once.  Its weight
triple is the one-step mutation of the original at that slot, so the
adjacency graphs refine the mutation trees of the squared Markov equations.
The surface is non-toric when ``l1`` and ``l2`` both exceed one, which is
the degeneration test :attr:`KStarData.non_toric`.
A graph classifies only its own ``(degree, mu)`` family, and its nodes are
the class records :func:`fwpp.planes.classify` returns; it rebuilds a
partner only when the mutation puts its norm between the node's and the bound.
Both it and :func:`adjacent_partner` solve and certify a partner by one
integer core, :func:`_partner`, which builds no object: the graph looks its
result up among the classes and builds a :class:`KStarData` only for a
self-pair.  The self-adjacency census is the graph of each family at its
base norm.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import attrgetter
from typing import NamedTuple

from . import abelian, markov, planes
from .markov import InvariantError, _text
from .planes import ClassifiedPlane, DegreeMatrix, SeriesId

_columns = attrgetter("u", "eta")  # the key of a class or matrix within one (degree, mu) family


class NotDegenerableError(ValueError):
    """Raised when a fixed point does not admit the partner construction."""


class KStarData(namedtuple("KStarData", "l1 l2 d0 d1 d2")):
    """Defining data of the ambient 3x4 generator matrix.

    ``gcd(l_i, d_i) = 1`` keeps the slice columns primitive and the slope
    inequalities ``d0 + d1/l1 + d2/l2 < 0 < d1/l1 + d2/l2`` make all four
    fake weights positive.  ``d1`` is normalized into ``[0, l1)``, except in
    the toric case ``l1 = 1``, where both ``d1 = 0`` and ``d1 = 1`` are
    accepted.
    """

    __slots__ = ()

    def __new__(cls, l1: int, l2: int, d0: int, d1: int, d2: int):
        _check_kstar(l1, l2, d0, d1, d2)
        return super().__new__(cls, l1, l2, d0, d1, d2)

    @property
    def non_toric(self) -> bool:
        return self.l1 > 1 and self.l2 > 1


def _check_kstar(l1: int, l2: int, d0: int, d1: int, d2: int) -> None:
    """Raise ``ValueError`` unless :class:`KStarData` accepts ``(l1, l2, d0, d1, d2)``."""
    if l1 < 1 or l2 < 1:
        raise ValueError(f"isotropy orders must be positive, got {_text(l1)}, {_text(l2)}")
    if gcd(l1, d1) != 1 or gcd(l2, d2) != 1:
        raise ValueError(f"gcd(l_i, d_i) != 1 in {_text((l1, l2, d0, d1, d2), _kstar_repr)}")
    if not 0 <= d1 <= l1:
        raise ValueError(f"d1={_text(d1)} is not normalized into [0, l1]")
    if d1 == 0 and l1 != 1:
        raise ValueError("d1 = 0 is only allowed in the toric case l1 = 1")
    upper = d1 * l2 + d2 * l1
    if not d0 * l1 * l2 + upper < 0 < upper:
        raise ValueError(f"slope inequalities fail for {_text((l1, l2, d0, d1, d2), _kstar_repr)}")


def _kstar_repr(data: tuple[int, ...]) -> str:
    """The text of ``KStarData(*data)``, written without building it."""
    return "KStarData(" + ", ".join(f"{n}={_text(x)}" for n, x in zip(("l1", "l2", "d0", "d1", "d2"), data)) + ")"


class AdjacentPair(NamedTuple):
    """The partner of a plane ``q`` over a common K*-surface ``kstar``.

    ``q2`` is the partner's canonical adjusted matrix, so the pair is a
    self-adjacency exactly when ``q2 == planes.adjust(q)``; ``q2_raw`` keeps
    the second slice's column order for per-slot checks.  Whether the
    surface is non-toric is read from ``kstar``.
    """

    q2: DegreeMatrix
    q2_raw: DegreeMatrix
    kstar: KStarData


def adjacent_partner(q: DegreeMatrix, slot: int) -> AdjacentPair:
    """Reconstruct the K*-surface over the T-singular point ``z(slot)`` and return the partner plane it degenerates to,
    with the surface, as solved and certified by :func:`_partner`.  Raises ``ValueError`` for a slot outside ``{0, 1,
    2}`` or when ``q`` has no integral degree, and :class:`NotDegenerableError` when the point is not a T-singularity."""
    planes._check_slot(slot)
    # refuses a non-integral degree, where a failed certificate in _partner would report bad input as a defect
    a = planes.integral_degree(q)
    kstar, raw, adjusted = _partner(q, slot, planes.local_gorenstein_index(q, slot), a)
    try:
        q2_raw = DegreeMatrix(q.mu, *raw)
        q2 = q2_raw if adjusted == raw else DegreeMatrix(q.mu, *adjusted)
    except ValueError as exc:  # _partner certified the partner: a refusal is a defect here, not bad input
        raise InvariantError(f"partner of {_text(q)} at slot {_text(slot)}: {exc}") from exc
    return AdjacentPair(q2=q2, q2_raw=q2_raw, kstar=KStarData(*kstar))


def _partner(q: DegreeMatrix | ClassifiedPlane, slot: int, l1: int, a: int):
    """The surface data ``(l1, l2, d0, d1, d2)`` over ``z(slot)`` of ``q``, of degree ``a`` and local Gorenstein index
    ``l1`` there, with the partner's raw columns ``(u, eta)`` in the second slice's order and its adjusted columns, all
    solved, not searched, on the integers of ``q``, which names the plane in errors.

    Write ``perm = (i, j, k)``, ``k = slot``, ``w = mu*u``, ``e = eta`` and ``g = gcd(l1, l2)``.  As ``w_k = d*l1**2``
    and ``l2*w_k = l1*(w_i + w_j)``, the second row of ``P1`` has free part 0 for ``d2 = (w_j - d1*l2) / l1``, integral
    exactly when ``d1*l2 == w_j (mod l1)``: ``d1 == d1_0 (mod l1/g)``, if ``g`` divides ``w_j``.  The first row of
    ``P1`` has torsion ``h*mu = l1*(e_i + e_j) - l2*e_k``, and the lift ``d1_0 + t*l1/g`` lowers ``d2`` by ``t*l2/g``,
    so it moves the torsion ``R`` of the second row by ``t*h*mu/g``.  The lift that annihilates is ``t = -r * h**-1
    (mod g)``, ``r = R(d1_0) / (mu/g)``.  ``h`` is a unit mod ``g``: the rows of ``P1`` span the whole relation lattice
    of ``q``, by the surjection argument below for ``P2``.  If a prime ``p`` divided both ``h`` and ``g``, then ``(l1,
    l1, -l2)/p`` would be a relation.  The columns 0 and 1 of ``P1`` differ only by ``l1*d0 != 0``, so a combination of
    the rows equal to it takes none of the second row and ``1/p`` of the first, which is not an integer combination.

    The partner needs no second slice.  Write ``q_n = (u_n, eta_n)`` in ``K = Z + Z/mu`` and ``x*l1 + y*d1 = 1``
    (``gcd(l1, d1) = 1``), and set ``q'_k = x*l2*(q_i + q_j) - y*(d2*q_i + (d2 + l2*d0)*q_j)``.  Applied to ``(q_i,
    q_j, q'_k)``, the first row of ``P2`` gives ``y*(w_j*q_i - w_i*q_j)`` and the second ``x*(w_j*q_i - w_i*q_j)``;
    that element is 0 in ``K`` because ``w = mu*u``.  So ``e_n -> q_i, q_j, q'_k`` induces a map ``Z^3 / im(P2^T) ->
    K``, onto because ``q_i`` and ``q_j`` generate ``K``.  Both groups are ``Z + Z/mu``: the torsion order of the
    cokernel is the gcd of the weights of ``P2``, and ``gcd(w_i, w_j) = mu`` divides ``w'_k``.  A surjection of ``Z +
    Z/mu`` onto itself is an isomorphism, so ``(mu; u_i, u_j, u'_k; eta_i, eta_j, e)`` with ``(u'_k, e) = q'_k`` is a
    degree matrix of ``P2``.  By Vieta, ``u'_k = (u_i + u_j)**2 / u_k`` makes ``w'_k`` the other root of ``q``'s
    equation in slot ``k``, so the partner is adjusted over its arrangements for the degree ``a``.

    Each step is certified, or ``NotDegenerableError`` (the first two) or ``InvariantError`` is raised: the T-test
    gives ``d0``; ``l2`` is integral; ``g`` divides ``w_j``, ``mu`` divides ``h*mu`` and ``mu/g`` divides ``R(d1_0)``;
    ``gcd(h, g) = 1``; :func:`_check_kstar` accepts the gcds and the slope inequalities, the sign conditions of ``P1``
    and ``P2``; both rows of ``P1`` annihilate ``q``; ``u'_k`` is the mutation's; both rows of ``P2`` annihilate the
    partner; any two of its columns generate ``K`` (its ``u`` is positive and its ``eta`` reduced as built), so it is a
    plane; and :func:`fwpp.planes._normalize_second_row` finds its units.  The adjusted copy is the image of the checked
    partner under a column permutation and a positive automorphism of ``K``, so its columns generate ``K`` pairwise
    with no second check.  The caller checks the slot range and the integral degree: :func:`adjacent_partner` refuses
    bad input, and :func:`adjacency_graph` passes slots of classes whose degree :func:`fwpp.planes.classify` checked,
    and then finds the adjusted partner among those classes.
    """
    mu, u, eta = q.mu, q.u, q.eta
    i, j = (n for n in range(3) if n != slot)
    if u[j] < u[i]:  # the two other columns by weight, then index
        i, j = j, i
    (ui, uj, uk), (ei, ej, ek) = (u[i], u[j], u[slot]), (eta[i], eta[j], eta[slot])
    wi, wj, wk = mu * ui, mu * uj, mu * uk

    is_t, d0 = planes._t_test(-wk, l1)  # the T-test of singularity_report, giving d0 = -w_k / l1**2
    if not is_t:
        raise NotDegenerableError(f"fixed point {_text(slot)} of {_text(q)} is not a T-singularity")
    l2, rem = divmod(l1 * (wi + wj), wk)
    if rem:
        raise NotDegenerableError(f"second isotropy order of {_text(q)} at slot {_text(slot)} is not integral")

    # d1_0, then its lift, solved as in the docstring; g | w_j makes g divide
    # every weight, hence mu, so r = R(d1_0) / (mu/g) = g*R(d1_0) / mu
    g = gcd(l1, l2)
    step = l1 // g
    d1 = (wj // g) * pow(l2 // g, -1, step) % step
    h, h_rem = divmod(l1 * (ei + ej) - l2 * ek, mu)
    r, r_rem = divmod(g * (d1 * ei + (d1 + l1 * d0) * ej + (wj - d1 * l2) // l1 * ek), mu)
    if wj % g or h_rem or r_rem:
        raise InvariantError(f"slice congruences of {_text(q)} at slot {_text(slot)} have no solution")
    if gcd(h, g) != 1:
        raise InvariantError(f"first slice torsion {_text(h)} of {_text(q)} at slot {_text(slot)} is not a unit mod {_text(g)}")
    d1 += -r * pow(h, -1, g) % g * step
    d2 = (wj - d1 * l2) // l1
    kstar = (l1, l2, d0, d1, d2)
    try:
        _check_kstar(*kstar)
    except ValueError as exc:
        raise InvariantError(f"slice data of {_text(q)} at slot {_text(slot)}: {exc}") from exc
    if not abelian.annihilates(((l1, l1, -l2), (d1, d1 + l1 * d0, d2)), (ui, uj, uk), (ei, ej, ek), mu):
        raise InvariantError(f"slice data {_text(kstar, _kstar_repr)} does not annihilate the columns of {_text(q)}")

    # the partner's column k, solved from both rows of P2 as in the docstring
    x, y = abelian.bezout(l1, d1)
    ci, cj = d2, d2 + l2 * d0
    uk2 = x * l2 * (ui + uj) - y * (ci * ui + cj * uj)
    if uk2 * uk != (ui + uj) ** 2:
        raise InvariantError(f"partner column of {_text(q)} at slot {_text(slot)} has free part {_text(uk2)}, not the mutation's")
    u2, eta2 = (ui, uj, uk2), (ei, ej, (x * l2 * (ei + ej) - y * (ci * ei + cj * ej)) % mu)
    if not abelian.annihilates(((l2, l2, -l1), (ci, cj, d1)), u2, eta2, mu):
        raise InvariantError(f"partner columns {_text(u2)}, {_text(eta2)} of {_text(q)} do not annihilate the second slice")
    try:
        planes._check_pairs(mu, u2, eta2)
        adjusted = planes._adjusted(mu, u2, eta2, markov.admissible_arrangements(u2, mu * a))
    except ValueError as exc:  # the certificates above make the partner a plane: a refusal is a defect here, not bad input
        raise InvariantError(f"partner of {_text(q)} at slot {_text(slot)}: {exc}") from exc
    return kstar, (u2, eta2), adjusted


class GraphNode(NamedTuple):
    plane: ClassifiedPlane
    self_kstar: KStarData | None  # the surface of a self-pair, a non-toric one first
    all_t: bool  # every fixed point is at most a T-singularity


class GraphEdge(NamedTuple):
    a: ClassifiedPlane
    b: ClassifiedPlane
    jump: bool


class AdjacencyGraph(NamedTuple):
    """Adjacency structure on the classes of one ``(degree, mu)`` family."""

    a: int
    mu: int
    norm_bound: int
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

def adjacency_graph(a: int, mu: int, norm_bound: int, max_nodes: int | None = None) -> AdjacencyGraph:
    """Graph on the classified planes of one family, edges by adjacency.

    Nodes are the classes, with all isomorphic series labels; an edge joins
    two, ordered by ``(u, eta)``, and is a *jump* when they share no label.
    Self-adjacency is a node attribute, never an edge.  ``max_nodes`` caps
    the family's tree and then its class count in :func:`fwpp.planes.classify`,
    before any partner is built.  The partner over ``z(k)`` has norm
    ``a*w_i*w_j - N``, so only those of norm in ``[N, norm_bound]`` are
    solved by :func:`_partner` and looked up by their adjusted ``(u, eta)``:
    one per edge, from its lower end, and the self-pairs.  One solved but not
    classified raises ``InvariantError``.
    """
    if (a, mu) not in planes.SERIES_ETAS:
        raise ValueError(f"no series exists for degree {_text(a)} with torsion order {_text(mu)}")
    classified = planes.classify(a, norm_bound, mu=mu, max_nodes=max_nodes)
    nodes, edges = [], set()
    by_columns = {_columns(c): c for c in classified}  # one family shares mu
    for c in classified:
        w, n = c.weights, c.norm
        # the Gorenstein index of each T-singular slot, by the T-test of singularity_report on the local class group order w[k]
        t_slots = {k: l1 for k in range(3) if planes._t_test(w[k], l1 := planes.local_gorenstein_index(c, k))[0]}
        # w[k - 1] and w[k - 2] are the two weights other than w[k]
        pairs = [_partner(c, k, l1, a) for k, l1 in t_slots.items() if n <= a * w[k - 1] * w[k - 2] - n <= norm_bound]
        ends = [by_columns.get(adjusted) for _, _, adjusted in pairs]
        for (_, _, adjusted), d in zip(pairs, ends):
            if d is None:
                raise InvariantError(f"partner {_text(DegreeMatrix(mu, *adjusted))} of {_text(c)} is within the bound but not classified")
        selves = [KStarData(*kstar) for (kstar, _, _), d in zip(pairs, ends) if d is c]
        self_kstar = min(selves, key=lambda k: not k.non_toric, default=None)  # the surface of a self-pair, a non-toric one first
        nodes.append(GraphNode(plane=c, self_kstar=self_kstar, all_t=len(t_slots) == 3))
        for d in ends:
            if d is not c:  # class order is (u, eta) order: the partner's free parts are the node's with one entry mutated within
                # its cofactor, so arranged they compare componentwise, as the norms do; equal norms mean equal u, and eta decides
                edges.add(GraphEdge(*sorted((c, d)), set(c.all_series).isdisjoint(d.all_series)))
    edge_list = tuple(sorted(edges, key=lambda e: (_columns(e.a), _columns(e.b))))
    return AdjacencyGraph(a=a, mu=mu, norm_bound=norm_bound, nodes=tuple(nodes), edges=edge_list)


class CensusEntry(NamedTuple):
    series: SeriesId
    kstar: KStarData


def self_adjacency_census() -> list[CensusEntry]:
    """Series whose smallest member is adjacent to itself.

    Reads the graph of every series family at its base norm, the norm of
    the unique initial triple of the scaled equation: there it builds only
    the partners of that norm, among them every self-pair.  A class is
    self-adjacent exactly when the partner over one of its T-singular
    points is the class itself.
    """
    out = []
    for (a, mu) in planes.SERIES_FAMILIES:
        graph = adjacency_graph(a, mu, mu * markov.norm(markov.REDUCED_ROOTS[mu * a]))
        out += [CensusEntry(series=n.plane.series, kstar=n.self_kstar) for n in graph.nodes if n.self_kstar is not None]
    out.sort(key=lambda e: (-e.series.a, e.series.mu, e.series.eta))
    return out
