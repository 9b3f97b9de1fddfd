"""Fake weighted projective planes via degree matrices.

A plane of Picard number one is encoded by its *degree matrix*: the grading
map ``Z^3 -> K = Z + Z/mu`` of its class group, recorded as three columns
``(u_i, eta_i)`` with ``mu * u`` the fake weight vector.  Any two columns of
a degree matrix generate ``K``.  Every computation here runs in ``K``; the
dual generator matrix of the fan is never built.

The canonical self-intersection degree is ``(w0+w1+w2)^2 / (w0*w1*w2)`` for
the fake weight vector ``w``; it is an integer exactly when ``w`` solves the
squared Markov type equation with parameter equal to the degree.  The planes
of integral degree fall into 24 series indexed by ``(degree, mu, eta)``;
:func:`classify` lists one :class:`ClassifiedPlane` record per class below a
norm bound, merging the sporadic isomorphisms among small members by the
adjusted form of :func:`adjust`; tests check each merge by :func:`isomorphism_witness`.

Singularity data at the three toric fixed points (local class group order,
local Gorenstein index, T-singularity test and the exceptional curve count
of the minimal resolution, from the type ``m/t`` of the local class group
``K/<q_k>``) are computed exactly by group arithmetic in ``K``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import NamedTuple, Sequence

from . import abelian, markov
from .abelian import KAutomorphism, Pair
from .markov import InvariantError, Triple, _text

#: eta values of the adjusted degree matrices in each series family,
#: keyed by (degree, mu).  mu = 1 families carry no torsion data.
SERIES_ETAS: dict[tuple[int, int], tuple[int, ...]] = {
    (9, 1): (0,),
    (8, 1): (0,),
    (6, 1): (0,),
    (5, 1): (0,),
    (4, 2): (1,),
    (3, 3): (2,),
    (3, 2): (1,),
    (2, 4): (1, 3),
    (2, 3): (1, 2),
    (1, 9): (2, 5, 8),
    (1, 8): (1, 3, 5, 7),
    (1, 6): (1, 5),
    (1, 5): (1, 2, 3, 4),
}

#: (degree, mu) pairs carrying at least one series, in canonical order.
SERIES_FAMILIES = tuple(sorted(SERIES_ETAS, key=lambda t: (-t[0], t[1])))


class SeriesId(NamedTuple):
    a: int
    mu: int
    eta: int

    def __str__(self):
        return f"{self.a}-{self.mu}-{self.eta}"


class DegreeMatrix(namedtuple("DegreeMatrix", "mu u eta")):
    """A plane with ``Cl = K = Z + Z/mu``, given by its integers alone: the
    torsion order ``mu >= 1`` and three columns ``(u_i, eta_i)`` of ``K``,
    free parts in ``u`` and reduced residues in ``eta``, any two of which
    generate ``K``."""

    __slots__ = ()

    def __new__(cls, mu: int, u: Triple, eta: Triple):
        u, eta = tuple(u), tuple(eta)
        if mu < 1:
            raise ValueError(f"torsion order must be positive, got {_text(mu)}")
        if len(u) != 3 or len(eta) != 3:
            raise ValueError("a degree matrix has exactly three columns")
        if any(x <= 0 for x in u):
            raise ValueError(f"free parts must be positive, got {_text(u)}")
        if any(not 0 <= e < mu for e in eta):
            raise ValueError(f"torsion parts must be reduced mod {_text(mu)}, got {_text(eta)}")
        _check_pairs(mu, u, eta)
        return super().__new__(cls, mu, u, eta)

def _check_pairs(mu: int, u: Triple, eta: Triple) -> None:
    """Raise ``ValueError`` unless every two of the columns ``(u_i, eta_i)`` generate ``K = Z + Z/mu``."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if not abelian.pair_generates((u[i], eta[i]), (u[j], eta[j]), mu):
            raise ValueError(f"columns {_text(i)},{_text(j)} of (mu={_text(mu)}, u={_text(u)}, eta={_text(eta)}) fail to generate the class group")


def fake_weights_of_degree_matrix(q: DegreeMatrix) -> Triple:
    return q.mu * q.u[0], q.mu * q.u[1], q.mu * q.u[2]


def degree(weights) -> Fraction:
    """Canonical self-intersection ``(w0+w1+w2)^2 / (w0 w1 w2)``, exact."""
    w0, w1, w2 = weights
    if w0 <= 0 or w1 <= 0 or w2 <= 0:
        raise ValueError(f"weights must be positive, got {_text(weights)}")
    return Fraction((w0 + w1 + w2) ** 2, w0 * w1 * w2)


def integral_degree(q: DegreeMatrix) -> int:
    w = fake_weights_of_degree_matrix(q)
    a, rem = divmod(sum(w) ** 2, w[0] * w[1] * w[2])
    if rem:
        raise ValueError(f"degree {_text(degree(w))} of {_text(q)} is not integral")
    return a


def anticanonical_class(q: DegreeMatrix) -> Pair:
    """Sum of the three columns in ``K``; the anticanonical divisor class."""
    return sum(q.u), sum(q.eta) % q.mu


def _check_slot(k) -> None:
    """Raise ``ValueError`` unless ``k`` is the ``int`` 0, 1 or 2; a ``bool`` or a float equal to one is refused."""
    if type(k) is not int or not 0 <= k <= 2:
        raise ValueError(f"fixed point index must be 0, 1 or 2, got {_text(k, repr)}")


def local_gorenstein_index(q: DegreeMatrix, k: int) -> int:
    """Order of the canonical class in the local class group at ``z(k)``.

    This is the least ``n >= 1`` with ``n * w_Z`` in the subgroup generated
    by the k-th column.  A ``k`` outside ``{0, 1, 2}`` raises ``ValueError``.
    """
    _check_slot(k)
    return abelian.k_membership_multiple(anticanonical_class(q), (q.u[k], q.eta[k]), q.mu)


def _t_test(cl: int, iota: int) -> tuple[bool, int | None]:
    """T-singularity test at a fixed point of local class group order ``cl`` and Gorenstein index ``iota``: the index
    squared divides the order.  Returns ``(flag, d)`` where ``d = cl / iota^2`` when the test holds, else ``(False, None)``."""
    d, rem = divmod(cl, iota * iota)
    return (True, d) if rem == 0 else (False, None)


def _hirzebruch_jung_length(m: int, k: int) -> int:
    """Length of the negative (Hirzebruch-Jung) continued fraction of m/k.

    Write the regular expansion as ``m/k = [a1; a2, ..., a_2n]``, making its
    length even by splitting a last term ``a`` into ``a - 1, 1`` if need be.
    Then ``m/k = [[a1+1, 2^(a2-1), a3+2, ..., a_(2n-1)+2, 2^(a_2n-1)]]``
    (Popescu-Pampu, *The geometry of continued fractions and the topology
    of surface singularities*, 2007), where ``2^j`` stands for ``j`` entries
    2.  So the length is the sum of the even-position partial quotients of
    the Euclidean algorithm on ``(m, k)``, plus one when that algorithm
    takes an odd number of steps; by Lamé's theorem it takes O(log m).
    """
    length = 0  # the even-position quotients so far; two steps per turn
    while k:
        m, k = k, m % k  # an odd-position step: its quotient is not counted
        if not k:
            length += 1  # the step count is odd
            break
        a, r = divmod(m, k)  # an even-position step: its quotient is counted
        length, m, k = length + a, k, r
    if m != 1:
        raise InvariantError("continued fraction expansion did not terminate at 1")
    return length


def resolution_curve_count(q: DegreeMatrix, k: int) -> int:
    """Number of exceptional curves of the minimal resolution at ``z(k)``.

    With ``i < j`` the other columns, ``q_i`` and ``q_k`` generate ``K``, so ``K/<q_k>`` is cyclic of order ``m = mu*u_k``
    and generated by ``q_i``; with ``q_j = t*q_i + s*q_k`` the point is ``1/m(1, t)``, resolved by as many curves as the
    negative continued fraction of ``m/t`` has entries (none at ``m = 1``, ``t = 0``; swapping ``i`` and ``j`` inverts ``t``
    mod ``m``, which reverses it).  :func:`_quotient_weight` solves ``t``; the identity is checked on both parts here.
    A ``k`` outside ``{0, 1, 2}`` raises ``ValueError``.
    """
    _check_slot(k)
    i, j = (n for n in range(3) if n != k)
    try:
        t = _quotient_weight(q, i, j, k)
    except ValueError as exc:  # pow met a non-unit, which a valid q never has: a defect, not bad input
        raise InvariantError(f"weight at z({_text(k)}) of {_text(q)}: {exc}") from exc
    s, rem = divmod(q.u[j] - t * q.u[i], q.u[k])
    if rem or (q.eta[j] - t * q.eta[i] - s * q.eta[k]) % q.mu:
        raise InvariantError(f"weight {_text(t)} at z({_text(k)}) of {_text(q)} fails q_j = t*q_i + s*q_k")
    return _hirzebruch_jung_length(q.mu * q.u[k], t % (q.mu * q.u[k]))


def _quotient_weight(q: DegreeMatrix, i: int, j: int, k: int) -> int:
    """The ``t`` in ``[0, mu*u_k)`` with ``q_j - t*q_i`` in ``<q_k>``: ``t0 = u_j/u_i mod u_k`` fits the free parts, and ``t =
    t0 + u_k*r`` moves the torsion residue by ``-r*D``, ``D = u_k*eta_i - u_i*eta_k``, a unit mod ``mu``, which fixes ``r``."""
    (ui, uj, uk), (ei, ej, ek) = (q.u[i], q.u[j], q.u[k]), (q.eta[i], q.eta[j], q.eta[k])
    t0 = uj * pow(ui, -1, uk) % uk
    r = (ej - t0 * ei - (uj - t0 * ui) // uk * ek) * pow(uk * ei - ui * ek, -1, q.mu) % q.mu
    return t0 + uk * r


# ---------------------------------------------------------------------------
# Adjusted form, isomorphism, classification
# ---------------------------------------------------------------------------


def _normalize_second_row(u: Triple, eta: Triple, mu: int) -> Triple:
    """The torsion row turned into ``(0, 1, eta)`` by a positive
    automorphism; at ``mu = 1``, where every residue is 0, ``(0, 0, 0)``."""
    if gcd(u[0], mu) != 1:
        raise ValueError(f"leading free part {_text(u[0])} is not coprime to mu={_text(mu)}")
    shift = (-eta[0] * pow(u[0], -1, mu)) % mu
    shifted = tuple((eta[i] + shift * u[i]) % mu for i in range(3))
    if gcd(shifted[1], mu) != 1:
        raise ValueError(f"second torsion entry {_text(shifted[1])} is not a unit mod {_text(mu)}")
    scale = pow(shifted[1], -1, mu)
    return tuple((scale * e) % mu for e in shifted)


def _adjusted(mu: int, u: Triple, eta: Triple, perms) -> tuple[Triple, Triple]:
    """The columns ``(u, eta)`` of :func:`adjust` over their admissible column orders ``perms``."""
    best = None
    for perm in perms:
        u_p = (u[perm[0]], u[perm[1]], u[perm[2]])
        eta_n = _normalize_second_row(u_p, (eta[perm[0]], eta[perm[1]], eta[perm[2]]), mu)
        if best is None or (eta_n[2], perm) < best[0]:
            best = (eta_n[2], perm), u_p, eta_n
    return best[1], best[2]


def adjust(q: DegreeMatrix | ClassifiedPlane) -> DegreeMatrix:
    """Canonical adjusted representative of the isomorphism class of ``q``.

    The columns are permuted so the fake weight vector is arranged for its
    reduced equation class, then the torsion row is normalized to
    ``(0, 1, eta)`` by a positive automorphism.  When equal weights leave
    several admissible column orders, the candidate with the smallest
    ``eta`` wins; this resolves the sporadic coincidences among small
    series members, so equality of adjusted matrices is equivalent to
    isomorphism of the planes.  Only the adjusted matrix is returned; the
    map from ``q`` to it is :func:`isomorphism_witness` of the two.  A
    ``DegreeMatrix`` already in adjusted form is returned itself, not
    rebuilt; any other ``q``, such as a :class:`ClassifiedPlane`, gives a
    ``DegreeMatrix``.
    """
    u, eta = _adjusted(q.mu, q.u, q.eta, markov.admissible_arrangements(q.u, q.mu * integral_degree(q)))
    return q if isinstance(q, DegreeMatrix) and (u, eta) == (q.u, q.eta) else DegreeMatrix(q.mu, u, eta)


def isomorphism_witness(q1: DegreeMatrix, q2: DegreeMatrix):
    """A pair ``(phi, perm)`` with ``phi(q1)`` a column permutation of
    ``q2``, or ``None`` when the planes are not isomorphic.

    Only positivity-preserving maps ``(k, m) -> (k, a*k + c*m)`` can match
    positive free parts.  For each of the six column orders whose free
    parts agree, ``(a, c)`` is solved from the first two columns by
    Cramer's rule mod ``mu``; the determinant ``u_x*eta_y - u_y*eta_x`` is
    a unit because any two columns generate ``K`` (for ``mu = 1`` the
    solve gives the identity).  A solution with ``c`` a unit is then
    checked on all three columns.  Of all witnesses the one with the least
    ``(a, c, perm)`` is returned, so at most 18 column images are formed,
    whatever ``mu``.
    """
    if q1.mu != q2.mu:
        return None
    mu = q1.mu
    cols1 = tuple(zip(q1.u, q1.eta))
    cols2 = tuple(zip(q2.u, q2.eta))
    e0, e1 = q2.eta[0], q2.eta[1]
    found = []
    for i, j, k in permutations(range(3)):
        if (q1.u[i], q1.u[j], q1.u[k]) != q2.u:
            continue
        (xf, xt), (yf, yt) = cols1[i], cols1[j]
        det_inv = pow(xf * yt - yf * xt, -1, mu)
        a = (e0 * yt - e1 * xt) * det_inv % mu
        c = (xf * e1 - yf * e0) * det_inv % mu
        if gcd(c, mu) != 1:
            continue
        phi = KAutomorphism(1, a, c)
        image = tuple(abelian.apply_automorphism(phi, cols1[n], mu) for n in (i, j, k))
        if image == cols2:
            found.append((a, c, (i, j, k)))
    if not found:
        return None
    a, c, perm = min(found)
    return KAutomorphism(1, a, c), perm


class ClassifiedPlane(NamedTuple):
    """One isomorphism class, the record of its canonical adjusted degree
    matrix; tuples sort in :func:`classify`'s order.  ``all_series`` lists,
    least first, every series label whose member at this weight vector is
    isomorphic to it (more than one only for the three sporadic coincidence
    sets); ``series`` is the least.  ``matrix`` builds the checked
    :class:`DegreeMatrix` on every access."""

    norm: int
    u: Triple
    eta: Triple
    mu: int
    all_series: tuple[SeriesId, ...]

    @property
    def series(self) -> SeriesId:
        return self.all_series[0]

    @property
    def weights(self) -> Triple:
        return fake_weights_of_degree_matrix(self)

    @property
    def matrix(self) -> DegreeMatrix:
        return DegreeMatrix(self.mu, self.u, self.eta)

def classify(a: int, norm_bound: int, mu: int | None = None, max_nodes: int | None = None) -> list[ClassifiedPlane]:
    """All planes of integral degree ``a`` with fake weight norm <= bound.

    With ``mu`` given, only the ``(a, mu)`` family is enumerated (an empty
    list when it carries no series); the result is the ``mu`` part of the
    unfiltered one.  One record per isomorphism class, keyed by the
    canonical adjusted degree matrix.  Each tree node is arranged, checked
    by :func:`_check_node` and its degree checked once.  With one
    admissible order, ``(u_arr; 0, 1, eta)`` is adjusted for every series
    eta (shift 0 and scale 1, as ``gcd(u_0, mu) = 1``) and distinct etas
    stay distinct, so each class is ``u_arr`` with a shared row and label.
    Only a node with tied entries normalizes its columns over its orders,
    on the matrices :func:`_check_node` certified, and merges equal forms;
    the identity order leaves ``(u_arr; 0, 1, eta)`` as it is, so each
    label must be the least merged one.
    ``max_nodes`` caps each family's tree as in :func:`fwpp.markov.enumerate_tree`,
    its error naming ``a``, the family's ``mu`` and ``norm_bound`` as given
    here, and then the class total, with the same ``EnumerationCapExceeded``.
    """
    if a < 1:
        raise ValueError(f"degree must be a positive integer, got {_text(a)}")
    if max_nodes is not None and max_nodes < 0:  # a degree with no family never reaches the tree's check
        raise ValueError(f"node cap must be non-negative, got {_text(max_nodes)}")
    out: list[ClassifiedPlane] = []
    for (deg, fam_mu) in SERIES_FAMILIES:
        if deg != a or (mu is not None and fam_mu != mu):
            continue
        etas = SERIES_ETAS[(deg, fam_mu)]
        if any(not 0 <= eta < fam_mu or gcd(eta, fam_mu) != 1 for eta in etas):  # pair 0,2 of _check_node
            raise InvariantError(f"series etas {_text(etas)} are not all reduced units mod {_text(fam_mu)}")
        rows = [((0, 1 % fam_mu, eta), (SeriesId(a, fam_mu, eta),)) for eta in etas]  # shared by the family's classes
        try:
            tree = markov.enumerate_tree(fam_mu * a, norm_bound // fam_mu, max_nodes=max_nodes)
        except markov.EnumerationCapExceeded as exc:  # name the caller's degree and bound, not the scaled ones
            raise markov.EnumerationCapExceeded(f"more than {_text(max_nodes)} nodes below norm {_text(norm_bound)} for degree "
                                                f"{_text(a)}, mu {_text(fam_mu)}") from exc
        for u_sorted in tree.nodes:
            perms = markov.admissible_arrangements(u_sorted, fam_mu * a)
            u_arr = tuple(u_sorted[i] for i in perms[0])
            if not markov.is_solution(u_arr, fam_mu * a):  # the degree of w = mu*u is a, and u is positive
                raise InvariantError(f"classified node {_text(u_arr)} of mu {_text(fam_mu)} is not of degree {_text(a)}")
            _check_node(u_arr, fam_mu, etas)
            n = fam_mu * (u_arr[0] + u_arr[1] + u_arr[2])
            if len(perms) == 1:
                out += [ClassifiedPlane(n, u_arr, eta, fam_mu, ids) for eta, ids in rows]
                continue
            perms, groups = markov.admissible_arrangements(u_arr, fam_mu * a), {}  # the orders acting on u_arr
            try:
                for eta, ids in rows:
                    groups.setdefault(_adjusted(fam_mu, u_arr, eta, perms), []).extend(ids)
            except ValueError as exc:  # _check_node certified every matrix: a refusal is a defect here, not bad input
                raise InvariantError(f"tied node {_text(u_arr)} of mu {_text(fam_mu)}: {exc}") from exc
            for (u, eta), ids in groups.items():
                c = ClassifiedPlane(n, u, eta, fam_mu, tuple(sorted(ids)))
                if _series_of(c, a) != c.series:
                    raise InvariantError(f"adjusted matrix {_text(c.matrix)} is not labelled by the least of its series {_text(ids)}")
                out.append(c)
    if max_nodes is not None and len(out) > max_nodes:
        raise markov.EnumerationCapExceeded(f"{_text(len(out))} classes exceed the node cap {_text(max_nodes)}")
    out.sort()
    return out


def _check_node(u: Triple, mu: int, etas: Sequence[int]) -> None:
    """Raise ``InvariantError`` unless ``DegreeMatrix(mu, u, (0, 1 % mu, eta))``
    accepts a positive ``u`` with each ``eta`` of ``etas``, reduced units mod ``mu``.

    Two columns generate ``K`` iff their free parts are coprime and their
    minor is a unit mod ``mu`` (:func:`fwpp.abelian.pair_generates`; the
    free parts' gcd divides the minor).  The minors of the pairs 0,1, 0,2
    and 1,2 are ``u_0``, ``u_0*eta`` and ``u_1*eta - u_2`` mod ``mu`` (all
    units at ``mu = 1``).  So the three pairs generate iff ``u`` is pairwise
    coprime with ``gcd(u_0, mu) = 1`` (once per node), ``eta`` is a unit
    (once per family, in :func:`classify`) and ``gcd(u_1*eta - u_2, mu) =
    1`` (per eta, from ``u_1`` and ``u_2`` mod ``mu``).
    """
    u0, u1, u2 = u
    if not gcd(u0, u1) == gcd(u0, u2) == gcd(u1, u2) == gcd(u0, mu) == 1:
        raise InvariantError(f"node {_text(u)} is not pairwise coprime and prime to mu={_text(mu)}")
    r1, r2 = u1 % mu, u2 % mu
    if any(gcd(r1 * eta - r2, mu) != 1 for eta in etas):
        raise InvariantError(f"columns 1,2 of (mu={_text(mu)}, u={_text(u)}, eta=(0, 1, e)) fail to generate K for an e in {_text(etas)}")


def _series_of(q: DegreeMatrix | ClassifiedPlane, a: int) -> SeriesId:
    """Series label of ``q``, an adjusted matrix or class of integral degree ``a``."""
    eta = q.eta[2] if q.mu > 1 else 0
    sid = SeriesId(a, q.mu, eta)
    if eta not in SERIES_ETAS.get((a, q.mu), ()):
        raise InvariantError(f"adjusted matrix {_text(q)} maps to unknown series {_text(sid)}")
    return sid


# ---------------------------------------------------------------------------
# Singularity reports
# ---------------------------------------------------------------------------


class SingularityReport(NamedTuple):
    """Per-fixed-point singularity data of a plane, of integral degree or not; the plane itself is not kept."""

    cl: Triple
    iota: Triple
    is_t: tuple[bool, bool, bool]
    d: tuple[int | None, int | None, int | None]
    res_curves: Triple

def singularity_report(q: DegreeMatrix) -> SingularityReport:
    cl = fake_weights_of_degree_matrix(q)
    iota = tuple(local_gorenstein_index(q, k) for k in range(3))
    flags, ds = zip(*(_t_test(cl[k], iota[k]) for k in range(3)))
    curves = tuple(resolution_curve_count(q, k) for k in range(3))
    return SingularityReport(cl, iota, flags, ds, curves)
