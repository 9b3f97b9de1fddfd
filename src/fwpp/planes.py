"""Fake weighted projective planes via degree and generator matrices.

A plane of Picard number one is encoded either by a *generator matrix*, an
integer 2x3 matrix whose primitive, pairwise distinct columns positively
span the plane, or dually by a *degree matrix*: the induced grading map
``Z^3 -> K = Z + Z/mu`` recorded as three columns ``(u_i, eta_i)`` with
``mu * u`` the fake weight vector.  Any two columns of a degree matrix
generate ``K``.

The canonical self-intersection degree is ``(w0+w1+w2)^2 / (w0*w1*w2)`` for
the fake weight vector ``w``; it is an integer exactly when ``w`` solves the
squared Markov type equation with parameter equal to the degree.  The planes
of integral degree fall into 24 series indexed by ``(degree, mu, eta)``;
:func:`classify` enumerates them below a norm bound, merging the sporadic
isomorphisms among small members by the adjusted form of :func:`adjust`;
the tests check every such merge against :func:`isomorphism_witness`.

Singularity data at the three toric fixed points (local class group order,
local Gorenstein index, T-singularity test and the exceptional curve count
of the minimal resolution) are computed exactly: orders and indices by
group arithmetic in ``K``, curve counts from the regular continued
fraction of the type ``m/k`` of each fan cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import Sequence

from . import abelian, markov
from .abelian import KAutomorphism, Pair
from .markov import InvariantError, _decimal_int, _decimal_join, _decimal_str

Triple = tuple[int, int, int]

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


@dataclass(frozen=True, order=True)
class SeriesId:
    a: int
    mu: int
    eta: int

    def __str__(self):
        return f"{self.a}-{self.mu}-{self.eta}"


@dataclass(frozen=True, order=True)
class DegreeMatrix:
    """A plane with ``Cl = K = Z + Z/mu``, given by its integers alone: the
    torsion order ``mu >= 1`` and three columns ``(u_i, eta_i)`` of ``K``,
    free parts in ``u`` and reduced residues in ``eta``, any two of which
    generate ``K``."""

    mu: int
    u: Triple
    eta: Triple

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "eta", tuple(self.eta))
        if self.mu < 1:
            raise ValueError(f"torsion order must be positive, got {self.mu}")
        if len(self.u) != 3 or len(self.eta) != 3:
            raise ValueError("a degree matrix has exactly three columns")
        if any(x <= 0 for x in self.u):
            raise ValueError(f"free parts must be positive, got {self.u}")
        if any(not 0 <= e < self.mu for e in self.eta):
            raise ValueError(f"torsion parts must be reduced mod {self.mu}, got {self.eta}")
        for i in range(3):
            for j in range(i + 1, 3):
                if not abelian.pair_generates((self.u[i], self.eta[i]), (self.u[j], self.eta[j]), self.mu):
                    raise ValueError(
                        f"columns {i},{j} of (mu={self.mu}, u={self.u}, eta={self.eta})"
                        " fail to generate the class group"
                    )

    def to_json_obj(self) -> dict:
        return {
            "mu": self.mu,
            "u": [_decimal_str(x) for x in self.u],
            "eta": list(self.eta),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DegreeMatrix":
        """Read ``mu`` and the arrays ``u`` and ``eta`` of integers or integer
        strings of any length; a float or bool entry (``int()`` would
        truncate or read it) and a ``u`` or ``eta`` that is not an array
        are refused."""
        if not isinstance(obj["u"], list) or not isinstance(obj.get("eta", []), list):
            raise ValueError("degree matrix columns u and eta must be JSON arrays")
        for x in (obj["mu"], *obj["u"], *obj.get("eta", ())):
            if isinstance(x, (bool, float)):
                raise ValueError(f"degree matrix entries must be integers, got {x!r}")
        mu = _decimal_int(obj["mu"])
        u = tuple(_decimal_int(x) for x in obj["u"])
        eta = tuple(_decimal_int(x) for x in obj.get("eta", (0, 0, 0)))
        return cls(mu, u, tuple(e % mu for e in eta))


@dataclass(frozen=True, order=True)
class GeneratorMatrix:
    """2x3 integer matrix with primitive columns positively spanning Q^2.

    ``weights``, the fake weight vector, is the result of validating the
    rows at construction; it takes no part in equality, hashing or order.
    """

    rows: tuple[tuple[int, int, int], tuple[int, int, int]]
    weights: Triple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        object.__setattr__(self, "weights", abelian.validate_generator_matrix(self.rows))

    def column(self, j: int) -> tuple[int, int]:
        return (self.rows[0][j], self.rows[1][j])

    def cone_of_fixed_point(self, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Generators of the fan cone carrying the k-th toric fixed point."""
        j1, j2 = (j for j in range(3) if j != k)
        return self.column(j1), self.column(j2)


def fake_weights_of_degree_matrix(q: DegreeMatrix) -> Triple:
    return tuple(q.mu * x for x in q.u)


def degree(weights) -> Fraction:
    """Canonical self-intersection ``(w0+w1+w2)^2 / (w0 w1 w2)``, exact."""
    w0, w1, w2 = weights
    if w0 <= 0 or w1 <= 0 or w2 <= 0:
        raise ValueError(f"weights must be positive, got {weights}")
    return Fraction((w0 + w1 + w2) ** 2, w0 * w1 * w2)


def integral_degree(q: DegreeMatrix) -> int:
    w = fake_weights_of_degree_matrix(q)
    a, rem = divmod(sum(w) ** 2, w[0] * w[1] * w[2])
    if rem:
        raise ValueError(f"degree {degree(w)} of {q} is not integral")
    return a


def anticanonical_class(q: DegreeMatrix) -> Pair:
    """Sum of the three columns in ``K``; the anticanonical divisor class."""
    return sum(q.u), sum(q.eta) % q.mu


def local_class_group_order(q: DegreeMatrix, k: int) -> int:
    """Order ``mu * u_k`` of the local class group at the k-th fixed point."""
    return q.mu * q.u[k]


def local_gorenstein_index(q: DegreeMatrix, k: int) -> int:
    """Order of the canonical class in the local class group at ``z(k)``.

    This is the least ``n >= 1`` with ``n * w_Z`` in the subgroup generated
    by the k-th column.
    """
    return abelian.k_membership_multiple(anticanonical_class(q), (q.u[k], q.eta[k]), q.mu)


def is_t_singular(q: DegreeMatrix, k: int) -> tuple[bool, int | None]:
    """T-singularity test at ``z(k)``: the index squared divides the order.

    Returns ``(flag, d)`` where ``d = cl / iota^2`` when the test holds.
    """
    return _t_test(local_class_group_order(q, k), local_gorenstein_index(q, k))


def _t_test(cl: int, iota: int) -> tuple[bool, int | None]:
    d, rem = divmod(cl, iota * iota)
    return (True, d) if rem == 0 else (False, None)


def t_singular_chart(iota: int, d: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Affine chart matrix ``[[iota, iota], [d*iota + b, b]]`` of a
    T-singularity with the given index and ``cl = d * iota^2``.

    Requires ``gcd(b, iota) = 1`` so the columns are primitive.
    """
    if iota < 1 or d < 1:
        raise ValueError("chart parameters must be positive")
    if gcd(b, iota) != 1:
        raise ValueError(f"gcd({b}, {iota}) != 1: chart columns would be imprimitive")
    return ((iota, iota), (d * iota + b, b))


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
    quotients = []
    while k:
        a, r = divmod(m, k)
        quotients.append(a)
        m, k = k, r
    if m != 1:
        raise InvariantError("continued fraction expansion did not terminate at 1")
    return sum(quotients[1::2]) + len(quotients) % 2


def resolution_curve_count(v: tuple[int, int], vp: tuple[int, int]) -> int:
    """Number of exceptional curves of the minimal resolution of the cone.

    The cone is moved to the standard position ``cone(e1, (t, m))`` with
    ``0 <= t < m``; the singularity is then the cyclic quotient of order
    ``m`` and weight ``k = m - t``, whose minimal resolution has as many
    exceptional curves as the negative continued fraction of ``m/k`` has
    entries, read off the regular one by :func:`_hirzebruch_jung_length`.
    Zero for a smooth cone.
    """
    a, c = v
    b, d = vp
    m = abs(a * d - b * c)
    if m == 0:
        raise ValueError(f"vectors {v}, {vp} are collinear")
    if m == 1:
        return 0
    if gcd(a, c) != 1 or gcd(b, d) != 1:
        raise ValueError("cone generators must be primitive")
    # the unimodular map [[s, r], [-c, a]] sends v to (1, 0) and vp to
    # (s*b + r*d, a*d - b*c), whose second entry is +-m
    s, r = abelian.bezout(a, c)
    t = (s * b + r * d) % m
    k = (m - t) % m
    if k == 0 or gcd(k, m) != 1:
        raise InvariantError(f"normalized cone type ({m}, {k}) is not reduced")
    return _hirzebruch_jung_length(m, k)


# ---------------------------------------------------------------------------
# Correspondence between degree and generator matrices
# ---------------------------------------------------------------------------


def generator_of(q: DegreeMatrix) -> GeneratorMatrix:
    """The generator matrix ``[[1, x, y], [0, mu*u_2, -mu*u_1]]`` of ``q``:
    the row Hermite form of the lattice ``{m in Z^3 : sum m_i q_i == 0 in
    K}``, whose columns pair with the columns of ``q`` so per-fixed-point
    data line up.

    With ``q_i = (u_i, eta_i)``, the constructor's pair checks make
    ``gcd(u_1, u_2) = 1`` and ``D = u_1*eta_2 - u_2*eta_1`` a unit mod
    ``mu``.  Kernel vectors ``(0, t*u_2, -t*u_1)`` have torsion ``-t*D``, so
    ``mu | t``: the second row.  With ``alpha*u_1 + beta*u_2 = 1``,
    ``x_0 = -u_0*alpha`` and ``y_0 = -u_0*beta``, the vector ``(1, x_0 +
    t*u_2, y_0 - t*u_1)`` has free part 0 and torsion ``E - t*D``, ``E =
    eta_0 + x_0*eta_1 + y_0*eta_2``, which vanishes for ``t = E/D mod mu``.
    Reducing ``x`` into ``[0, mu*u_2)`` gives the first row in Hermite form.
    """
    mu, (u0, u1, u2), (e0, e1, e2) = q.mu, q.u, q.eta
    alpha, beta = abelian.bezout(u1, u2)
    x0, y0 = -u0 * alpha, -u0 * beta
    s = (e0 + x0 * e1 + y0 * e2) * pow(u1 * e2 - u2 * e1, -1, mu) % mu
    x = (x0 + s * u2) % (mu * u2)
    y, rem = divmod(-(u0 + x * u1), u2)
    if rem:
        raise InvariantError(f"kernel basis of {q} has no integral first row")
    p = GeneratorMatrix(((1, x, y), (0, mu * u2, -mu * u1)))
    if not corresponds(q, p):
        raise InvariantError(f"kernel basis of {q} fails the correspondence test")
    return p


def corresponds(q: DegreeMatrix, p: GeneratorMatrix) -> bool:
    """Correspondence test: same fake weights and ``q`` annihilates ``p``.

    For matrices sharing the fake weight vector, annihilation of both rows
    (by :func:`fwpp.abelian.annihilates`) already forces the cokernel
    projection to agree with ``q`` up to automorphism, so this is an
    if-and-only-if test.
    """
    if p.weights != fake_weights_of_degree_matrix(q):
        return False
    return abelian.annihilates(p.rows, q.u, q.eta, q.mu)


# ---------------------------------------------------------------------------
# Adjusted form, isomorphism, classification
# ---------------------------------------------------------------------------


def _normalize_second_row(u: Triple, eta: Triple, mu: int) -> Triple:
    """The torsion row turned into ``(0, 1, eta)`` by a positive
    automorphism; at ``mu = 1``, where every residue is 0, ``(0, 0, 0)``."""
    if gcd(u[0], mu) != 1:
        raise ValueError(f"leading free part {u[0]} is not coprime to mu={mu}")
    shift = (-eta[0] * pow(u[0], -1, mu)) % mu
    shifted = tuple((eta[i] + shift * u[i]) % mu for i in range(3))
    if gcd(shifted[1], mu) != 1:
        raise ValueError(f"second torsion entry {shifted[1]} is not a unit mod {mu}")
    scale = pow(shifted[1], -1, mu)
    return tuple((scale * e) % mu for e in shifted)


def _normalize(q: DegreeMatrix, perms) -> DegreeMatrix:
    """:func:`adjust` of ``q`` over its admissible column orders ``perms``."""
    best = None
    for perm in perms:
        u_p = tuple(q.u[i] for i in perm)
        eta_p = tuple(q.eta[i] for i in perm)
        eta_n = _normalize_second_row(u_p, eta_p, q.mu)
        candidate = (eta_n[2], perm)
        if best is None or candidate < best[0]:
            best = (candidate, u_p, eta_n)
    _, u_p, eta_n = best
    unchanged = u_p == q.u and eta_n == q.eta
    return q if unchanged else DegreeMatrix(q.mu, u_p, eta_n)


def adjust(q: DegreeMatrix) -> DegreeMatrix:
    """Canonical adjusted representative of the isomorphism class of ``q``.

    The columns are permuted so the fake weight vector is arranged for its
    reduced equation class, then the torsion row is normalized to
    ``(0, 1, eta)`` by a positive automorphism.  When equal weights leave
    several admissible column orders, the candidate with the smallest
    ``eta`` wins; this resolves the sporadic coincidences among small
    series members, so equality of adjusted matrices is equivalent to
    isomorphism of the planes.  Only the adjusted matrix is returned; the
    map from ``q`` to it is :func:`isomorphism_witness` of the two.  An
    input already in adjusted form is returned itself, not rebuilt.
    """
    return _normalize(q, markov.admissible_arrangements(q.u, q.mu * integral_degree(q)))


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


def is_isomorphic(q1: DegreeMatrix, q2: DegreeMatrix) -> bool:
    return isomorphism_witness(q1, q2) is not None


@dataclass(frozen=True)
class ClassifiedPlane:
    """One isomorphism class from the classification.

    ``series`` is the canonical label; ``all_series`` collects every series
    label whose member at this weight vector is isomorphic to it (more than
    one only for the three sporadic coincidence sets).  ``weights`` is
    derived once, at construction, and takes no part in equality.
    """

    series: SeriesId
    matrix: DegreeMatrix
    all_series: tuple[SeriesId, ...]
    weights: Triple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", fake_weights_of_degree_matrix(self.matrix))

    @property
    def norm(self) -> int:
        return sum(self.weights)


def classify(a: int, norm_bound: int, mu: int | None = None, max_nodes: int | None = None) -> list[ClassifiedPlane]:
    """All planes of integral degree ``a`` with fake weight norm <= bound.

    With ``mu`` given, only the ``(a, mu)`` family is enumerated (an empty
    list when it carries no series); the result is the ``mu`` part of the
    unfiltered one.  One entry per isomorphism class, keyed by the
    canonical adjusted degree matrix.  Each tree node is arranged, and its
    degree checked, once.  At a node with one admissible order,
    ``(u_arr; 0, 1, eta)`` is already adjusted for every series eta: the
    identity is its only order, and ``(0, 1, eta)`` normalizes with shift 0
    and scale 1 (``gcd(u_0, mu) = 1`` by the constructor's check on columns
    0 and 1, of determinant ``u_0``); distinct etas stay distinct, so
    nothing merges.  Only a node with tied entries normalizes its etas over
    its several orders and merges equal forms.
    ``max_nodes`` caps each family's tree as in
    :func:`fwpp.markov.enumerate_tree`; its error names ``a``, the family's
    ``mu`` and ``norm_bound`` as given here.  It then caps the class total,
    with the same ``EnumerationCapExceeded``.
    """
    if a < 1:
        raise ValueError(f"degree must be a positive integer, got {a}")
    if max_nodes is not None and max_nodes < 0:  # a degree with no family never reaches the tree's check
        raise ValueError(f"node cap must be non-negative, got {_decimal_str(max_nodes)}")
    out: list[ClassifiedPlane] = []
    for (deg, fam_mu) in SERIES_FAMILIES:
        if deg != a or (mu is not None and fam_mu != mu):
            continue
        etas = SERIES_ETAS[(deg, fam_mu)]
        try:
            tree = markov.enumerate_tree(fam_mu * a, norm_bound // fam_mu, max_nodes=max_nodes)
        except markov.EnumerationCapExceeded as exc:  # name the caller's degree and bound, not the scaled ones
            raise markov.EnumerationCapExceeded(
                f"more than {max_nodes} nodes below norm {_decimal_str(norm_bound)} for degree {a}, mu {fam_mu}"
            ) from exc
        for u_sorted in tree.nodes:
            perms = markov.admissible_arrangements(u_sorted, fam_mu * a)
            u_arr = tuple(u_sorted[i] for i in perms[0])
            qs = [DegreeMatrix(fam_mu, u_arr, (0, 1 % fam_mu, eta % fam_mu)) for eta in etas]
            if integral_degree(qs[0]) != a:
                raise InvariantError(f"classified matrix {qs[0]} has wrong degree")
            if len(perms) == 1:
                out.extend(ClassifiedPlane(_series_label(q, a), q, (SeriesId(a, fam_mu, eta),)) for eta, q in zip(etas, qs))
                continue
            perms, groups = markov.admissible_arrangements(u_arr, fam_mu * a), {}  # the orders acting on qs
            for eta, q in zip(etas, qs):
                groups.setdefault(_normalize(q, perms), []).append(SeriesId(a, fam_mu, eta))
            out.extend(ClassifiedPlane(_series_label(q, a), q, tuple(sorted(ids))) for q, ids in groups.items())
    if max_nodes is not None and len(out) > max_nodes:
        raise markov.EnumerationCapExceeded(f"{len(out)} classes exceed the node cap {max_nodes}")
    out.sort(key=lambda c: (c.norm, c.matrix.u, c.matrix.eta, c.matrix.mu))
    return out


def _series_label(q: DegreeMatrix, a: int) -> SeriesId:
    """Series label of ``q``, an adjusted matrix of integral degree ``a``."""
    eta = q.eta[2] if q.mu > 1 else 0
    sid = SeriesId(a, q.mu, eta)
    if eta not in SERIES_ETAS.get((a, q.mu), ()):
        raise InvariantError(f"adjusted matrix {q} maps to unknown series {sid}")
    return sid


def series_id(q: DegreeMatrix) -> SeriesId:
    """Series label ``degree-mu-eta`` of an adjusted degree matrix."""
    if adjust(q) != q:
        raise ValueError(f"{q} is not in adjusted form")
    return _series_label(q, integral_degree(q))


# ---------------------------------------------------------------------------
# Singularity reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularityReport:
    """Per-fixed-point singularity data of a plane of integral degree."""

    matrix: DegreeMatrix
    cl: Triple
    iota: Triple
    is_t: tuple[bool, bool, bool]
    d: tuple[int | None, int | None, int | None]
    res_curves: Triple

    def to_json_obj(self) -> dict:
        return {
            "cl": [_decimal_str(x) for x in self.cl],
            "iota": [_decimal_str(x) for x in self.iota],
            "isT": list(self.is_t),
            "d": [None if x is None else _decimal_str(x) for x in self.d],
            "resCurves": list(self.res_curves),
        }


def singularity_report(q: DegreeMatrix) -> SingularityReport:
    p = generator_of(q)
    cl = tuple(local_class_group_order(q, k) for k in range(3))
    iota = tuple(local_gorenstein_index(q, k) for k in range(3))
    flags, ds = zip(*(_t_test(cl[k], iota[k]) for k in range(3)))
    curves = tuple(resolution_curve_count(*p.cone_of_fixed_point(k)) for k in range(3))
    return SingularityReport(q, cl, iota, flags, ds, curves)


def plane_json_obj(c: ClassifiedPlane, with_report: bool = False) -> dict:
    obj = {
        "series": str(c.series),
        "mu": c.matrix.mu,
        "u": [_decimal_str(x) for x in c.matrix.u],
        "eta": list(c.matrix.eta),
        "weights": [_decimal_str(w) for w in c.weights],
        "degree": str(c.series.a),
    }
    if len(c.all_series) > 1:
        obj["mergedSeries"] = [str(s) for s in c.all_series]
    if with_report:
        obj["report"] = singularity_report(c.matrix).to_json_obj()
    return obj


def report_markdown(reports: Sequence[SingularityReport]) -> str:
    """Markdown table of singularity data, one row per plane."""
    header = "| ID | Cl(Z) | Q | w_Z | (iota_0,iota_1,iota_2) | T | res curves |"
    sep = "|---|---|---|---|---|---|---|"
    lines = [header, sep]
    for rep in reports:
        q = rep.matrix
        try:
            sid = str(series_id(q))
        except ValueError:  # not adjusted, or not of integral degree
            sid = "-"
        group = "Z" if q.mu == 1 else f"Z + Z/{_decimal_str(q.mu)}"
        qtxt = f"[{_decimal_join(q.u)}]"
        if q.mu > 1:
            qtxt += f"/[{_decimal_join(q.eta)}]"
        wz = anticanonical_class(q)
        wz_txt = f"({_decimal_join(wz, ', ')})" if q.mu > 1 else f"({_decimal_str(wz[0])})"
        iota = f"({_decimal_join(rep.iota)})"
        signs = "({},{},{})".format(*["+" if f else "-" for f in rep.is_t])
        curves = f"({_decimal_join(rep.res_curves)})"
        lines.append(f"| {sid} | {group} | {qtxt} | {wz_txt} | {iota} | {signs} | {curves} |")
    return "\n".join(lines) + "\n"
