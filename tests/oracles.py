"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: solutions are found
by scanning all triples, group membership by scanning all multiples and
resolution data by convex hull geometry, so agreement with the fast paths
is meaningful.  Curve counts of large cones are checked against the
negative continued fraction walked entry by entry, and the count at a
fixed point against the fan cone of the generator matrix.  The isomorphism
witness is found by trying every positive automorphism against every
column order, and the K*-surface data over a
T-singular point by scanning every ``d1`` in ``[0, l1)``, or by testing
each of the ``gcd(l1, l2)`` lifts that make ``d2`` integral.  The cokernel
of a generator matrix and the kernel basis of a degree matrix are read off
general Smith and Hermite normal forms, which live here and not in the
library, as do the enumeration, composition and inversion of the
automorphisms of ``Z + Z/mu``.  So do the closed-form cokernel of a
generator matrix, the partner read off the second slice by it, and the
lattice-geometry route to the Gorenstein index of a cone.  One solution is
mutated at its last entry, tested for being initial and sorted here, as no
library code does any of these.  The mutation
tree is enumerated by sorting every mutated triple, and its ``solve`` text
is written with a parent found by ``play`` and a label built for every
occurrence of a triple; arrangements are found by testing whole tuples.
The classification adjusts every series eta of every tree node and merges
equal adjusted forms, tied entries or not.
Annihilation of integer rows in ``K`` is summed element by element.  The
fan side lives here alone, as the library computes in ``K = Z + Z/mu``:
generator matrices and their validation, the generator matrix of a degree
matrix and the correspondence test, the two slice generator matrices and
the ambient 3x4 matrix of a K*-surface with its weights and degree, the
3x4 minors by cofactor expansion; the non-toric degeneration test is read
off a norm inequality at a T-singular point.  The completeness of the
classification is checked from every degree matrix of every solution below
a bound and from every K*-surface in a box of its data.  The
connected components of an adjacency graph come from ``networkx``, and the
unpruned graph and neighbour lists rebuild the partner at every T-singular
point of every node.  JSON output is built as dicts and lists and encoded by
``json.dumps``, where the library writes its text directly.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import deque, namedtuple
from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt
from typing import Iterator, Sequence

from fwpp import abelian, adjacency, cli, markov, planes
from fwpp.abelian import KAutomorphism, Pair
from fwpp.adjacency import AdjacencyGraph, GraphEdge, GraphNode, KStarData
from fwpp.markov import SolutionTriple

Matrix = list[list[int]]


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*a)]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def det_unimodular(m: Sequence[Sequence[int]]) -> int:
    """Determinant by cofactor expansion; only used on tiny matrices."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_unimodular(minor)
    return total


def weights_of_3x4(p: list[list[int]]) -> tuple[int, int, int, int]:
    """Absolute 3x3 minors of a 3x4 matrix, one per omitted column."""
    out = []
    for skip in range(4):
        cols = [j for j in range(4) if j != skip]
        minor = [[p[i][j] for j in cols] for i in range(3)]
        out.append(abs(det_unimodular(minor)))
    return tuple(out)


def assemble_3x4(kstar: KStarData) -> list[list[int]]:
    """The ambient 3x4 generator matrix of the K*-surface."""
    return [
        [-1, -1, kstar.l1, 0],
        [-1, -1, 0, kstar.l2],
        [0, kstar.d0, kstar.d1, kstar.d2],
    ]


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return ``(U, S, V)`` with ``U*M*V == S``, U and V unimodular.

    ``S`` is diagonal with nonnegative entries d1 | d2 | ... .  The pivot is
    always the smallest nonzero entry in absolute value of the remaining
    block (ties broken by row-major position), so the output is reproducible.
    """
    s = [list(row) for row in m]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_op(i, j, q):  # row_i -= q * row_j, in S and U
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j, in S and V
        for r in range(rows):
            s[r][i] -= q * s[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    row_op(i, t, s[i][t] // s[t][t])
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    col_op(j, t, s[t][j] // s[t][t])
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot divides everything it cleared; enforce divisibility of the rest
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % s[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        if t < rows and t < cols and s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
    return u, s, v


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form: ``(H, U)`` with ``H == U*M``, U unimodular.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``; H is the canonical basis of the row lattice of M.
    """
    h = [list(row) for row in m]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity_matrix(rows)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        while True:
            live = [i for i in range(r, rows) if h[i][c] != 0]
            if not live:
                break
            p = min(live, key=lambda i: (abs(h[i][c]), i))
            if p != r:
                h[r], h[p] = h[p], h[r]
                u[r], u[p] = u[p], u[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if r < rows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return h, u


def units(mu: int) -> list[int]:
    """Residues coprime to ``mu``; the single unit of Z/1 is 0."""
    if mu == 1:
        return [0]
    return [c for c in range(mu) if gcd(c, mu) == 1]


def automorphisms(mu: int, positive_only: bool = False) -> Iterator[KAutomorphism]:
    """All automorphisms of ``Z + Z/mu``; ``positive_only`` keeps ``eps = 1``.

    Only the ``eps = 1`` maps preserve positivity of free parts, which is
    what matters when acting on degree matrices.
    """
    signs = (1,) if positive_only else (1, -1)
    for eps in signs:
        for a in range(mu):
            for c in units(mu):
                yield KAutomorphism(eps, a, c)


def compose_automorphisms(phi: KAutomorphism, psi: KAutomorphism, mu: int) -> KAutomorphism:
    """The map applying ``psi`` first and then ``phi``."""
    return KAutomorphism(
        phi.eps * psi.eps,
        (phi.a * psi.eps + phi.c * psi.a) % mu,
        (phi.c * psi.c) % mu if mu > 1 else 0,
    )


def invert_automorphism(phi: KAutomorphism, mu: int) -> KAutomorphism:
    c_inv = pow(phi.c, -1, mu)
    return KAutomorphism(phi.eps, (-phi.eps * c_inv * phi.a) % mu, c_inv)


def permuted(q: planes.DegreeMatrix, perm) -> planes.DegreeMatrix:
    """``q`` with its columns taken in the order ``perm``."""
    return planes.DegreeMatrix(q.mu, tuple(q.u[i] for i in perm), tuple(q.eta[i] for i in perm))


def brute_solutions(a: int, norm_bound: int) -> set[tuple[int, int, int]]:
    """All ascendingly sorted solutions with norm <= bound, by full scan."""
    out = set()
    for u0 in range(1, norm_bound // 3 + 1):
        for u1 in range(u0, (norm_bound - u0) // 2 + 1):
            for u2 in range(u1, norm_bound - u0 - u1 + 1):
                if (u0 + u1 + u2) ** 2 == a * u0 * u1 * u2:
                    out.add((u0, u1, u2))
    return out


def brute_membership_multiple(w: Pair, q: Pair, mu: int) -> int:
    """Smallest n >= 1 with n*w in Z*q, scanning n = 1..mu*q_free."""
    (w_free, w_tors), (q_free, q_tors) = w, q
    for n in range(1, mu * q_free + 1):
        if (n * w_free) % q_free:
            continue
        beta = (n * w_free) // q_free
        if (n * w_tors - beta * q_tors) % mu == 0:
            return n
    raise AssertionError(f"no multiple of {w} lies in Z*{q} below the group order")


def brute_gorenstein_index(q: planes.DegreeMatrix, k: int) -> int:
    return brute_membership_multiple(planes.anticanonical_class(q), (q.u[k], q.eta[k]), q.mu)


def modular_gorenstein_index(q: planes.DegreeMatrix, k: int) -> int:
    """Third route to the local Gorenstein index, via the arranged shape.

    Writes the arranged first row as (xi_i * x_i^2) and scans the modular
    identity characterizing when n*x_k times the anticanonical class falls
    into the k-th column's span; the index is x_k times the smallest such n.
    Only valid for adjusted matrices of integral degree.
    """
    from fwpp import markov

    a = planes.integral_degree(q)
    reduced = q.mu * a
    xi = markov.REDUCED_XI[reduced]
    xs = []
    for i in range(3):
        quotient = q.u[i] // xi[i]
        root = 1
        while root * root < quotient:
            root += 1
        assert root * root == quotient and xi[i] * root * root == q.u[i]
        xs.append(root)
    coeff = 1
    while coeff * coeff < reduced * xi[0] * xi[1] * xi[2]:
        coeff += 1
    assert coeff * coeff == reduced * xi[0] * xi[1] * xi[2]
    mu = q.mu
    eta_sum = sum(q.eta) % mu
    x0, x1, x2 = xs
    xk = xs[k]
    for n in range(1, mu + 1):
        num = n * coeff * (x0 * x1 * x2 // xk)
        if num % xi[k]:
            continue
        beta = num // xi[k]
        if (n * eta_sum * xk - beta * q.eta[k]) % mu == 0:
            return n * xk
    raise AssertionError("modular index scan found nothing up to mu")


def cone_gorenstein_index(v: tuple[int, int], vp: tuple[int, int]) -> int:
    """Gorenstein index of the fixed point of the cone spanned by v, vp.

    For primitive generators ``(a, c)`` and ``(b, d)`` the index is
    ``|a*d - b*c| / gcd(c - d, b - a)``; this is the lattice-geometry route,
    independent of the class-group computation.
    """
    a, c = v
    b, d = vp
    det = a * d - b * c
    if det == 0:
        raise ValueError(f"vectors {v}, {vp} are collinear")
    if gcd(a, c) != 1 or gcd(b, d) != 1:
        raise ValueError("cone generators must be primitive")
    denom = gcd(c - d, b - a)
    if abs(det) % denom:
        raise markov.InvariantError("Gorenstein index formula produced a non-integer")
    return abs(det) // denom


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _convex_chain(points):
    """One half of Andrew's monotone chain: the chain through ``points``, in
    their order, that keeps strict left turns only."""
    chain = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _short_cone(v1, v2):
    """A counter-clockwise image of ``cone(v1, v2)`` under GL2(Z) whose
    generators have x-coordinates of size O(sqrt(det)).

    The x- and y-coordinates of the generators are the rows of the matrix
    ``[v1 v2]``.  Lagrange-Gauss reduction of those rows is a unimodular row
    operation; it leaves as x-coordinates the shorter row, of length at most
    ``sqrt(2*|det|/sqrt(3))``.
    """
    r1, r2 = (v1[0], v2[0]), (v1[1], v2[1])
    if r1[0] ** 2 + r1[1] ** 2 > r2[0] ** 2 + r2[1] ** 2:
        r1, r2 = r2, r1
    while True:
        n = r1[0] ** 2 + r1[1] ** 2
        q = (2 * (r1[0] * r2[0] + r1[1] * r2[1]) + n) // (2 * n)  # nearest to <r1, r2> / n
        r2 = (r2[0] - q * r1[0], r2[1] - q * r1[1])
        if r2[0] ** 2 + r2[1] ** 2 >= n:
            break
        r1, r2 = r2, r1
    w1, w2 = (r1[0], r2[0]), (r1[1], r2[1])
    return (w1, w2) if _cross((0, 0), w1, w2) > 0 else (w2, w1)


def _column_extremes(v1, v2):
    """Lowest and highest lattice point of each column of the triangle
    ``(0, v1, v2)`` without 0, for a counter-clockwise pair.

    The triangle is where ``cross(v1, p)``, ``cross(p, v2)`` and ``cross(v2 -
    v1, p - v1)`` are all ``>= 0``; in the column ``x`` each reads ``c*y + e
    >= 0``.
    """
    (a, b), (c, d) = v1, v2
    lows, highs = [], []
    for x in range(min(0, a, c), max(0, a, c) + 1):
        above, below = [], []
        for coeff, e in ((a, -b * x), (-c, d * x), (c - a, (a - c) * b - (d - b) * (x - a))):
            if coeff > 0:
                above.append(-(e // coeff))
            elif coeff < 0:
                below.append(e // -coeff)
        lo, hi = max(above), min(below)
        if x == 0:  # 0 is a vertex, so an end of its column
            lo, hi = lo + (lo == 0), hi - (hi == 0)
        if lo <= hi:
            lows.append((x, lo))
            highs.append((x, hi))
    return lows, highs


def hull_resolution_count(v1, v2) -> int:
    """Exceptional curve count by lattice convex hulls.

    The minimal resolution inserts a ray through every lattice point on the
    bounded part of the boundary of conv(cone & Z^2 - 0).  Those points all
    lie in the triangle (0, v1, v2): for a counter-clockwise pair, the
    convex hull of the triangle's lattice points other than 0 runs from v2
    back to v1 along that boundary.  Counting lattice points on it is an
    oracle wholly independent of continued fractions.

    The count is invariant under GL2(Z), so the cone is first moved by
    :func:`_short_cone` to a few columns.  A hull vertex is the lowest or
    highest point of its column, so Andrew's lower chain runs through the
    column minima and the upper chain through the column maxima.
    """
    if _cross((0, 0), v1, v2) == 0:
        raise ValueError("collinear generators")
    v1, v2 = _short_cone(v1, v2)
    lows, highs = _column_extremes(v1, v2)
    hull = _convex_chain(lows + highs[-1:])[:-1] + _convex_chain(highs[::-1] + lows[:1])[:-1]
    turned = hull[hull.index(v2) :] + hull[: hull.index(v2)]
    path = turned[: turned.index(v1) + 1]
    return sum(gcd(q[0] - p[0], q[1] - p[1]) for p, q in zip(path, path[1:])) - 1


def hirzebruch_jung_walk(m: int, k: int) -> int:
    """Length of the negative continued fraction of m/k, entry by entry.

    Each step takes the entry ``b = ceil(m/k)`` and goes on with ``k/(b*k -
    m)``.  While ``k > m - k`` the next entry is 2 and the step keeps ``r =
    m - k`` fixed while lowering ``m`` and ``k`` by ``r``, so a run of
    ``(k-1)//r`` entries 2 is taken at once.  Steps are then bounded by
    those of the Euclidean algorithm, O(log m).
    """
    count = 0
    while k > 0:
        r = m - k
        if 0 < r < k:
            n = (k - 1) // r
            m, k = m - n * r, k - n * r
            count += n
            continue
        b = -(-m // k)
        m, k = k, b * k - m
        count += 1
    if m != 1:
        raise markov.InvariantError("continued fraction expansion did not terminate at 1")
    return count


def cone_resolution_count(v: tuple[int, int], vp: tuple[int, int]) -> int:
    """Exceptional curve count of the minimal resolution of a fan cone.

    The cone is moved to the standard position ``cone(e1, (t, m))`` with
    ``0 <= t < m``; the singularity is then the cyclic quotient of order
    ``m`` and weight ``k = m - t``, whose minimal resolution has as many
    exceptional curves as the negative continued fraction of ``m/k`` has
    entries, walked by :func:`hirzebruch_jung_walk`.  Zero for a smooth
    cone.  The library reads the type off the degree matrix instead.
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
    k = (m - (s * b + r * d)) % m
    if k == 0 or gcd(k, m) != 1:
        raise markov.InvariantError(f"normalized cone type ({m}, {k}) is not reduced")
    return hirzebruch_jung_walk(m, k)


def brute_initial_triples(a: int, cap: int) -> set[tuple[int, int, int]]:
    """Initial triples by scanning all sorted triples with entries <= cap."""
    out = set()
    for u0 in range(1, cap + 1):
        for u1 in range(u0, cap + 1):
            for u2 in range(u1, u0 + u1 + 1):
                if u2 < u1 or u2 > cap:
                    continue
                if (u0 + u1 + u2) ** 2 == a * u0 * u1 * u2:
                    out.add((u0, u1, u2))
    return out


def brute_isomorphism_witness(q1: planes.DegreeMatrix, q2: planes.DegreeMatrix):
    """First ``(phi, perm)`` in the order positive automorphism (``a``, then
    unit ``c``), then column order, with ``phi(q1)`` permuted equal to ``q2``."""
    if q1.mu != q2.mu or sorted(q1.u) != sorted(q2.u):
        return None
    cols2 = tuple(zip(q2.u, q2.eta))
    perms = tuple(permutations(range(3)))
    for phi in automorphisms(q1.mu, positive_only=True):
        image = [abelian.apply_automorphism(phi, col, q1.mu) for col in zip(q1.u, q1.eta)]
        for i, j, k in perms:
            if (image[i], image[j], image[k]) == cols2:
                return phi, (i, j, k)
    return None


def k_annihilates(q: planes.DegreeMatrix, rows) -> bool:
    """Whether ``sum_i row[i] * q_i == 0`` in ``K`` for every row, adding
    the multiples of the columns ``(u_i, eta_i)`` one at a time."""
    for row in rows:
        total = (0, 0)
        for coeff, free, tors in zip(row, q.u, q.eta):
            total = (total[0] + coeff * free, (total[1] + coeff * tors) % q.mu)
        if total != (0, 0):
            return False
    return True


def scan_partner_kstar(q: planes.DegreeMatrix, slot: int):
    """K*-surface data over the T-singular point ``z(slot)`` by scanning
    every ``d1`` in ``[0, l1)``; asserts exactly one admissible value."""
    w = planes.fake_weights_of_degree_matrix(q)
    rest = sorted((i for i in range(3) if i != slot), key=lambda i: (w[i], i))
    perm = (rest[0], rest[1], slot)
    qp = permuted(q, perm)
    w0, w1, w2 = (w[i] for i in perm)
    l1 = brute_gorenstein_index(qp, 2)
    assert w2 % (l1 * l1) == 0, "not a T-singular point"
    d0 = -(w2 // (l1 * l1))
    assert (l1 * (w0 + w1)) % w2 == 0
    l2 = l1 * (w0 + w1) // w2
    hits = []
    for d1 in range(l1):
        if l1 > 1 and (d1 == 0 or gcd(l1, d1) != 1):
            continue
        d2_num = d1 * (w0 + w1) + d0 * l1 * w1
        if d2_num % w2:
            continue
        d2 = -(d2_num // w2)
        rows = ((l1, l1, -l2), (d1, d1 + l1 * d0, d2))
        if gcd(l2, d2) == 1 and abelian.annihilates(rows, qp.u, qp.eta, qp.mu):
            hits.append(KStarData(l1=l1, l2=l2, d0=d0, d1=d1, d2=d2))
    assert len(hits) == 1, f"d1 scan at slot {slot} of {q} found {hits}"
    return hits[0]


def lift_partner_kstar(q: planes.DegreeMatrix, slot: int) -> KStarData:
    """K*-surface data over the T-singular point ``z(slot)`` by testing each
    of the ``gcd(l1, l2)`` values of ``d1`` in ``[0, l1)`` that make ``d2``
    integral, with ``l1`` rebuilt as ``isqrt(w_k / d)`` from the T-test's
    ``d``; asserts exactly one value passes the primitivity and annihilation
    tests."""
    w = planes.fake_weights_of_degree_matrix(q)
    rest = sorted((i for i in range(3) if i != slot), key=lambda i: (w[i], i))
    perm = (rest[0], rest[1], slot)
    wp = tuple(w[i] for i in perm)
    up = tuple(q.u[i] for i in perm)
    etap = tuple(q.eta[i] for i in perm)
    rep = planes.singularity_report(q)
    flag, d = rep.is_t[slot], rep.d[slot]
    assert flag, "not a T-singular point"
    l1 = isqrt(wp[2] // d)
    d0 = -d
    assert -d0 * l1 * l1 == wp[2]
    num = l1 * (wp[0] + wp[1])
    assert num % wp[2] == 0
    l2 = num // wp[2]
    g = gcd(l1, l2)
    step = l1 // g
    first = (wp[1] // g) * pow(l2 // g, -1, step) % step if wp[1] % g == 0 else l1
    hits = []
    for d1 in range(first, l1, step):
        if l1 > 1 and (d1 == 0 or gcd(l1, d1) != 1):
            continue
        d2_num = d1 * (wp[0] + wp[1]) + d0 * l1 * wp[1]
        if d2_num % wp[2]:
            continue
        d2 = -(d2_num // wp[2])
        if gcd(l2, d2) != 1:
            continue
        if abelian.annihilates(((l1, l1, -l2), (d1, d1 + l1 * d0, d2)), up, etap, q.mu):
            hits.append(KStarData(l1=l1, l2=l2, d0=d0, d1=d1, d2=d2))
    assert len(hits) == 1, f"d1 lifts at slot {slot} of {q} found {hits}"
    return hits[0]


# ---------------------------------------------------------------------------
# The fan side: generator matrices, their correspondence with degree
# matrices, and the weights and degree of a K*-surface read off its fan.
# The library computes in K = Z + Z/mu alone; these are the dual route.
# ---------------------------------------------------------------------------


class NotGeneratorMatrixError(ValueError):
    pass


def validate_generator_matrix(p: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Check the projective generator matrix conditions for a 2x3 matrix.

    Columns must be primitive, pairwise distinct and positively span the
    plane; returns the fake weight vector.  Positive spanning is equivalent
    to the cofactor kernel vector having all entries of one sign.
    """
    if len(p) != 2 or any(len(row) != 3 for row in p):
        raise NotGeneratorMatrixError(f"expected a 2x3 matrix, got {markov._text(p)}")
    (a0, a1, a2), (b0, b1, b2) = p
    cols = [(a0, b0), (a1, b1), (a2, b2)]
    for col in cols:
        if gcd(col[0], col[1]) != 1:
            raise NotGeneratorMatrixError(f"column {markov._text(col)} is not primitive")
    if len(set(cols)) != 3:
        raise NotGeneratorMatrixError(f"columns are not pairwise distinct: {markov._text(cols)}")
    kernel = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    if 0 in kernel or len({k > 0 for k in kernel}) != 1:
        raise NotGeneratorMatrixError(f"columns of {markov._text(p)} do not positively span the plane")
    return tuple(abs(k) for k in kernel)


class GeneratorMatrix(namedtuple("GeneratorMatrix", "rows")):
    """2x3 integer matrix with primitive columns positively spanning Q^2,
    its ``rows`` validated at construction."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, int, int], tuple[int, int, int]]):
        rows = tuple(map(tuple, rows))
        validate_generator_matrix(rows)
        return super().__new__(cls, rows)

    @property
    def weights(self) -> tuple[int, int, int]:
        """The fake weight vector: the result of validating the rows."""
        return validate_generator_matrix(self.rows)

    def cone_of_fixed_point(self, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Generators of the fan cone carrying the k-th toric fixed point."""
        j1, j2 = (j for j in range(3) if j != k)
        return (self.rows[0][j1], self.rows[1][j1]), (self.rows[0][j2], self.rows[1][j2])


def generator_of(q: planes.DegreeMatrix) -> GeneratorMatrix:
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
        raise markov.InvariantError(f"kernel basis of {markov._text(q)} has no integral first row")
    try:
        p = GeneratorMatrix(((1, x, y), (0, mu * u2, -mu * u1)))
    except ValueError as exc:  # a refusal of the row Hermite form is a defect here, not bad input
        raise markov.InvariantError(f"kernel basis of {markov._text(q)}: {exc}") from exc
    if not corresponds(q, p):
        raise markov.InvariantError(f"kernel basis of {markov._text(q)} fails the correspondence test")
    return p


def corresponds(q: planes.DegreeMatrix, p: GeneratorMatrix) -> bool:
    """Correspondence test: same fake weights and ``q`` annihilates ``p``.

    For matrices sharing the fake weight vector, annihilation of both rows
    (by :func:`fwpp.abelian.annihilates`) already forces the cokernel
    projection to agree with ``q`` up to automorphism, so this is an
    if-and-only-if test.
    """
    if p.weights != planes.fake_weights_of_degree_matrix(q):
        return False
    return abelian.annihilates(p.rows, q.u, q.eta, q.mu)


def weight_4vector(kstar: KStarData) -> tuple[int, int, int, int]:
    """The four fake weights of the ambient 3x4 generator matrix of ``kstar``, in closed form."""
    l1, l2, d0, d1, d2 = kstar
    return (-l1 * l2 * d0 - l2 * d1 - l1 * d2, l2 * d1 + l1 * d2, -l2 * d0, -l1 * d0)


def kstar_degree(kstar: KStarData) -> Fraction:
    """Canonical self-intersection of the K*-surface, exact."""
    w1, w2, _, _ = weight_4vector(kstar)
    return (Fraction(1, w1) + Fraction(1, w2)) * (2 + Fraction(kstar.l1, kstar.l2) + Fraction(kstar.l2, kstar.l1))


def cokernel_structure(p: Sequence[Sequence[int]]) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
    """Cokernel ``Z^3 / im(P^T)`` of a 2x3 generator matrix, in closed form.

    Returns ``(mu, u, eta)``: the torsion order (the gcd of the fake
    weights, the absolute 2x2 minors) and the free and torsion rows of the
    images of the standard basis vectors, i.e. a degree matrix
    corresponding to ``p``.

    The free row is ``w / mu``: the fake weight vector spans the kernel of
    ``P``.  For the torsion row, ``s . v_0 = 1`` (``v_0`` is primitive)
    puts ``(1, c_1, c_2)`` with ``c_j = s . v_j`` into the row lattice, and
    ``alpha*u_1 + beta*u_2 = 1`` (``gcd(u_1, u_2) = 1``) completes
    ``(u_1, u_2)`` to a basis of ``Z^2``; the torsion row is then
    ``(beta*c_1 - alpha*c_2, -beta, alpha) mod mu``.  Both rows are checked
    to annihilate ``P``, and the first two columns to generate ``K``, which
    together certify the cokernel.
    """
    weights = validate_generator_matrix(p)
    mu = gcd(gcd(weights[0], weights[1]), weights[2])
    free_row = tuple(w // mu for w in weights)
    (x0, x1, x2), (y0, y1, y2) = p
    s0, s1 = abelian.bezout(x0, y0)
    c1, c2 = s0 * x1 + s1 * y1, s0 * x2 + s1 * y2
    alpha, beta = abelian.bezout(free_row[1], free_row[2])
    tors_row = ((beta * c1 - alpha * c2) % mu, -beta % mu, alpha % mu)
    if not abelian.annihilates(p, free_row, tors_row, mu):
        raise markov.InvariantError(f"cokernel projection does not annihilate the rows of {p}")
    if not abelian.pair_generates((free_row[0], tors_row[0]), (free_row[1], tors_row[1]), mu):
        raise markov.InvariantError(f"cokernel projection of {p} is not onto")
    return mu, free_row, tors_row


def slice_matrices(kstar: KStarData) -> tuple[GeneratorMatrix, GeneratorMatrix]:
    """Generator matrices of the two degenerate fibers."""
    p1 = GeneratorMatrix(
        (
            (kstar.l1, kstar.l1, -kstar.l2),
            (kstar.d1, kstar.d1 + kstar.l1 * kstar.d0, kstar.d2),
        )
    )
    p2 = GeneratorMatrix(
        (
            (kstar.l2, kstar.l2, -kstar.l1),
            (kstar.d2, kstar.d2 + kstar.l2 * kstar.d0, kstar.d1),
        )
    )
    return p1, p2


def can_degenerate(q: planes.DegreeMatrix, slot: int) -> bool:
    """Whether ``z(slot)`` carries a degeneration from a non-toric surface.

    Requires a T-singularity with local Gorenstein index above one and the
    norm inequality making the second isotropy order exceed one as well.
    Raises ``ValueError`` for a slot outside ``{0, 1, 2}``.
    """
    if slot not in (0, 1, 2):
        raise ValueError(f"fixed point index must be 0, 1 or 2, got {slot!r}")
    iota = planes.local_gorenstein_index(q, slot)
    w = planes.fake_weights_of_degree_matrix(q)
    return iota > 1 and w[slot] % (iota * iota) == 0 and iota * sum(w) > (iota + 1) * w[slot]


def cokernel_partner(q: planes.DegreeMatrix, slot: int) -> planes.DegreeMatrix:
    """The adjusted partner over ``z(slot)`` read off the second slice: the
    surface data of :func:`fwpp.adjacency.adjacent_partner`, both slice
    generator matrices built and checked, the cokernel of ``P2`` in closed
    form, then adjusted."""
    kstar = adjacency.adjacent_partner(q, slot).kstar
    p1, p2 = slice_matrices(kstar)
    w = planes.fake_weights_of_degree_matrix(q)
    assert p1.weights[2] == w[slot] and sorted(p1.weights[:2]) == sorted(w[n] for n in range(3) if n != slot)
    return planes.adjust(planes.DegreeMatrix(*cokernel_structure(p2.rows)))


def snf_cokernel_structure(p):
    """Cokernel ``Z^3 / im(P^T)`` of a 2x3 generator matrix from the Smith
    normal form ``U * P^T * V``, as ``(mu, u, eta)``: row 1 of ``U`` is the
    torsion row, row 2 (sign-normalized) the free row."""
    weights = validate_generator_matrix(p)
    u_mat, s, _ = smith_normal_form(transpose(p))
    assert s[0][0] == 1, f"first invariant factor of {p} is {s[0][0]}"
    mu = s[1][1]
    assert mu == gcd(gcd(weights[0], weights[1]), weights[2])
    free_row = u_mat[2] if u_mat[2][0] > 0 else [-x for x in u_mat[2]]
    assert all(x > 0 for x in free_row)
    return mu, tuple(free_row), tuple(x % mu for x in u_mat[1])


def hnf_kernel_basis(u, eta, mu: int):
    """Kernel basis of a degree matrix's grading map as a 3x2 matrix: the
    kernel of the lift ``[[u, 0], [eta, mu]]`` from a Smith normal form,
    cut to its first three coordinates and put into row Hermite form."""
    for i in range(3):
        for j in range(i + 1, 3):
            if not abelian.pair_generates((u[i], eta[i]), (u[j], eta[j]), mu):
                raise ValueError(f"columns {i},{j} do not generate the full group")
    lift = [list(u) + [0], list(eta) + [mu]]
    _, s, v = smith_normal_form(lift)
    rank = sum(1 for t in range(2) if s[t][t] != 0)
    assert rank == 2
    rows = [[v[r][j] for r in range(3)] for j in range(rank, 4)]
    h, _ = hermite_normal_form(rows)
    return transpose(h)


def mutate(t: SolutionTriple) -> SolutionTriple:
    """Replace the last entry by the second root of the quadratic in it.

    The result is again a solution and mutating twice returns the input.
    """
    u0, u1, u2 = t.u
    return SolutionTriple(t.a, (u0, u1, t.a * u0 * u1 - 2 * u0 - 2 * u1 - u2))


def is_initial(t: SolutionTriple) -> bool:
    """True iff the (sorted) triple does not mutate to a smaller norm.

    Requires ascendingly sorted input; equivalent to ``u2 <= u0 + u1``.
    """
    u0, u1, u2 = t.u
    if not (u0 <= u1 <= u2):
        raise ValueError(f"is_initial expects an ascendingly sorted triple, got {t.u}")
    return u2 <= u0 + u1


def sorted_solution(t: SolutionTriple) -> SolutionTriple:
    return SolutionTriple(t.a, tuple(sorted(t.u)))


def play(u: tuple[int, int, int], a: int, slot: int) -> tuple[int, int, int]:
    """Mutate ``u`` at ``slot`` and return the ascendingly sorted result."""
    rest = [u[j] for j in range(3) if j != slot]
    new = a * rest[0] * rest[1] - 2 * rest[0] - 2 * rest[1] - u[slot]
    rest.append(new)
    return tuple(sorted(rest))


def bfs_tree(a: int, norm_bound: int, depth_bound=None, max_nodes=None):
    """``(nodes, edges, depths)`` of the mutation forest by breadth-first
    search, sorting every mutated triple before testing the bound and
    reaching each edge from both ends, over all three slots; raises
    ``EnumerationCapExceeded`` where the library's enumeration must."""
    roots = sorted(t.u for t in markov.initial_solutions(a) if t.norm <= norm_bound)
    depths = {r: 0 for r in roots}
    edges = set()
    queue = deque(roots)
    while queue:
        u = queue.popleft()
        if depth_bound is not None and depths[u] >= depth_bound:
            continue
        for slot in range(3):
            v = play(u, a, slot)
            if v == u or sum(v) > norm_bound:
                continue
            edges.add((min(u, v), max(u, v)))
            if v not in depths:
                if max_nodes is not None and len(depths) >= max_nodes:
                    raise markov.EnumerationCapExceeded(f"more than {max_nodes} nodes")
                depths[v] = depths[u] + 1
                queue.append(v)
    return tuple(sorted(depths)), tuple(sorted(edges)), depths


def tree_of(a: int, norm_bound: int, depth_bound: int | None, levels, kids) -> markov.MutationTree:
    """A tree built by hand from its ``levels`` and ``kids``, its ``nodes`` sorted as :func:`fwpp.markov.enumerate_tree`,
    which builds every tree of the library, sorts them."""
    return markov.MutationTree(a, norm_bound, depth_bound, levels, kids, tuple(sorted(u for level in levels for u in level)))


def tree_text(tree: markov.MutationTree, fmt: str) -> str:
    """What ``fwpp solve --format fmt`` prints for ``tree``: each edge's parent
    by ``play``, each triple's text built wherever it occurs, one ``print``
    per row."""
    _text = markov._text

    def _decimal_join(values, sep=","):
        return sep.join(map(_text, values))

    def enc(u):
        return [_text(c) for c in u]

    def label(u):
        return f"({_decimal_join(u)})"

    edges = tuple(sorted((play(v, tree.a, 2), v) for v in tree.nodes if tree.depths[v]))
    rows = sorted(tree.nodes, key=lambda u: (markov.norm(u), u))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if fmt == "json":
            obj = {
                "a": tree.a,
                "normBound": _text(tree.norm_bound),
                "depthBound": tree.depth_bound,
                "roots": [enc(r) for r in tree.roots],
                "nodes": [
                    {"u": enc(u), "norm": _text(markov.norm(u)), "depth": tree.depths[u]}
                    for u in tree.nodes
                ],
                "edges": [[enc(x), enc(y)] for x, y in edges],
            }
            print(json.dumps(obj, separators=(",", ":")))
        elif fmt == "dot":
            lines = [f"graph mutation_tree_{tree.a} {{"]
            for u in tree.nodes:
                lines.append(f'  "{label(u)}";')
            for x, y in edges:
                lines.append(f'  "{label(x)}" -- "{label(y)}";')
            lines.append("}")
            print("\n".join(lines))
        elif fmt == "md":
            print("| u | norm | initial |\n|---|---|---|")
            for u in rows:
                print(f"| ({_decimal_join(u)}) | {_text(markov.norm(u))} | {'yes' if u[2] <= u[0] + u[1] else 'no'} |")
        else:
            for u in rows:
                print(_decimal_join((*u, markov.norm(u)), "\t"))
    return out.getvalue()


def normalizing_classify(a: int, norm_bound: int, mu: int | None = None) -> list[planes.ClassifiedPlane]:
    """The classification with every series eta of every tree node adjusted
    and equal adjusted forms merged, whether or not the node has tied
    entries; no node cap."""
    out = []
    for deg, fam_mu in planes.SERIES_FAMILIES:
        if deg != a or (mu is not None and fam_mu != mu):
            continue
        etas = planes.SERIES_ETAS[(deg, fam_mu)]
        for u_sorted in markov.enumerate_tree(fam_mu * a, norm_bound // fam_mu).nodes:
            u_arr, _ = markov.arrange(u_sorted, fam_mu * a)
            groups: dict[planes.DegreeMatrix, list[int]] = {}
            for eta in etas:
                q = planes.DegreeMatrix(fam_mu, u_arr, (0, 1 % fam_mu, eta % fam_mu))
                if planes.integral_degree(q) != a:
                    raise markov.InvariantError(f"classified matrix {q} has wrong degree")
                groups.setdefault(planes.adjust(q), []).append(eta)
            for canonical in sorted(groups):
                series = tuple(sorted(planes.SeriesId(a, fam_mu, eta) for eta in groups[canonical]))
                # the adjusted eta is the least merged eta, so the canonical label is the least merged label
                assert planes._series_of(canonical, a) == series[0]
                out.append(classified_plane(canonical, series))
    out.sort(key=lambda c: (c.norm, c.u, c.eta, c.mu))
    return out


def classified_plane(q: planes.DegreeMatrix, all_series) -> planes.ClassifiedPlane:
    """The class record of the adjusted matrix ``q`` with the merged labels ``all_series``."""
    return planes.ClassifiedPlane(sum(planes.fake_weights_of_degree_matrix(q)), q.u, q.eta, q.mu, tuple(all_series))


def classify_text(classes, a: int, fmt: str, report: bool = False) -> str:
    """What ``fwpp classify --format fmt`` prints for ``classes``: in tsv or
    md one ``print`` per row, in json one ``json.dumps`` of every plane's
    object, with its singularity report when ``report`` is set."""
    if fmt == "json":
        return dumps([plane_obj(c, with_report=report) for c in classes]) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        row = "{}\t{}\t{}\t{}\t{}"
        if fmt == "md":
            print("| series | u | eta | weights | degree |")
            print("|---|---|---|---|---|")
            row = "| {} | ({}) | ({}) | ({}) | {} |"
        for c in classes:
            cols = (",".join(map(markov._text, v)) for v in (c.u, c.eta, c.weights))
            print(row.format(c.series, *cols, a))
    return out.getvalue()


def tuple_admissible_arrangements(u, reduced_a: int):
    """Column orders with the arranged shape, testing each permuted tuple
    with a predicate that dispatches on the class at every call."""

    def ok(v):
        if reduced_a == 9:
            return v[0] <= v[1] <= v[2]
        if reduced_a == 8:
            return v[0] <= v[1] and v[2] % 2 == 0
        if reduced_a == 6:
            return v[1] % 2 == 0 and v[2] % 3 == 0
        if reduced_a == 5:
            return v[0] <= v[1] and v[2] % 5 == 0
        raise ValueError(f"not a reduced parameter: {reduced_a}")

    perms = [p for p in permutations(range(3)) if ok(tuple(u[i] for i in p))]
    if not perms:
        raise ValueError(f"{u} admits no arranged order for class {reduced_a}")
    if len({tuple(u[i] for i in p) for p in perms}) != 1:
        raise markov.InvariantError(f"ambiguous arrangement of {u} in class {reduced_a}")
    return perms


def graph_components(graph) -> list[set[planes.ClassifiedPlane]]:
    """Connected components of an adjacency graph, isolated nodes included."""
    import networkx

    g = networkx.Graph()
    g.add_nodes_from(n.plane for n in graph.nodes)
    g.add_edges_from((e.a, e.b) for e in graph.edges)
    return list(networkx.connected_components(g))


def adjacency_neighbors(q: planes.DegreeMatrix) -> list[adjacency.AdjacentPair]:
    """The partner over each T-singular fixed point of ``q``, in slot order.

    A pair is a self-adjacency when ``pair.q2 == planes.adjust(q)``, and
    several slots may reach the same partner class.  Toric pairs count;
    adjacency does not require the common surface to be non-toric.
    """
    return [adjacency.adjacent_partner(q, k) for k in range(3) if planes.singularity_report(q).is_t[k]]


def self_kstar(q: planes.DegreeMatrix, pairs) -> KStarData | None:
    """The surface of the first non-toric self-pair of ``q`` among ``pairs``,
    else of the first self-pair, else ``None``."""
    kstars = [p.kstar for p in pairs if p.q2 == q]
    return next((k for k in kstars if k.non_toric), kstars[0] if kstars else None)


def full_adjacency_graph(a: int, mu: int, norm_bound: int) -> AdjacencyGraph:
    """The adjacency graph with every partner reconstructed: each edge from
    both ends, and every partner past the bound built and then dropped."""
    classified = planes.classify(a, norm_bound, mu=mu)
    nodes = []
    edges: dict[frozenset, bool] = {}
    class_of = {c.matrix: c for c in classified}
    for q, c in class_of.items():
        pairs = adjacency_neighbors(q)
        nodes.append(GraphNode(plane=c, self_kstar=self_kstar(q, pairs), all_t=len(pairs) == 3))
        for pair in pairs:
            if pair.q2 != q and pair.q2 in class_of:
                edges[frozenset((c, class_of[pair.q2]))] = not (set(c.all_series) & set(class_of[pair.q2].all_series))
    edge_list = [GraphEdge(*sorted(key, key=lambda m: (m.u, m.eta)), jump=jump) for key, jump in edges.items()]
    edge_list.sort(key=lambda e: (e.a.u, e.a.eta, e.b.u, e.b.eta))
    return AdjacencyGraph(a=a, mu=mu, norm_bound=norm_bound, nodes=tuple(nodes), edges=tuple(edge_list))


def census(a: int, mu: int) -> list[adjacency.CensusEntry]:
    """Self-adjacent series of the ``(a, mu)`` family, from the unpruned
    neighbours of every class at the family's base norm, in classify order."""
    base_norm = mu * markov.norm(markov.REDUCED_ROOTS[mu * a])
    out = []
    for c in planes.classify(a, base_norm, mu=mu):
        kstar = self_kstar(c.matrix, adjacency_neighbors(c.matrix))
        if kstar is not None:
            out.append(adjacency.CensusEntry(series=c.series, kstar=kstar))
    return out


# ---------------------------------------------------------------------------
# Completeness: the classification checked from the other side, starting
# from every degree matrix of a solution and every K*-surface in a box,
# never from the series table or the partner construction
# ---------------------------------------------------------------------------


def toric_families(a: int, norm_bound: int) -> dict[tuple[int, int], list[planes.DegreeMatrix]]:
    """Every plane of integral degree ``a`` and norm at most ``norm_bound``, one adjusted matrix per isomorphism class,
    keyed by ``(a, mu)`` for each ``mu`` whose family has solutions, each list sorted.

    ``w = mu*u`` has degree ``a`` exactly when ``u`` solves the equation with parameter ``a*mu``, which has solutions
    only up to 9.  For every node ``u`` of that tree, every ``eta`` in ``(Z/mu)^3`` whose columns generate ``K`` pairwise
    is a plane; the planes of one node are grouped by :func:`brute_isomorphism_witness`, and one of each group is
    adjusted.  A column order other than the sorted one is a permutation, so an isomorphism, of a plane met here.
    """
    out = {}
    for mu in range(1, 9 // a + 1):
        if not markov.initial_solutions(a * mu):
            continue
        classes = out[(a, mu)] = []
        for u in markov.enumerate_tree(a * mu, norm_bound // mu).nodes:
            groups: list[planes.DegreeMatrix] = []
            for eta in product(range(mu), repeat=3):
                try:
                    q = planes.DegreeMatrix(mu, u, eta)
                except ValueError:  # two columns fail to generate K
                    continue
                if all(brute_isomorphism_witness(r, q) is None for r in groups):
                    groups.append(q)
            classes += [planes.adjust(r) for r in groups]
        classes.sort()
    return out


def kstar_box(l_max: int, d0_max: int, d2_max: int) -> Iterator[KStarData]:
    """Every ``KStarData`` the constructor accepts with ``l1, l2 <= l_max``, ``-d0_max <= d0 <= -1``, ``0 <= d1 <= l1``
    and ``|d2| <= d2_max``."""
    for l1, l2, d0 in product(range(1, l_max + 1), range(1, l_max + 1), range(-d0_max, 0)):
        for d1 in range(l1 + 1):
            # the slope inequalities 0 < d1*l2 + d2*l1 < -d0*l1*l2 hold d2 in an open window; the constructor checks the rest
            low, high = max(-d1 * l2 // l1 + 1, -d2_max), min((-d0 * l1 * l2 - d1 * l2 - 1) // l1, d2_max)
            for d2 in range(low, high + 1):
                with contextlib.suppress(ValueError):
                    yield KStarData(l1, l2, d0, d1, d2)


def slice_planes(kstar: KStarData) -> tuple[planes.DegreeMatrix, planes.DegreeMatrix]:
    """The adjusted degree matrices of the two slices of ``kstar``: the cokernels of its slice generator matrices."""
    return tuple(planes.adjust(planes.DegreeMatrix(*cokernel_structure(p.rows))) for p in slice_matrices(kstar))


def past_the_digit_limit() -> tuple[int, int, int]:
    """The degree-9 triple 18 mutations below (1, 1, 1): 2,009, 3,251 and
    5,261 digits, past the 4,300 that ``str(int)`` converts by default."""
    u = (1, 1, 1)
    while u[2] < 10**5000:
        u = tuple(sorted((u[1], u[2], (u[1] + u[2]) ** 2 // u[0])))
    return u


# ---------------------------------------------------------------------------
# JSON objects as dicts and lists, for ``json.dumps``: the route the text
# writers of ``fwpp.cli`` (``_tree_json``, ``_class_json``, ...) are checked against, byte for byte
# ---------------------------------------------------------------------------


def dumps(obj) -> str:
    """Compact ``json.dumps`` of ``obj``, its numbers written at any size."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, separators=(",", ":"))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def matrix_obj(q: planes.DegreeMatrix) -> dict:
    return {"mu": q.mu, "u": [markov._text(x) for x in q.u], "eta": list(q.eta)}


def tree_obj(tree: markov.MutationTree) -> dict:
    def enc(u):
        return [markov._text(x) for x in u]

    return {
        "a": tree.a,
        "normBound": markov._text(tree.norm_bound),
        "depthBound": tree.depth_bound,
        "roots": [enc(r) for r in tree.roots],
        "nodes": [{"u": enc(u), "norm": markov._text(markov.norm(u)), "depth": tree.depths[u]} for u in tree.nodes],
        "edges": [[enc(x), enc(y)] for x, y in tree.edges],
    }


def report_obj(report: planes.SingularityReport) -> dict:
    return {
        "cl": [markov._text(x) for x in report.cl],
        "iota": [markov._text(x) for x in report.iota],
        "isT": list(report.is_t),
        "d": [None if x is None else markov._text(x) for x in report.d],
        "resCurves": list(report.res_curves),
    }


def plane_obj(c: planes.ClassifiedPlane, with_report: bool = False) -> dict:
    obj = {
        "series": str(c.series),
        "mu": c.mu,
        "u": [markov._text(x) for x in c.u],
        "eta": list(c.eta),
        "weights": [markov._text(c.mu * x) for x in c.u],
        "degree": str(c.series.a),
    }
    if len(c.all_series) > 1:
        obj["mergedSeries"] = [str(s) for s in c.all_series]
    if with_report:
        obj["report"] = report_obj(planes.singularity_report(c.matrix))
    return obj


def graph_obj(graph: AdjacencyGraph) -> dict:
    label = cli._label
    return {
        "a": graph.a,
        "mu": graph.mu,
        "normBound": markov._text(graph.norm_bound),
        "nodes": [
            {
                "label": label(n.plane),
                "series": [str(s) for s in n.plane.all_series],
                "u": [markov._text(x) for x in n.plane.u],
                "eta": list(n.plane.eta),
                "selfAdjacent": n.self_kstar is not None,
                "nonToricSelf": n.self_kstar is not None and n.self_kstar.non_toric,
                "allT": n.all_t,
            }
            for n in graph.nodes
        ],
        "edges": [{"from": label(e.a), "to": label(e.b), "jump": e.jump} for e in graph.edges],
        "selfAdjacent": [label(n.plane) for n in graph.nodes if n.self_kstar is not None],
    }


def sing_obj(q: planes.DegreeMatrix) -> dict:
    """What ``fwpp sing`` prints for ``q``: the matrix as given, its series label at an integral degree, weights, degree and report."""
    obj = matrix_obj(q)
    weights = planes.fake_weights_of_degree_matrix(q)
    deg = planes.degree(weights)
    if deg.denominator == 1:
        obj["series"] = str(planes._series_of(planes.adjust(q), deg.numerator))
    obj["weights"] = [markov._text(w) for w in weights]
    obj["degree"] = "/".join(map(markov._text, (deg.numerator, deg.denominator)[: 1 + (deg.denominator > 1)]))
    obj["report"] = report_obj(planes.singularity_report(q))
    return obj
