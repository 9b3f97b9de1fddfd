"""Exact integer matrix normal forms and the groups ``Z + Z/mu``.

Matrices are lists of row lists of plain Python integers; all operations are
exact.  The Smith and Hermite normal forms are public helpers that favour
determinism over asymptotics: pivots are chosen as the entry of smallest
absolute value, scanning rows then columns, so repeated runs produce
identical transformation matrices.  The library itself does not call
them: the cokernel of a generator matrix and the kernel of a grading map
are both read off in closed form from Bezout coefficients and modular
inverses.

The group ``K = Z + Z/mu`` is represented by :class:`KContext` (carrying
``mu``) and :class:`KElement` (a free part and a torsion residue).  ``mu = 1``
means the free group; torsion residues are then identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

from .markov import InvariantError

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*a)]


def det2(a: int, b: int, c: int, d: int) -> int:
    return a * d - b * c


def det_unimodular(m: Sequence[Sequence[int]]) -> int:
    """Determinant by cofactor expansion; only used on tiny matrices."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return det2(m[0][0], m[0][1], m[1][0], m[1][1])
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_unimodular(minor)
    return total


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


# ---------------------------------------------------------------------------
# The groups K = Z + Z/mu
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KContext:
    """Carries the torsion order ``mu`` of ``K = Z + Z/mu`` (``mu >= 1``)."""

    mu: int

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError(f"torsion order must be >= 1, got {self.mu}")

    def element(self, free: int, tors: int = 0) -> "KElement":
        return KElement(free, tors % self.mu)

    def units(self) -> list[int]:
        """Residues coprime to ``mu``; the single unit of Z/1 is 0."""
        if self.mu == 1:
            return [0]
        return [c for c in range(self.mu) if gcd(c, self.mu) == 1]

    def inverse(self, c: int) -> int:
        if self.mu == 1:
            return 0
        return pow(c, -1, self.mu)


@dataclass(frozen=True, order=True)
class KElement:
    """An element of ``Z + Z/mu``: free part and reduced torsion residue."""

    free: int
    tors: int


@dataclass(frozen=True)
class KAutomorphism:
    """The automorphism ``(k, m) -> (eps*k, a*k + c*m)`` of ``Z + Z/mu``.

    ``eps`` is +-1, ``a`` any residue, ``c`` a unit; these exhaust the
    automorphism group, which has order ``2 * mu * phi(mu)``.
    """

    eps: int
    a: int
    c: int


def automorphisms(ctx: KContext, positive_only: bool = False) -> Iterator[KAutomorphism]:
    """All automorphisms of ``Z + Z/mu``; ``positive_only`` keeps ``eps = 1``.

    Only the ``eps = 1`` maps preserve positivity of free parts, which is
    what matters when acting on degree matrices.
    """
    signs = (1,) if positive_only else (1, -1)
    for eps in signs:
        for a in range(ctx.mu):
            for c in ctx.units():
                yield KAutomorphism(eps, a, c)


def apply_automorphism(phi: KAutomorphism, q: KElement, ctx: KContext) -> KElement:
    return KElement(phi.eps * q.free, (phi.a * q.free + phi.c * q.tors) % ctx.mu)


def compose_automorphisms(phi: KAutomorphism, psi: KAutomorphism, ctx: KContext) -> KAutomorphism:
    """The map applying ``psi`` first and then ``phi``."""
    return KAutomorphism(
        phi.eps * psi.eps,
        (phi.a * psi.eps + phi.c * psi.a) % ctx.mu,
        (phi.c * psi.c) % ctx.mu if ctx.mu > 1 else 0,
    )


def invert_automorphism(phi: KAutomorphism, ctx: KContext) -> KAutomorphism:
    c_inv = ctx.inverse(phi.c)
    return KAutomorphism(phi.eps, (-phi.eps * c_inv * phi.a) % ctx.mu, c_inv)


def k_membership_multiple(w: KElement, q: KElement, ctx: KContext) -> int:
    """Smallest ``n >= 1`` with ``n*w`` an integer multiple of ``q``.

    Requires ``q.free > 0``.  The multiplier is forced on free parts, so the
    answer is ``step * m`` where ``step = q.free / gcd(w.free, q.free)`` and
    ``m`` kills the residual torsion defect.  Never exceeds ``mu * q.free``,
    the order of the quotient group.
    """
    if q.free <= 0:
        raise ValueError(f"membership engine needs a positive free part, got {q.free}")
    mu = ctx.mu
    g = gcd(abs(w.free), q.free)
    step = q.free // g
    defect = (step * w.tors - (w.free // g) * q.tors) % mu
    m = mu // gcd(defect, mu)
    return step * m


# ---------------------------------------------------------------------------
# Generator matrices and their cokernels
# ---------------------------------------------------------------------------


def bezout(a: int, c: int) -> tuple[int, int]:
    """Coefficients ``(s, r)`` with ``s*a + r*c == 1`` for coprime a, c."""
    old_r, r = a, c
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    if old_r == 1:
        return old_s, old_t
    if old_r == -1:
        return -old_s, -old_t
    raise ValueError(f"{a} and {c} are not coprime")


class NotGeneratorMatrixError(ValueError):
    pass


def _signed_cofactor_kernel(p: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """The kernel vector of a 2x3 matrix via signed 2x2 cofactors."""
    v = [(p[0][j], p[1][j]) for j in range(3)]
    return (
        det2(v[1][0], v[2][0], v[1][1], v[2][1]),
        -det2(v[0][0], v[2][0], v[0][1], v[2][1]),
        det2(v[0][0], v[1][0], v[0][1], v[1][1]),
    )


def validate_generator_matrix(p: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Check the projective generator matrix conditions for a 2x3 matrix.

    Columns must be primitive, pairwise distinct and positively span the
    plane; returns the fake weight vector.  Positive spanning is equivalent
    to the cofactor kernel vector having all entries of one sign.
    """
    if len(p) != 2 or any(len(row) != 3 for row in p):
        raise NotGeneratorMatrixError(f"expected a 2x3 matrix, got {p}")
    cols = [(p[0][j], p[1][j]) for j in range(3)]
    for col in cols:
        if gcd(col[0], col[1]) != 1:
            raise NotGeneratorMatrixError(f"column {col} is not primitive")
    if len(set(cols)) != 3:
        raise NotGeneratorMatrixError(f"columns are not pairwise distinct: {cols}")
    kernel = _signed_cofactor_kernel(p)
    if 0 in kernel or len({k > 0 for k in kernel}) != 1:
        raise NotGeneratorMatrixError(f"columns of {p} do not positively span the plane")
    return tuple(abs(k) for k in kernel)


def annihilates(rows: Iterable[Sequence[int]], free: Sequence[int], tors: Sequence[int], mu: int) -> bool:
    """Whether ``sum_i row[i] * (free[i], tors[i]) == 0`` in ``Z + Z/mu``
    for every row: the free sum is 0 and ``mu`` divides the torsion sum."""
    for row in rows:
        if sum(x * f for x, f in zip(row, free)) or sum(x * t for x, t in zip(row, tors)) % mu:
            return False
    return True


def cokernel_structure(p: Sequence[Sequence[int]]) -> tuple[KContext, list[KElement]]:
    """Cokernel ``Z^3 / im(P^T)`` of a 2x3 generator matrix, in closed form.

    Returns the torsion context (``mu`` is the gcd of the fake weights, the
    absolute 2x2 minors) together with the images of the standard basis
    vectors, i.e. the columns of a degree matrix corresponding to ``p``.

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
    free_row = [w // mu for w in weights]
    (x0, x1, x2), (y0, y1, y2) = p
    s0, s1 = bezout(x0, y0)
    c1, c2 = s0 * x1 + s1 * y1, s0 * x2 + s1 * y2
    alpha, beta = bezout(free_row[1], free_row[2])
    tors_row = [(beta * c1 - alpha * c2) % mu, -beta % mu, alpha % mu]
    if not annihilates(p, free_row, tors_row, mu):
        raise InvariantError(f"cokernel projection does not annihilate the rows of {p}")
    ctx = KContext(mu)
    cols = [KElement(free_row[j], tors_row[j]) for j in range(3)]
    if not pair_generates(cols[0], cols[1], ctx):
        raise InvariantError(f"cokernel projection of {p} is not onto")
    return ctx, cols


def kernel_basis(cols: Sequence[KElement], ctx: KContext) -> Matrix:
    """Basis of ``{m in Z^3 : sum m_i q_i == 0 in K}`` as a 3x2 matrix.

    The columns are the rows of the lattice's row Hermite normal form
    ``[[1, x, y], [0, mu*u_2, -mu*u_1]]``, a projective generator matrix for
    the same plane.  Raises ``ValueError`` if a column pair fails to generate
    ``K``.

    With ``q_i = (u_i, eta_i)``, the pair checks force ``gcd(u_1, u_2) = 1``
    and make ``D = u_1*eta_2 - u_2*eta_1`` a unit mod ``mu``.  Kernel vectors
    ``(0, t*u_2, -t*u_1)`` have torsion ``-t*D``, so ``mu | t``: the second
    row.  With ``alpha*u_1 + beta*u_2 = 1``, ``x_0 = -u_0*alpha`` and
    ``y_0 = -u_0*beta``, the vector ``(1, x_0 + t*u_2, y_0 - t*u_1)`` has
    free part 0 and torsion ``E - t*D``, ``E = eta_0 + x_0*eta_1 +
    y_0*eta_2``, which vanishes for ``t = E/D mod mu``.  Reducing ``x`` into
    ``[0, mu*u_2)`` gives the first row in Hermite form.
    """
    for i in range(3):
        for j in range(i + 1, 3):
            if not pair_generates(cols[i], cols[j], ctx):
                raise ValueError(f"columns {i},{j} do not generate the full group")
    mu = ctx.mu
    (u0, e0), (u1, e1), (u2, e2) = ((c.free, c.tors) for c in cols)
    alpha, beta = bezout(u1, u2)
    x0, y0 = -u0 * alpha, -u0 * beta
    s = (e0 + x0 * e1 + y0 * e2) * pow(u1 * e2 - u2 * e1, -1, mu) % mu
    x = (x0 + s * u2) % (mu * u2)
    y, rem = divmod(-(u0 + x * u1), u2)
    if rem:
        raise InvariantError(f"kernel basis of {cols} has no integral first row")
    return [[1, 0], [x, mu * u2], [y, -mu * u1]]


def pair_generates(x: KElement, y: KElement, ctx: KContext) -> bool:
    """Whether two elements generate all of ``Z + Z/mu``.

    The subgroup generated by ``x``, ``y`` and ``(0, mu)`` in the lift
    ``Z^2`` is everything iff the gcd of the 2x2 minors of the lift is 1.
    """
    minor = x.free * y.tors - y.free * x.tors
    return gcd(minor, ctx.mu * gcd(x.free, y.free)) == 1
