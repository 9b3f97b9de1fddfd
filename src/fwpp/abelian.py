"""Closed-form integer arithmetic of generator matrices and the groups ``Z + Z/mu``.

Matrices are lists of row lists of plain Python integers; all operations are
exact.  The kernel of a grading map is read off in closed form from Bezout
coefficients and modular inverses.

An element of the group ``K = Z + Z/mu`` is an integer pair ``(free, tors)``
with ``0 <= tors < mu``, and the group is given by ``mu`` itself.  ``mu = 1``
means the free group; torsion residues are then identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .markov import InvariantError

Matrix = list[list[int]]
#: An element ``(free, tors)`` of ``Z + Z/mu``.
Pair = tuple[int, int]


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*a)]


def det2(a: int, b: int, c: int, d: int) -> int:
    return a * d - b * c


# ---------------------------------------------------------------------------
# The groups K = Z + Z/mu
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KAutomorphism:
    """The automorphism ``(k, m) -> (eps*k, a*k + c*m)`` of ``Z + Z/mu``.

    ``eps`` is +-1, ``a`` any residue, ``c`` a unit; these exhaust the
    automorphism group, which has order ``2 * mu * phi(mu)``.
    """

    eps: int
    a: int
    c: int


def apply_automorphism(phi: KAutomorphism, x: Pair, mu: int) -> Pair:
    free, tors = x
    return phi.eps * free, (phi.a * free + phi.c * tors) % mu


def k_membership_multiple(w: Pair, q: Pair, mu: int) -> int:
    """Smallest ``n >= 1`` with ``n*w`` an integer multiple of ``q``.

    Requires a positive free part ``q_f`` of ``q``.  The multiplier is
    forced on free parts, so the answer is ``step * m`` where
    ``step = q_f / gcd(w_f, q_f)`` and ``m`` kills the residual torsion
    defect.  Never exceeds ``mu * q_f``, the order of the quotient group.
    """
    (w_free, w_tors), (q_free, q_tors) = w, q
    if q_free <= 0:
        raise ValueError(f"membership engine needs a positive free part, got {q_free}")
    g = gcd(abs(w_free), q_free)
    step = q_free // g
    defect = (step * w_tors - (w_free // g) * q_tors) % mu
    m = mu // gcd(defect, mu)
    return step * m


# ---------------------------------------------------------------------------
# Generator matrices and kernels of grading maps
# ---------------------------------------------------------------------------


def bezout(a: int, c: int) -> tuple[int, int]:
    """Coefficients ``(s, r)`` with ``s*a + r*c == 1`` for coprime a, c."""
    if c == 0:  # pow refuses modulus 0, and only a = +-1 is coprime to 0
        if abs(a) != 1:
            raise ValueError(f"{a} and {c} are not coprime")
        return a, 0
    s = pow(a, -1, abs(c))  # a ValueError unless gcd(a, c) == 1
    return s, (1 - s * a) // c


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


def kernel_basis(u: Sequence[int], eta: Sequence[int], mu: int) -> Matrix:
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
            if not pair_generates((u[i], eta[i]), (u[j], eta[j]), mu):
                raise ValueError(f"columns {i},{j} do not generate the full group")
    (u0, u1, u2), (e0, e1, e2) = u, eta
    alpha, beta = bezout(u1, u2)
    x0, y0 = -u0 * alpha, -u0 * beta
    s = (e0 + x0 * e1 + y0 * e2) * pow(u1 * e2 - u2 * e1, -1, mu) % mu
    x = (x0 + s * u2) % (mu * u2)
    y, rem = divmod(-(u0 + x * u1), u2)
    if rem:
        raise InvariantError(f"kernel basis of (mu={mu}, u={u}, eta={eta}) has no integral first row")
    return [[1, 0], [x, mu * u2], [y, -mu * u1]]


def pair_generates(x: Pair, y: Pair, mu: int) -> bool:
    """Whether two elements generate all of ``Z + Z/mu``.

    The subgroup generated by ``x``, ``y`` and ``(0, mu)`` in the lift
    ``Z^2`` is everything iff the gcd of the 2x2 minors of the lift is 1.
    """
    (x_free, x_tors), (y_free, y_tors) = x, y
    return gcd(x_free * y_tors - y_free * x_tors, mu * gcd(x_free, y_free)) == 1
