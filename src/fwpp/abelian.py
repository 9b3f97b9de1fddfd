"""Closed-form integer arithmetic in the groups ``K = Z + Z/mu``.

All operations are exact on plain Python integers: automorphisms of ``K``,
membership multiples, Bezout coefficients, and annihilation of integer rows
and pair generation in ``K``.

An element of the group ``K = Z + Z/mu`` is an integer pair ``(free, tors)``
with ``0 <= tors < mu``, and the group is given by ``mu`` itself.  ``mu = 1``
means the free group; torsion residues are then identically zero.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .markov import _text

#: An element ``(free, tors)`` of ``Z + Z/mu``.
Pair = tuple[int, int]


# ---------------------------------------------------------------------------
# The groups K = Z + Z/mu
# ---------------------------------------------------------------------------


class KAutomorphism(NamedTuple):
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
        raise ValueError(f"membership engine needs a positive free part, got {_text(q_free)}")
    g = gcd(abs(w_free), q_free)
    step = q_free // g
    defect = (step * w_tors - (w_free // g) * q_tors) % mu
    m = mu // gcd(defect, mu)
    return step * m


# ---------------------------------------------------------------------------
# Bezout pairs, annihilation and generation of K
# ---------------------------------------------------------------------------


def bezout(a: int, c: int) -> tuple[int, int]:
    """Coefficients ``(s, r)`` with ``s*a + r*c == 1`` for coprime a, c."""
    if c == 0:  # pow refuses modulus 0, and only a = +-1 is coprime to 0
        if abs(a) != 1:
            raise ValueError(f"{_text(a)} and {_text(c)} are not coprime")
        return a, 0
    s = pow(a, -1, abs(c))  # a ValueError unless gcd(a, c) == 1
    return s, (1 - s * a) // c


def annihilates(rows: Iterable[Sequence[int]], free: Sequence[int], tors: Sequence[int], mu: int) -> bool:
    """Whether ``sum_i row[i] * (free[i], tors[i]) == 0`` in ``Z + Z/mu``
    for every row of three entries, against three columns: the free sum is
    0 and ``mu`` divides the torsion sum."""
    (f0, f1, f2), (t0, t1, t2) = free, tors
    for x0, x1, x2 in rows:
        if x0 * f0 + x1 * f1 + x2 * f2 or (x0 * t0 + x1 * t1 + x2 * t2) % mu:
            return False
    return True


def pair_generates(x: Pair, y: Pair, mu: int) -> bool:
    """Whether two elements generate all of ``Z + Z/mu``.

    The subgroup generated by ``x``, ``y`` and ``(0, mu)`` in the lift
    ``Z^2`` is everything iff the gcd of the 2x2 minors of the lift is 1.
    """
    (x_free, x_tors), (y_free, y_tors) = x, y
    return gcd(x_free * y_tors - y_free * x_tors, mu * gcd(x_free, y_free)) == 1
