"""Independent integer arithmetic for building and checking benchmark inputs.

Nothing here imports ``fwpp``: the benchmark must not trust the code it
measures.  Every routine is written from the equations themselves:

* the squared Markov type equation ``(u0 + u1 + u2)**2 == a*u0*u1*u2``;
* the mutation ``u_k -> a*u_i*u_j - 2*u_i - 2*u_j - u_k``;
* the group ``K = Z + Z/mu`` of a degree matrix and its automorphisms
  ``(f, t) -> (f, a*f + c*t)`` with ``c`` a unit mod ``mu``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import lru_cache
from itertools import permutations
from math import gcd, isqrt

#: The 24 series of planes of integral degree, as (degree, mu) -> eta values.
SERIES_ETAS = {
    (9, 1): (0,), (8, 1): (0,), (6, 1): (0,), (5, 1): (0,),
    (4, 2): (1,), (3, 3): (2,), (3, 2): (1,),
    (2, 4): (1, 3), (2, 3): (1, 2),
    (1, 9): (2, 5, 8), (1, 8): (1, 3, 5, 7), (1, 6): (1, 5), (1, 5): (1, 2, 3, 4),
}
SERIES_LABELS = frozenset(f"{a}-{mu}-{e}" for (a, mu), es in SERIES_ETAS.items() for e in es)
FAMILIES = tuple(sorted(SERIES_ETAS, key=lambda t: (-t[0], t[1])))
DEGREES = (1, 2, 3, 4, 5, 6, 8, 9)


def solves(u, a: int) -> bool:
    return all(x > 0 for x in u) and (u[0] + u[1] + u[2]) ** 2 == a * u[0] * u[1] * u[2]


def mutate_sorted(u, a: int, k: int) -> tuple:
    """Mutate slot ``k`` and return the ascendingly sorted triple."""
    i, j = (s for s in range(3) if s != k)
    new = a * u[i] * u[j] - 2 * u[i] - 2 * u[j] - u[k]
    return tuple(sorted((u[i], u[j], new)))


@lru_cache(maxsize=None)
def initial_triples(a: int) -> tuple:
    """Sorted solutions with ``u2 <= u0 + u1``, found by solving the quadratic
    in ``u2`` for every small ``u0 <= u1``; roots of the trees."""
    found = []
    for u0 in range(1, 121):
        for u1 in range(u0, 121):
            s = u0 + u1
            b = a * u0 * u1 - 2 * s
            disc = b * b - 4 * s * s
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in (b - r, b + r):
                if num > 0 and num % 2 == 0:
                    u2 = num // 2
                    if u1 <= u2 <= s and solves((u0, u1, u2), a):
                        found.append((u0, u1, u2))
    return tuple(sorted(set(found)))


#: Norm cap of the cached enumerations; every workload bound lies below it.
CAP = 10**100


@lru_cache(maxsize=None)
def _by_norm(a: int) -> tuple:
    """Norms and sorted solutions up to ``CAP``, ascending by norm, by a
    breadth-first search that only follows norm-increasing mutations away
    from the initial triples."""
    seen = set(initial_triples(a))
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        n = sum(u)
        for k in range(3):
            v = mutate_sorted(u, a, k)
            if n < sum(v) <= CAP and v not in seen:
                seen.add(v)
                queue.append(v)
    nodes = sorted(seen, key=sum)
    return tuple(sum(u) for u in nodes), tuple(nodes)


def solutions_below(a: int, bound: int) -> set:
    """All sorted solutions with norm <= bound."""
    if bound > CAP:
        raise ValueError(f"bound {bound} exceeds the enumeration cap")
    norms, nodes = _by_norm(a)
    return set(nodes[: bisect_right(norms, bound)])


def is_one_mutation(u, v, a: int) -> bool:
    """Whether triples ``u`` and ``v`` share two entries ``r, s`` and their
    other entries ``p, q`` are the two roots: ``p + q == a*r*s - 2*r - 2*s``.
    Equal triples qualify when some slot is a double root (``p == q``)."""
    if sorted(u) == sorted(v):
        return any(2 * u[k] == a * r * s - 2 * r - 2 * s
                   for k in range(3) for r, s in [[u[j] for j in range(3) if j != k]])
    rest = list(v)
    extra = []
    for x in u:
        if x in rest:
            rest.remove(x)
        else:
            extra.append(x)
    if len(extra) != 1 or len(rest) != 1:
        return False
    shared = list(u)
    shared.remove(extra[0])
    r, s = shared
    return extra[0] + rest[0] == a * r * s - 2 * r - 2 * s


def arranged(u, reduced_a: int) -> tuple:
    """Some column order of ``u`` in the arranged shape of its reduced class."""
    def ok(v):
        if reduced_a == 9:
            return v[0] <= v[1] <= v[2]
        if reduced_a == 8:
            return v[0] <= v[1] and v[2] % 2 == 0
        if reduced_a == 6:
            return v[1] % 2 == 0 and v[2] % 3 == 0
        return v[0] <= v[1] and v[2] % 5 == 0

    for p in permutations(range(3)):
        v = tuple(u[i] for i in p)
        if ok(v):
            return v
    raise ValueError(f"{u} has no arranged order for class {reduced_a}")


# ---------------------------------------------------------------------------
# Degree matrices over K = Z + Z/mu
# ---------------------------------------------------------------------------


def units(mu: int) -> list:
    return [0] if mu == 1 else [c for c in range(1, mu) if gcd(c, mu) == 1]


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def pair_generates(mu: int, x, y) -> bool:
    """Whether columns ``x = (f, t)`` and ``y`` generate ``Z + Z/mu``: the
    2x2 minors of the lift to ``Z^2`` (with the extra column ``(0, mu)``)
    must be coprime."""
    minor = x[0] * y[1] - y[0] * x[1]
    return gcd(minor, mu * gcd(x[0], y[0])) == 1


def valid_matrix(mu: int, u, eta) -> bool:
    if mu < 1 or len(u) != 3 or len(eta) != 3 or any(x <= 0 for x in u):
        return False
    if any(not 0 <= e < mu for e in eta):
        return False
    cols = list(zip(u, eta))
    return all(pair_generates(mu, cols[i], cols[j]) for i in range(3) for j in range(i + 1, 3))


def apply_map(mu: int, a: int, c: int, perm, u, eta) -> tuple:
    """Image of a degree matrix under ``(f, t) -> (f, a*f + c*t)`` followed
    by the column order ``perm``: new column ``j`` is old column ``perm[j]``."""
    img = [(u[i], (a * u[i] + c * eta[i]) % mu) for i in range(3)]
    cols = [img[perm[j]] for j in range(3)]
    return tuple(x for x, _ in cols), tuple(t for _, t in cols)


def find_isomorphism(mu: int, u1, eta1, u2, eta2):
    """Some ``(a, c, perm)`` carrying matrix 1 onto matrix 2, or ``None``.

    For each column order matching the free parts and each unit ``c``, the
    shift ``a`` solves the linear congruence of the first column; the other
    two columns are then checked.  Cost O(6 * phi(mu) * gcd(u, mu))."""
    for perm in permutations(range(3)):
        if any(u2[j] != u1[perm[j]] for j in range(3)):
            continue
        big_u = [u1[perm[j]] for j in range(3)]
        base = [eta1[perm[j]] for j in range(3)]
        for c in units(mu):
            r = [(eta2[j] - c * base[j]) % mu for j in range(3)]
            g = gcd(big_u[0], mu)
            if r[0] % g:
                continue
            step = mu // g
            a0 = (r[0] // g) * pow(big_u[0] // g, -1, step) % step if step > 1 else 0
            for k in range(g):
                a = a0 + k * step
                if all((a * big_u[j]) % mu == r[j] for j in range(3)):
                    return a, c, perm
    return None


def series_labels(a: int, mu: int, u, eta) -> set:
    """Every series label ``a-mu-e`` whose member at the weights ``u``, the
    arranged ``u`` with torsion row ``(0, 1, e)``, is isomorphic to the
    matrix ``(mu, u, eta)``."""
    v = arranged(u, a * mu)
    return {f"{a}-{mu}-{e}" for e in SERIES_ETAS[(a, mu)]
            if find_isomorphism(mu, v, (0, 1 % mu, e % mu), u, eta) is not None}


def gorenstein_index(mu: int, u, eta, k: int) -> int:
    """Least ``n >= 1`` with ``n * (sum of columns)`` in the subgroup
    generated by column ``k``: the local Gorenstein index at ``z(k)``."""
    big_u, big_e = sum(u), sum(eta)
    g = gcd(big_u, u[k])
    step = u[k] // g
    defect = (step * big_e - (big_u // g) * eta[k]) % mu
    return step * (mu // gcd(defect, mu))


def digits(n: int) -> int:
    return len(str(abs(n)))
