"""Squared Markov type equations over the positive integers.

A triple ``u = (u0, u1, u2)`` of positive integers is a solution of the
squared Markov type equation with parameter ``a`` when

    (u0 + u1 + u2)**2 == a * u0 * u1 * u2.

Solutions exist only for ``a`` in {1, 2, 3, 4, 5, 6, 8, 9}.  Replacing the
last entry by ``(u0 + u1)**2 // u2 == a*u0*u1 - 2*u0 - 2*u1 - u2`` is an
involution on the solution set, and together with coordinate permutations it
generates every solution from finitely many *initial* triples.  Each solution
set therefore carries a forest structure whose norms ``u0 + u1 + u2`` strictly
increase away from the roots, which makes exhaustive enumeration below a norm
bound terminate.

Everything here is exact unbounded-integer arithmetic: the entries grow
doubly exponentially with tree depth (744980 already occurs three mutation
steps below ``(1, 4, 5)`` for ``a = 5``).
"""

from __future__ import annotations

import decimal
from collections import deque
from dataclasses import dataclass, field
from itertools import permutations
from math import gcd, isqrt

#: Parameters whose equation has at least one solution.
SOLVABLE_PARAMETERS = (1, 2, 3, 4, 5, 6, 8, 9)

#: Squarefree cofactor pattern of the reduced equation classes: a solution of
#: the reduced equation with parameter ``A`` is, up to order, of the shape
#: ``(xi0*x0**2, xi1*x1**2, xi2*x2**2)`` with ``xi = REDUCED_XI[A]``.
REDUCED_XI = {9: (1, 1, 1), 8: (1, 1, 2), 6: (1, 2, 3), 5: (1, 1, 5)}

#: The single initial triple of each reduced parameter.
REDUCED_ROOTS = {9: (1, 1, 1), 8: (1, 1, 2), 6: (1, 2, 3), 5: (1, 4, 5)}

#: Parameters whose solutions have pairwise coprime entries.
REDUCED_PARAMETERS = tuple(sorted(REDUCED_ROOTS))

Triple = tuple[int, int, int]


def _decimal_str(n: int) -> str:
    """Decimal text of ``n`` at any size.

    ``str(int)`` refuses integers longer than ``sys.get_int_max_str_digits()``
    (4,300 digits by default); ``Decimal`` converts those without the limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def _decimal_join(values, sep: str = ",") -> str:
    """``sep``-joined decimal text of a sequence of integers of any size."""
    try:
        return sep.join(map(str, values))
    except ValueError:  # an entry past the int-to-str digit limit
        return sep.join(map(_decimal_str, values))


def _decimal_int(x) -> int:
    """``int(x)`` at any length: past the str-to-int digit limit, strings are read under
    the grammar ``int()`` applies below it (whitespace, a sign, single ``_`` between digits)."""
    try:
        return int(x)
    except ValueError:  # past the str-to-int digit limit, or not an integer
        text = x.strip() if isinstance(x, str) else ""
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not digits.replace("_", "").isdecimal() or "__" in f"_{digits}_":
            raise
        return int(decimal.Decimal(text.replace("_", "")))


def is_solution(u, a: int) -> bool:
    """True iff all entries of ``u`` are positive and the equation holds."""
    u0, u1, u2 = u
    if u0 <= 0 or u1 <= 0 or u2 <= 0 or a <= 0:
        return False
    return (u0 + u1 + u2) ** 2 == a * u0 * u1 * u2


def norm(u) -> int:
    """Norm of a triple: the sum of its entries."""
    return u[0] + u[1] + u[2]


@dataclass(frozen=True, order=True)
class SolutionTriple:
    """A verified solution of the squared Markov type equation."""

    a: int
    u: Triple

    def __post_init__(self):
        if not is_solution(self.u, self.a):
            raise ValueError(f"{self.u} does not solve the equation with a={self.a}")

    @property
    def norm(self) -> int:
        return norm(self.u)

    def sorted(self) -> "SolutionTriple":
        return SolutionTriple(self.a, tuple(sorted(self.u)))


def mutate(t: SolutionTriple) -> SolutionTriple:
    """Replace the last entry by the second root of the quadratic in it.

    The result is again a solution and mutating twice returns the input.
    """
    u0, u1, u2 = t.u
    return SolutionTriple(t.a, (u0, u1, t.a * u0 * u1 - 2 * u0 - 2 * u1 - u2))


def _play(u: Triple, a: int, slot: int) -> Triple:
    """Mutate ``u`` at ``slot`` and return the ascendingly sorted result."""
    rest = [u[j] for j in range(3) if j != slot]
    new = a * rest[0] * rest[1] - 2 * rest[0] - 2 * rest[1] - u[slot]
    rest.append(new)
    return tuple(sorted(rest))


def one_step_mutations(t: SolutionTriple) -> frozenset[SolutionTriple]:
    """All results of mutating one entry, sorted ascendingly, deduplicated."""
    return frozenset(SolutionTriple(t.a, _play(t.u, t.a, k)) for k in range(3))


def is_initial(t: SolutionTriple) -> bool:
    """True iff the (sorted) triple does not mutate to a smaller norm.

    Requires ascendingly sorted input; equivalent to ``u2 <= u0 + u1``.
    """
    u0, u1, u2 = t.u
    if not (u0 <= u1 <= u2):
        raise ValueError(f"is_initial expects an ascendingly sorted triple, got {t.u}")
    return u2 <= u0 + u1


def initial_solutions(a: int) -> frozenset[SolutionTriple]:
    """The finite set of initial triples for parameter ``a``.

    Every solution for ``a`` is ``b = A // a`` times one for a reduced
    parameter ``A = a*b``, and scaling commutes with mutation (see
    :func:`scaled_solution_class`), so these are the scaled
    ``REDUCED_ROOTS[A]`` for each ``A`` divisible by ``a``; empty for every
    other positive ``a``.
    """
    if a < 1:
        raise ValueError(f"parameter must be a positive integer, got {a}")
    return frozenset(
        SolutionTriple(a, tuple(A // a * c for c in root)) for A, root in REDUCED_ROOTS.items() if A % a == 0
    )


@dataclass
class MutationTree:
    """Forest of all sorted solutions with norm below a bound.

    Nodes are ascendingly sorted triples; two nodes are joined when one is a
    one-step mutation of the other.  For parameters with a single initial
    triple this is a tree, otherwise a disjoint union of trees.  Norms grow
    strictly away from the roots, so each edge joins a non-root node to its
    parent, the mutation of its largest entry: ``edges`` lists those
    ``(parent, node)`` pairs, sorted, each parent computed in closed form.
    """

    a: int
    norm_bound: int
    depth_bound: int | None
    roots: tuple[Triple, ...]
    nodes: tuple[Triple, ...]
    depths: dict[Triple, int] = field(repr=False)

    @property
    def edges(self) -> tuple[tuple[Triple, Triple], ...]:
        a, pairs = self.a, []
        for v in self.nodes:
            if self.depths[v]:
                p, q, old = v
                new = a * p * q - 2 * p - 2 * q - old
                pairs.append(((new, p, q) if new < p else (p, new, q) if new < q else (p, q, new), v))
        return tuple(sorted(pairs))

    def to_json_obj(self) -> dict:
        text = {u: _decimal_join(u).split(",") for u in self.nodes}
        return {
            "a": self.a,
            "normBound": _decimal_str(self.norm_bound),
            "depthBound": self.depth_bound,
            "roots": [text[r][:] for r in self.roots],
            "nodes": [
                {"u": text[u], "norm": _decimal_str(norm(u)), "depth": self.depths[u]}
                for u in self.nodes
            ],
            "edges": [[text[x][:], text[y][:]] for x, y in self.edges],
        }

    def to_dot(self) -> str:
        label = {u: f'"({_decimal_join(u)})"' for u in self.nodes}
        lines = [f"graph mutation_tree_{self.a} {{"]
        lines.extend(f"  {label[u]};" for u in self.nodes)
        lines.extend(f"  {label[x]} -- {label[y]};" for x, y in self.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"


class InvariantError(AssertionError):
    """An internal invariant failed: a defect of the library, never of its input."""


class EnumerationCapExceeded(RuntimeError):
    """Raised when a tree enumeration grows past its node cap."""


def enumerate_tree(
    a: int,
    norm_bound: int,
    depth_bound: int | None = None,
    max_nodes: int | None = None,
) -> MutationTree:
    """Breadth-first enumeration of all sorted solutions with norm <= bound.

    Rooted at the initial triples; ``depth_bound`` optionally truncates at a
    fixed mutation distance from the roots.  Termination is guaranteed by
    the norm bound because norms strictly increase away from initial nodes;
    ``max_nodes`` aborts early anyway when the enumeration grows past it.
    Only slots 0 and 1 are mutated: a slot's two values multiply to the
    square of the kept pair's sum, so the new entry exceeds ``u2``.  Slot 2
    gives back a non-root's parent, and at a root the root itself or, for the
    scaled ``(1, 1, 1)``, the slot-0 child.  Negative bounds raise ``ValueError``.
    """
    if depth_bound is not None and depth_bound < 0:
        raise ValueError(f"depth bound must be non-negative, got {_decimal_str(depth_bound)}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"node cap must be non-negative, got {_decimal_str(max_nodes)}")
    roots = sorted(t.u for t in initial_solutions(a) if t.norm <= norm_bound)
    depths: dict[Triple, int] = dict.fromkeys(roots, 0)
    queue = deque(roots)
    while queue:
        u = queue.popleft()
        d = depths[u]
        if depth_bound is not None and d >= depth_bound:
            continue
        u0, u1, u2 = u
        for p, old in ((u1, u0), (u0, u1)):  # slot 0, then slot 1; ``u2`` is kept by both
            new = a * p * u2 - 2 * p - 2 * u2 - old
            if p + u2 + new > norm_bound:
                continue
            v = (p, u2, new)
            if v not in depths:
                if max_nodes is not None and len(depths) >= max_nodes:
                    raise EnumerationCapExceeded(f"more than {max_nodes} nodes below norm {_decimal_str(norm_bound)} for a={a}")
                depths[v] = d + 1
                queue.append(v)
    return MutationTree(a, norm_bound, depth_bound, roots=tuple(roots), nodes=tuple(sorted(depths)), depths=depths)


def scaled_solution_class(t: SolutionTriple) -> tuple[int, int]:
    """The unique scaling ``(b, a')`` with ``u/b`` solving the parameter-``a'``
    equation, where ``a' = a*b`` lies in {5, 6, 8, 9}.

    Solutions of the reduced parameters have coprime entries, so ``b`` is the
    gcd of the entries; for ``a`` in {5, 6, 8, 9} this is the identity
    scaling ``(1, a)``.
    """
    if t.a not in SOLVABLE_PARAMETERS:
        raise ValueError(f"no solutions exist for a={t.a}")
    if t.a in REDUCED_PARAMETERS:
        return 1, t.a
    b = gcd(gcd(t.u[0], t.u[1]), t.u[2])
    reduced_a = t.a * b
    if reduced_a not in REDUCED_PARAMETERS:
        raise InvariantError(f"scaling of {t.u} left the reduced classes: {reduced_a}")
    reduced = tuple(c // b for c in t.u)
    if not is_solution(reduced, reduced_a):
        raise InvariantError(f"{t.u}/{b} is not a solution for a'={reduced_a}")
    return b, reduced_a


#: The six column orders, in ``itertools.permutations`` order.
_PERMUTATIONS = tuple(permutations(range(3)))

#: Whether ``(x, y, z)`` has the arranged shape, per reduced class.
_ARRANGED_SHAPE = {
    9: lambda x, y, z: x <= y <= z,
    8: lambda x, y, z: x <= y and z % 2 == 0,
    6: lambda x, y, z: y % 2 == 0 and z % 3 == 0,
    5: lambda x, y, z: x <= y and z % 5 == 0,
}


def admissible_arrangements(u, reduced_a: int) -> list[tuple[int, int, int]]:
    """Column orders putting ``u`` into the canonical arranged shape.

    The arranged shape of the reduced class ``A = reduced_a``:

    * ``A = 9``: ascending;
    * ``A = 8``: the even entry last, the two odd ones ascending;
    * ``A = 6``: the even entry in the middle, the multiple of 3 last;
    * ``A = 5``: the multiple of 5 last, the other two ascending.

    Several orders are admissible exactly when two arrangeable entries are
    equal; all of them produce the same arranged triple.
    """
    ok = _ARRANGED_SHAPE.get(reduced_a)
    if ok is None:
        raise ValueError(f"not a reduced parameter: {reduced_a}")
    perms = [p for p in _PERMUTATIONS if ok(u[p[0]], u[p[1]], u[p[2]])]
    if not perms:
        raise ValueError(f"{u} admits no arranged order for class {reduced_a}")
    if len(perms) > 1 and len({tuple(u[i] for i in p) for p in perms}) != 1:
        raise InvariantError(f"ambiguous arrangement of {u} in class {reduced_a}")
    return perms


def arrange(u, reduced_a: int):
    """Canonically arranged copy of ``u`` plus the column order used."""
    perm = admissible_arrangements(u, reduced_a)[0]
    return tuple(u[i] for i in perm), perm


@dataclass(frozen=True)
class SquareDecomposition:
    """Square decomposition ``u[perm[i]] == scale * xi[i] * x[i]**2``.

    ``xi`` is one of (1,1,1), (1,1,2), (1,2,3), (1,1,5) and the parts satisfy
    ``xi0*x0^2 + xi1*x1^2 + xi2*x2^2 == sqrt(a' * xi0*xi1*xi2) * x0*x1*x2``
    for the reduced parameter ``a' = a * scale``.
    """

    x: Triple
    xi: Triple
    perm: tuple[int, int, int]
    scale: int

    @property
    def reduced_parameter(self) -> int:
        return next(a for a, xi in REDUCED_XI.items() if xi == self.xi)

    def apply(self) -> Triple:
        out = [0, 0, 0]
        for i in range(3):
            out[self.perm[i]] = self.scale * self.xi[i] * self.x[i] ** 2
        return tuple(out)


def decompose(t: SolutionTriple) -> SquareDecomposition:
    """Express a solution as ``scale * (xi0*x0^2, xi1*x1^2, xi2*x2^2)``.

    The decomposition exists for every solution; the slots are ordered so
    that the squarefree cofactors sit in their canonical arranged positions.
    """
    b, reduced_a = scaled_solution_class(t)
    v = tuple(c // b for c in t.u)
    xi = REDUCED_XI[reduced_a]
    _, perm = arrange(v, reduced_a)
    xs = []
    for i in range(3):
        quotient, remainder = divmod(v[perm[i]], xi[i])
        if remainder:
            raise InvariantError(f"{v[perm[i]]} is not divisible by cofactor {xi[i]}")
        root = isqrt(quotient)
        if root * root != quotient:
            raise InvariantError(f"{quotient} is not a perfect square in {t.u}")
        xs.append(root)
    x = tuple(xs)
    coeff = isqrt(reduced_a * xi[0] * xi[1] * xi[2])
    if coeff**2 != reduced_a * xi[0] * xi[1] * xi[2]:
        raise InvariantError("reduced equation coefficient is not a square")
    lhs = xi[0] * x[0] ** 2 + xi[1] * x[1] ** 2 + xi[2] * x[2] ** 2
    if lhs != coeff * x[0] * x[1] * x[2]:
        raise InvariantError(f"square decomposition of {t.u} fails its equation")
    return SquareDecomposition(x=x, xi=xi, perm=perm, scale=b)
