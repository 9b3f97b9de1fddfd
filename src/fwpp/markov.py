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
from fractions import Fraction
from itertools import chain, islice, permutations
from operator import eq
from typing import NamedTuple

#: The single initial triple of each reduced parameter.
REDUCED_ROOTS = {9: (1, 1, 1), 8: (1, 1, 2), 6: (1, 2, 3), 5: (1, 4, 5)}

Triple = tuple[int, int, int]


def _text(x, conv=str) -> str:
    """``conv(x)`` (``str``, as in ``f"{x}"``, or ``repr``) at any size, the one way an integer becomes text.

    ``str(int)`` refuses integers past the int-to-str digit limit (4,300 digits by default) and ``Decimal``
    converts those without it; past the limit, ints, ``Fraction``s, tuples, lists and named tuple reprs (every record of
    the library is a named tuple) are written in full, and a class's own ``__str__`` is called as is."""
    try:
        return conv(x)
    except ValueError:  # an int past the limit, perhaps inside x
        if isinstance(x, int):
            return str(decimal.Decimal(x))
        if isinstance(x, Fraction):
            n, d = _text(x.numerator), _text(x.denominator)
            return f"Fraction({n}, {d})" if conv is repr else n if d == "1" else f"{n}/{d}"
        if isinstance(x, (tuple, list)) and not hasattr(x, "_fields"):
            body = ", ".join(_text(e, repr) for e in x) + "," * (isinstance(x, tuple) and len(x) == 1)
            return f"({body})" if isinstance(x, tuple) else f"[{body}]"
        return f"{type(x).__qualname__}({', '.join(f'{n}={_text(getattr(x, n), repr)}' for n in x._fields)})"


def is_solution(u, a: int) -> bool:
    """True iff all entries of ``u`` are positive and the equation holds."""
    u0, u1, u2 = u
    if u0 <= 0 or u1 <= 0 or u2 <= 0 or a <= 0:
        return False
    return (u0 + u1 + u2) ** 2 == a * u0 * u1 * u2


def norm(u) -> int:
    """Norm of a triple: the sum of its entries."""
    return u[0] + u[1] + u[2]


def initial_solutions(a: int) -> tuple[Triple, ...]:
    """The finite set of initial triples for parameter ``a``, in ascending order.

    Every solution for ``a`` is its entries' gcd ``b`` times one for the
    reduced parameter ``A = a*b``, and scaling commutes with mutation, so
    these are the scaled ``REDUCED_ROOTS[A]`` for each ``A`` divisible by
    ``a``; empty for every other positive ``a``.  Each is certified to
    solve the equation, else ``InvariantError`` is raised.
    """
    if a < 1:
        raise ValueError(f"parameter must be a positive integer, got {_text(a)}")
    roots = tuple(sorted(tuple(A // a * c for c in root) for A, root in REDUCED_ROOTS.items() if A % a == 0))
    for u in roots:
        if not is_solution(u, a):
            raise InvariantError(f"initial triple {_text(u)} does not solve the equation with a={_text(a)}")
    return roots


class MutationTree(NamedTuple):
    """Forest of all sorted solutions with norm below a bound.

    Nodes are ascendingly sorted triples; two nodes are joined when one is a one-step mutation of
    the other.  Norms grow strictly away from the roots, so each edge joins a non-root node to its
    parent.  The edges are recorded, not computed: ``levels[d]`` lists the nodes at depth ``d``, the
    roots and then each node's children in turn, sorted, and ``kids[d][i]`` counts those of
    ``levels[d][i]``.  ``nodes`` lists them all, sorted, each once: :func:`enumerate_tree`, which
    builds every tree, certifies that no node is reached twice.  ``roots`` is ``levels[0]``.
    """

    a: int
    norm_bound: int
    depth_bound: int | None
    levels: tuple[tuple[Triple, ...], ...]
    kids: tuple[bytes, ...]
    nodes: tuple[Triple, ...]

    @property
    def roots(self) -> tuple[Triple, ...]:
        return self.levels[0]

    @property
    def depths(self) -> dict[Triple, int]:
        return {u: d for d, level in enumerate(self.levels) for u in level}

    @property
    def edges(self) -> tuple[tuple[Triple, Triple], ...]:
        """``(parent, node)`` pairs: the nodes in order, each with its children in order."""
        below = chain.from_iterable(self.levels[1:])  # each node's children are the next ``kids`` of these
        children = {u: tuple(islice(below, k)) for u, k in zip(chain.from_iterable(self.levels), chain.from_iterable(self.kids)) if k}
        return tuple((u, v) for u in self.nodes for v in children.get(u, ()))


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
    """Level-by-level enumeration of all sorted solutions with norm <= bound.

    Rooted at the initial triples; ``depth_bound`` optionally truncates at a fixed mutation distance
    from the roots.  The norm bound ends it, as norms grow away from the roots; a child past
    ``max_nodes`` nodes raises.  Only slots 0 and 1 are mutated: the new entry exceeds ``u2`` (a
    slot's two values multiply to the square of the kept pair's sum), so it is the child's largest
    and mutating it back gives the node, its one parent; slot 2 gives back the parent, or at a root
    the root or its slot-0 child.  So no child is a root, distinct nodes have distinct children, and
    the one repeat, slot 0's child at ``u0 == u1``, is skipped; the sorted nodes certify that no node
    is reached twice, else ``InvariantError`` is raised.  A child's norm is ``a*p*u2 - norm(u)`` for
    the kept entry ``p``, so slot 1's is the smaller.  A negative ``depth_bound`` or ``max_nodes``
    raises ``ValueError``; a ``norm_bound`` below every root's norm gives an empty tree.
    """
    if depth_bound is not None and depth_bound < 0:
        raise ValueError(f"depth bound must be non-negative, got {_text(depth_bound)}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"node cap must be non-negative, got {_text(max_nodes)}")
    levels, kids = [tuple(u for u in initial_solutions(a) if norm(u) <= norm_bound)], []
    total = len(levels[0])
    while depth_bound is None or len(levels) <= depth_bound:
        below, counts = [], bytearray()
        for u0, u1, u2 in levels[-1]:
            n, au2 = u0 + u1 + u2, a * u2
            one = (m1 := au2 * u0 - n) <= norm_bound  # slot 1
            two = one and u0 < u1 and (m0 := au2 * u1 - n) <= norm_bound  # slot 0
            counts.append(one + two)
            if one:
                below.append((u0, u2, m1 - u0 - u2))
            if two:
                below.append((u1, u2, m0 - u1 - u2))
        if not below:
            break
        if max_nodes is not None and (total := total + len(below)) > max_nodes:
            raise EnumerationCapExceeded(f"more than {_text(max_nodes)} nodes below norm {_text(norm_bound)} for a={_text(a)}")
        levels.append(tuple(below))
        kids.append(bytes(counts))
    nodes = tuple(sorted(chain.from_iterable(levels)))
    if any(map(eq, nodes, islice(nodes, 1, None))):
        raise InvariantError(f"a node of the mutation forest of a={_text(a)} is reached twice")
    return MutationTree(a, norm_bound, depth_bound, tuple(levels), tuple(kids), nodes)


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
    equal; all of them produce the same arranged triple, or ``ValueError``
    is raised.  A pairwise coprime ``u``, as every node of a reduced
    class is, has at most one entry divisible by 2, 3 or 5 and ties only
    at entries 1, so its orders never disagree.
    """
    ok = _ARRANGED_SHAPE.get(reduced_a)
    if ok is None:
        raise ValueError(f"not a reduced parameter: {_text(reduced_a)}")
    perms = [p for p in _PERMUTATIONS if ok(u[p[0]], u[p[1]], u[p[2]])]
    if not perms:
        raise ValueError(f"{_text(u)} admits no arranged order for class {_text(reduced_a)}")
    if len(perms) > 1 and len({tuple(u[i] for i in p) for p in perms}) != 1:
        raise ValueError(f"ambiguous arrangement of {_text(u)} in class {_text(reduced_a)}")
    return perms
