"""Seeded workload generators: each returns the operation list of one run.

Every generator is a pure function of ``(seed, tiny)``.  The seed chooses
bound mantissas, operation order, mutation walks, automorphisms, column
orders and most formats; the size ladders themselves are fixed, so the
amount of work barely depends on the seed and runs with different seeds are
comparable.

An operation is a dict: ``cmd`` is the subcommand (or ``census``), ``argv``
the ``fwpp`` arguments, ``expect_rc`` the exit code it must return,
``digits`` the digit count of its bound or of its largest input entry, and
the remaining keys are what the checker needs.
"""

from __future__ import annotations

import json
import random

import arith

WORKLOADS = ("sweep", "graph", "query")
MAX_NODES = "1000000"

# sweep: bounds 10^e .. 1.25*10^e for each exponent of the ladder
SOLVE_EXPONENTS = (3, 6, 12, 24, 48, 96)
CLASSIFY_EXPONENTS = (3, 6, 9, 12, 15, 18, 21, 24)
CLASSIFY_A1_EXPONENTS = (3, 6, 9, 12)

# graph: per-family exponents; the degree-1 families classify all four
# degree-1 families per operation, so their ladder stops earlier, and the
# cheapest families climb to 10^10, where the partner scan dominates
GRAPH_EXPONENTS = (1, 2, 3, 4, 5, 6, 7, 8)
GRAPH_A1_EXPONENTS = (1, 2, 3, 4, 5)
GRAPH_TOP = {(9, 1): (9, 10), (4, 2): (9, 10), (3, 3): (9, 10), (8, 1): (9,), (3, 2): (9,)}

# query: fixed size ladders
WALK_SING = 70
WALK_ISO = 50
WALK_MAX_DIGITS = 60
ODD_MU_NEGATIVE = (3, 5, 7, 9, 11, 15, 21, 25, 31, 35, 41, 45, 51, 55, 63,
                   69, 75, 81, 91, 99, 105, 111, 121, 125, 135, 151, 165, 175, 189, 199)
MU_POSITIVE = (3, 4, 5, 7, 8, 10, 12, 13, 15, 17, 19, 21, 24, 27, 29, 31, 35, 37, 41, 45)
CHAIN_EXPONENTS = tuple(1 + 4.8 * i / 19 for i in range(20))  # N ~ 10^1 .. 10^5.8
INVALID = 11


def _bound(rng: random.Random, e: int) -> int:
    """A bound of ``e + 1`` digits with a narrow mantissa, so that the cost of
    each rung barely depends on the seed."""
    return rng.randrange(10**e, 10**e + 10**e // 4)


def _matrix_json(mu: int, u, eta) -> str:
    return json.dumps({"mu": mu, "u": [str(x) for x in u], "eta": list(eta)}, separators=(",", ":"))


def sweep(seed: int, tiny: bool = False) -> list:
    rng = random.Random(f"sweep/{seed}")
    ops = []
    solve_e = SOLVE_EXPONENTS[:2] if tiny else SOLVE_EXPONENTS
    classify_e = CLASSIFY_EXPONENTS[:2] if tiny else CLASSIFY_EXPONENTS
    a1_e = CLASSIFY_A1_EXPONENTS[:1] if tiny else CLASSIFY_A1_EXPONENTS
    # formats rotate with the ladder, not with the seed, so that the largest
    # outputs, and with them peak memory, are the same for every seed
    for a in arith.DEGREES:
        for i, e in enumerate(solve_e):
            fmt = ("tsv", "json", "md", "dot")[(i + a) % 4]
            bound = _bound(rng, e)
            ops.append({"cmd": "solve", "a": a, "bound": bound, "format": fmt,
                        "argv": ["solve", "--a", str(a), "--bound", str(bound),
                                 "--max-nodes", MAX_NODES, "--format", fmt]})
        for i, e in enumerate(a1_e if a == 1 else classify_e):
            fmt = ("tsv", "json", "md")[(i + a) % 3]
            bound = _bound(rng, e)
            report = fmt == "json" and a % 2 == 1  # half the json operations, whatever the seed
            argv = ["classify", "--a", str(a), "--bound", str(bound),
                    "--max-nodes", MAX_NODES, "--format", fmt]
            if report:
                argv.append("--report")
            ops.append({"cmd": "classify", "a": a, "bound": bound, "format": fmt,
                        "report": report, "argv": argv})
    for op in ops:
        op["digits"] = arith.digits(op["bound"])
        op["expect_rc"] = 0
    rng.shuffle(ops)
    return ops


def graph(seed: int, tiny: bool = False) -> list:
    rng = random.Random(f"graph/{seed}")
    ops = []
    for a, mu in arith.FAMILIES:
        if tiny:
            exps = (2, 3)
        elif a == 1:
            exps = GRAPH_A1_EXPONENTS
        else:
            exps = GRAPH_EXPONENTS + GRAPH_TOP.get((a, mu), ())
        for e in exps:
            fmt = rng.choice(("json", "dot"))
            bound = _bound(rng, e)
            ops.append({"cmd": "graph", "a": a, "mu": mu, "bound": bound, "format": fmt,
                        "digits": arith.digits(bound), "expect_rc": 0,
                        "argv": ["graph", "--a", str(a), "--mu", str(mu), "--bound", str(bound),
                                 "--max-nodes", MAX_NODES, "--format", fmt]})
    ops.append({"cmd": "census", "a": 0, "mu": 0, "digits": 1, "expect_rc": 0, "argv": []})
    rng.shuffle(ops)
    return ops


def _walk(rng: random.Random, reduced_a: int, max_digits: int) -> tuple:
    """Random norm-increasing mutation walk until an entry has the digits."""
    u = rng.choice(arith.initial_triples(reduced_a))
    while arith.digits(max(u)) < max_digits:
        ups = [v for v in (arith.mutate_sorted(u, reduced_a, k) for k in range(3)) if sum(v) > sum(u)]
        u = rng.choice(ups)
    return u


def _series_member(rng: random.Random, max_digits: int) -> tuple:
    """A random presentation ``(mu, u, eta)`` of a plane of integral degree:
    a series member, moved by a random automorphism and column order."""
    while True:
        a, mu = rng.choice(arith.FAMILIES)
        reduced_a = a * mu
        u = arith.arranged(_walk(rng, reduced_a, max_digits), reduced_a)
        eta = (0, 1 % mu, rng.choice(arith.SERIES_ETAS[(a, mu)]) % mu)
        if arith.valid_matrix(mu, u, eta):
            break
    shift, unit = rng.randrange(mu), rng.choice(arith.units(mu))
    perm = rng.sample(range(3), 3)
    u, eta = arith.apply_map(mu, shift, unit, perm, u, eta)
    return mu, u, eta


def _random_matrix(rng: random.Random, mu: int, max_u: int) -> tuple:
    while True:
        u = tuple(rng.sample(range(1, max_u), 3))
        eta = tuple(rng.randrange(mu) for _ in range(3))
        if arith.valid_matrix(mu, u, eta):
            return u, eta


def _image(rng: random.Random, mu: int, u, eta) -> tuple:
    """Image under a known automorphism and column order.  The shift is
    ``mu // 2``, so a search over shifts in order does half its work
    whatever the seed."""
    unit = rng.choice(arith.units(mu))
    return arith.apply_map(mu, mu // 2, unit, rng.sample(range(3), 3), u, eta)


def _non_isomorphic_pair(rng: random.Random, mu: int) -> tuple:
    """Two valid matrices with the same free parts, up to order, that the
    own solver finds not isomorphic; a new first matrix after 20 misses."""
    while True:
        u, eta = _random_matrix(rng, mu, 1000)
        for _ in range(20):
            u2 = tuple(u[p] for p in rng.sample(range(3), 3))
            eta2 = tuple(rng.randrange(mu) for _ in range(3))
            if arith.valid_matrix(mu, u2, eta2) and arith.find_isomorphism(mu, u, eta, u2, eta2) is None:
                return (u, eta), (u2, eta2)


def _sing(mu, u, eta, fmt) -> dict:
    return {"cmd": "sing", "mu": mu, "u": list(u), "eta": list(eta), "format": fmt,
            "digits": arith.digits(max(u)), "expect_rc": 0,
            "argv": ["sing", _matrix_json(mu, u, eta), "--format", fmt]}


def _iso(mu, m1, m2, expect: bool, fmt) -> dict:
    return {"cmd": "iso", "mu": mu, "q1": [list(m1[0]), list(m1[1])], "q2": [list(m2[0]), list(m2[1])],
            "format": fmt, "expect_iso": expect, "expect_rc": 0 if expect else 1,
            "digits": arith.digits(max(max(m1[0]), max(m2[0]))),
            "argv": ["iso", _matrix_json(mu, *m1), _matrix_json(mu, *m2), "--format", fmt]}


def _invalid(rng: random.Random, i: int) -> dict:
    mu = rng.randrange(2, 10)
    u = [rng.randrange(1, 1000) for _ in range(3)]
    texts = [
        '{"mu":%d,"u":["%d","%d"' % (mu, u[0], u[1]),                       # truncated JSON
        json.dumps({"mu": "m", "u": [str(x) for x in u], "eta": [0, 1, 0]}),  # mu not a number
        _matrix_json(mu, (0, u[1], u[2]), (0, 1, 0)),                        # zero free part
        _matrix_json(mu, (-u[0], u[1], u[2]), (0, 1, 0)),                    # negative free part
        json.dumps({"mu": mu, "u": [str(u[0]), str(u[1])], "eta": [0, 1]}),  # two columns
        _matrix_json(mu, u, (0, 0, 0)),                                      # columns fail to generate
        json.dumps({"mu": mu, "u": ["x", "1", "2"], "eta": [0, 1, 0]}),      # not a number
        json.dumps({"mu": mu, "eta": [0, 1, 0]}),                            # no free parts
        _matrix_json(-mu, u, (0, 0, 0)),                                     # negative mu
        _matrix_json(0, u, (0, 0, 0)),                                       # mu = 0
        '"not a matrix"',                                                    # wrong JSON type
    ]
    text = texts[i % len(texts)]
    if i % 2:
        argv = ["sing", text, "--format", rng.choice(("json", "md", "tsv"))]
    else:
        argv = ["iso", _matrix_json(1, (1, 2, 3), (0, 0, 0)), text]
    return {"cmd": "invalid", "digits": arith.digits(max(u)), "expect_rc": 2, "argv": argv}


def query(seed: int, tiny: bool = False) -> list:
    rng = random.Random(f"query/{seed}")
    scale = 10 if tiny else 1
    ops = []
    for i in range(WALK_SING // scale):
        d = 1 + (WALK_MAX_DIGITS - 1) * i // max(1, WALK_SING // scale - 1)
        ops.append(_sing(*_series_member(rng, d), ("json", "md", "tsv")[(i + seed) % 3]))
    for i in range(WALK_ISO // scale):
        d = 1 + (WALK_MAX_DIGITS - 1) * i // max(1, WALK_ISO // scale - 1)
        mu, u, eta = _series_member(rng, d)
        ops.append(_iso(mu, (u, eta), _image(rng, mu, u, eta), True, ("json", "tsv")[(i + seed) % 2]))
    for i, mu in enumerate(ODD_MU_NEGATIVE[:: scale]):
        ops.append(_iso(mu, *_non_isomorphic_pair(rng, mu), False, ("json", "tsv")[(i + seed) % 2]))
    for i, mu in enumerate(MU_POSITIVE[:: scale]):
        u, eta = _random_matrix(rng, mu, 1000)
        ops.append(_iso(mu, (u, eta), _image(rng, mu, u, eta), True, ("json", "tsv")[(i + seed) % 2]))
    for i, e in enumerate(CHAIN_EXPONENTS[:: scale]):
        n = int(10**e * (1 + 0.2 * rng.random()))
        ops.append(_sing(1, (1, n, n + 1), (0, 0, 0), ("json", "md", "tsv")[(i + seed) % 3]))
    for i in range(INVALID // scale):
        ops.append(_invalid(rng, i))
    rng.shuffle(ops)
    return ops


GENERATORS = {"sweep": sweep, "graph": graph, "query": query}


def build(workload: str, seed: int, tiny: bool = False) -> list:
    ops = GENERATORS[workload](seed, tiny)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
