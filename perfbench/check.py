"""Output checker: every operation's stdout against the benchmark's own
arithmetic (``arith``), never against the ``fwpp`` functions under test.

``check(op, rc, out)`` returns a list of problems; an empty list means the
operation passed.  ``check_census(entries)`` does the same for the library
call of the ``graph`` workload.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import arith

_TRIPLE = re.compile(r"\((\d+),(\d+),(\d+)\)")
_GRAPH_LABEL = re.compile(r"^\((\d+),(\d+),(\d+)(?:; (\d+))?\)$")
_DOT_NODE = re.compile(r'^  "([^"]+)"(?: \[.*\])?;$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -- "([^"]+)"( \[color=red\])?;$')


class _Problems(list):
    def need(self, cond, msg):
        if not cond:
            self.append(msg)
        return cond


def check(op: dict, rc, out: str) -> list:
    p = _Problems()
    if not p.need(rc == op["expect_rc"], f"exit code {rc}, expected {op['expect_rc']}"):
        return p
    try:
        _CHECKS[op["cmd"]](op, out, p)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        p.append(f"unparsable output: {type(exc).__name__}: {exc}")
    return p


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _check_solve(op, out, p):
    a, bound, fmt = op["a"], op["bound"], op["format"]
    rows, edges = [], []
    lines = out.splitlines()
    if fmt == "tsv":
        for line in lines:
            u0, u1, u2, n = (int(x) for x in line.split("\t"))
            rows.append((u0, u1, u2))
            p.need(n == u0 + u1 + u2, f"wrong norm in row {line!r}")
    elif fmt == "md":
        p.need(lines[:2] == ["| u | norm | initial |", "|---|---|---|"], "bad markdown header")
        for line in lines[2:]:
            cells = [c.strip() for c in line.strip("|").split("|")]
            u = tuple(int(x) for x in _TRIPLE.fullmatch(cells[0]).groups())
            rows.append(u)
            p.need(int(cells[1]) == sum(u), f"wrong norm in row {line!r}")
            p.need(cells[2] == ("yes" if u[2] <= u[0] + u[1] else "no"), f"wrong initial flag {line!r}")
    elif fmt == "json":
        obj = json.loads(out)
        p.need(obj["a"] == a and obj["normBound"] == str(bound), "wrong header fields")
        for node in obj["nodes"]:
            u = tuple(int(x) for x in node["u"])
            rows.append(u)
            p.need(int(node["norm"]) == sum(u), f"wrong norm of {u}")
        roots = {tuple(int(x) for x in r) for r in obj["roots"]}
        p.need(roots == {r for r in arith.initial_triples(a) if sum(r) <= bound}, "wrong roots")
        edges = [tuple(tuple(int(x) for x in end) for end in e) for e in obj["edges"]]
    else:
        p.need(lines[0] == f"graph mutation_tree_{a} {{" and lines[-1] == "}", "bad dot frame")
        for line in lines[1:-1]:
            m = _DOT_EDGE.match(line)
            if m:
                edges.append(tuple(tuple(int(x) for x in _TRIPLE.fullmatch(g).groups()) for g in m.groups()[:2]))
            else:
                rows.append(tuple(int(x) for x in _TRIPLE.fullmatch(_DOT_NODE.match(line).group(1)).groups()))
    bad = [u for u in rows if not arith.solves(u, a)]
    p.need(not bad, f"{len(bad)} rows do not solve the a={a} equation, first {bad[:1]}")
    p.need(len(rows) == len(set(rows)), "duplicate rows")
    p.need(set(rows) == arith.solutions_below(a, bound), "row set differs from the own enumeration")
    if fmt in ("json", "dot"):
        nodes = set(rows)
        p.need(len(edges) == len(set(edges)), "duplicate edges")
        bad = [(x, y) for x, y in edges
               if not (x != y and x in nodes and y in nodes and arith.is_one_mutation(x, y, a))]
        p.need(not bad, f"{len(bad)} edges are not mutations between listed nodes")
        touched = {x for e in edges for x in e}
        p.need(nodes - touched <= set(arith.initial_triples(a)), "a non-root node has no edge")


# ---------------------------------------------------------------------------
# classify and reports
# ---------------------------------------------------------------------------


def _series_ok(p, label, a, mu, eta):
    p.need(label in arith.SERIES_LABELS, f"unknown series {label}")
    la, lmu, le = (int(x) for x in label.split("-"))
    p.need((la, lmu) == (a, mu), f"series {label} does not match degree {a}, mu {mu}")
    return le


def _check_report(p, mu, u, rep):
    """``cl_k = mu*u_k``; ``iota_k`` by own arithmetic; T iff ``iota^2 | cl``;
    ``d = cl / iota^2``; no exceptional curves exactly at smooth points."""
    eta = rep["eta"]
    for k in range(3):
        cl = mu * u[k]
        iota = arith.gorenstein_index(mu, u, eta, k)
        is_t = cl % (iota * iota) == 0
        p.need(int(rep["cl"][k]) == cl, f"cl_{k} != mu*u_{k}")
        p.need(int(rep["iota"][k]) == iota, f"iota_{k} differs from the own index {iota}")
        p.need(rep["isT"][k] is is_t, f"T flag {k} wrong")
        want_d = str(cl // (iota * iota)) if is_t else None
        p.need(rep["d"][k] == want_d, f"d_{k} wrong")
        p.need((rep["resCurves"][k] == 0) == (cl == 1), f"resCurves_{k} wrong at cl={cl}")


def _classify_expected(a, bound):
    return {(mu, u) for (deg, mu) in arith.FAMILIES if deg == a for u in arith.solutions_below(mu * a, bound // mu)}


def _check_classify(op, out, p):
    a, bound, fmt = op["a"], op["bound"], op["format"]
    planes = []  # (label, mu, u, eta, weights)
    lines = out.splitlines()
    if fmt == "json":
        for obj in json.loads(out):
            u = tuple(int(x) for x in obj["u"])
            mu, eta = obj["mu"], tuple(obj["eta"])
            planes.append((obj["series"], mu, u, eta, tuple(int(x) for x in obj["weights"])))
            p.need(obj["degree"] == str(a), "wrong degree field")
            for s in obj.get("mergedSeries", []):
                _series_ok(p, s, a, mu, eta)
            if op["report"]:
                rep = dict(obj["report"], eta=eta)
                _check_report(p, mu, u, rep)
            else:
                p.need("report" not in obj, "unrequested report")
    else:
        if fmt == "md":
            p.need(lines[:2] == ["| series | u | eta | weights | degree |", "|---|---|---|---|---|"], "bad header")
            cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]
            cells = [[c[0], c[1].strip("()"), c[2].strip("()"), c[3].strip("()"), c[4]] for c in cells]
        else:
            cells = [line.split("\t") for line in lines]
        for label, u, eta, w, deg in cells:
            mu = int(label.split("-")[1])
            planes.append((label, mu, tuple(int(x) for x in u.split(",")),
                           tuple(int(x) for x in eta.split(",")), tuple(int(x) for x in w.split(","))))
            p.need(deg == str(a), "wrong degree column")
    for label, mu, u, eta, w in planes:
        e = _series_ok(p, label, a, mu, eta)
        p.need(w == tuple(mu * x for x in u), f"weights {w} != mu*u")
        p.need(arith.solves(w, a), f"weights {w} do not solve the a={a} equation")
        p.need(eta == ((0, 0, 0) if mu == 1 else (0, 1, e)), f"eta {eta} is not the adjusted row of {label}")
    keys = [(mu, u, eta) for _, mu, u, eta, _ in planes]
    p.need(len(keys) == len(set(keys)), "duplicate classes")
    p.need({(mu, tuple(sorted(u))) for _, mu, u, _, _ in planes} == _classify_expected(a, bound),
           "weight set differs from the own enumeration")


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def _check_graph(op, out, p):
    a, mu, bound, fmt = op["a"], op["mu"], op["bound"], op["format"]
    reduced_a = a * mu
    nodes = {}  # label -> (u, eta)
    edges = []  # (label, label, jump)
    claimed = {}  # label -> series labels the output lists (json only)
    if fmt == "json":
        obj = json.loads(out)
        p.need((obj["a"], obj["mu"], obj["normBound"]) == (a, mu, str(bound)), "wrong header fields")
        for n in obj["nodes"]:
            u = tuple(int(x) for x in n["u"])
            eta = tuple(n["eta"])
            nodes[n["label"]] = (u, eta)
            claimed[n["label"]] = set(n["series"])
            all_t = all((mu * u[k]) % arith.gorenstein_index(mu, u, eta, k) ** 2 == 0 for k in range(3))
            p.need(n["allT"] is all_t, f"allT flag of {n['label']} wrong")
        edges = [(e["from"], e["to"], e["jump"]) for e in obj["edges"]]
        flagged = [n["label"] for n in obj["nodes"] if n["selfAdjacent"]]
        p.need(obj["selfAdjacent"] == flagged, "selfAdjacent list disagrees with node flags")
    else:
        lines = out.splitlines()
        p.need(lines[0] == f"graph adjacency_{a}_{mu} {{" and lines[-1] == "}", "bad dot frame")
        for line in lines[1:-1]:
            m = _DOT_EDGE.match(line)
            if m:
                edges.append((m.group(1), m.group(2), m.group(3) is not None))
                continue
            label = _DOT_NODE.match(line).group(1)
            g = _GRAPH_LABEL.match(label).groups()
            u = tuple(int(x) for x in g[:3])
            e2 = int(g[3]) if g[3] is not None else 0
            nodes[label] = (u, (0, 1 % mu, e2))
    series = {}  # label -> own series labels of the node
    for label, (u, eta) in nodes.items():
        w = tuple(mu * x for x in u)
        p.need(arith.solves(w, a), f"node {label} weights do not solve the a={a} equation")
        series[label] = arith.series_labels(a, mu, u, eta)
        p.need(f"{a}-{mu}-{eta[2]}" in series[label], f"node {label} is not its own series member")
        if label in claimed:
            p.need(claimed[label] == series[label], f"series of {label} differ from {sorted(series[label])}")
    p.need({tuple(sorted(u)) for u, _ in nodes.values()} == arith.solutions_below(reduced_a, bound // mu),
           "node weight set differs from the own enumeration")
    for x, y, jump in edges:
        if not p.need(x in nodes and y in nodes, f"edge {x} -- {y} has an unknown end"):
            continue
        p.need(arith.is_one_mutation(tuple(sorted(nodes[x][0])), tuple(sorted(nodes[y][0])), reduced_a),
               f"edge {x} -- {y} is not a slot mutation")
        p.need(jump == (not series[x] & series[y]), f"jump flag of {x} -- {y} wrong")


def check_census(entries) -> list:
    """16 self-adjacent series, 6 of them over a non-toric surface."""
    p = _Problems()
    labels = [str(e.series) for e in entries]
    p.need(len(labels) == 16 and len(set(labels)) == 16, f"{len(labels)} census entries")
    p.need(all(s in arith.SERIES_LABELS for s in labels), "census names an unknown series")
    non_toric = sum(1 for e in entries if e.kstar.l1 > 1 and e.kstar.l2 > 1)
    p.need(non_toric == 6, f"{non_toric} non-toric self-adjacencies, expected 6")
    for e in entries:
        k = e.kstar
        upper = k.d1 * k.l2 + k.d2 * k.l1
        p.need(k.d0 * k.l1 * k.l2 + upper < 0 < upper, f"slope inequalities fail for {e.series}")
    return p


def census_text(entries) -> str:
    """Canonical text of a census, for the byte-identity reference."""
    return "".join(f"{e.series}\t{e.kstar.l1}\t{e.kstar.l2}\t{e.kstar.d0}\t{e.kstar.d1}\t{e.kstar.d2}\n"
                   for e in entries)


# ---------------------------------------------------------------------------
# sing, iso, refusals
# ---------------------------------------------------------------------------


def _check_sing(op, out, p):
    mu, u, eta, fmt = op["mu"], tuple(op["u"]), tuple(op["eta"]), op["format"]
    cls = [mu * x for x in u]
    iotas = [arith.gorenstein_index(mu, u, eta, k) for k in range(3)]
    if fmt == "json":
        obj = json.loads(out)
        p.need(obj["mu"] == mu and [int(x) for x in obj["u"]] == list(u) and tuple(obj["eta"]) == eta,
               "matrix not echoed")
        w = tuple(mu * x for x in u)
        p.need([int(x) for x in obj["weights"]] == list(w), "weights != mu*u")
        deg = Fraction(sum(w) ** 2, w[0] * w[1] * w[2])
        p.need(obj["degree"] == str(deg), f"degree {obj['degree']} != {deg}")
        if "series" in obj:
            _series_ok(p, obj["series"], deg, mu, eta)
        else:
            p.need(deg.denominator != 1, "integral degree without a series label")
        _check_report(p, mu, u, dict(obj["report"], eta=eta))
    elif fmt == "tsv":
        lines = out.splitlines()
        p.need(len(lines) == 3, "expected three rows")
        for k, line in enumerate(lines):
            z, cl, iota, t, d, res = line.split("\t")
            is_t = cls[k] % (iotas[k] ** 2) == 0
            p.need(z == f"z({k})" and int(cl) == cls[k] and int(iota) == iotas[k], f"row {k} wrong")
            p.need(t == ("+" if is_t else "-"), f"T flag {k} wrong")
            p.need(d == (str(cls[k] // iotas[k] ** 2) if is_t else "-"), f"d_{k} wrong")
            p.need((int(res) == 0) == (cls[k] == 1), f"res curves {k} wrong")
    else:
        lines = out.splitlines()
        p.need(len(lines) == 3, "expected header, rule and one row")
        cells = [c.strip() for c in lines[2].strip("|").split("|")]
        p.need(cells[0] == "-" or cells[0] in arith.SERIES_LABELS, f"bad series cell {cells[0]}")
        p.need(cells[4] == "({},{},{})".format(*iotas), f"iota cell {cells[4]} wrong")
        signs = "({},{},{})".format(*("+" if cls[k] % (iotas[k] ** 2) == 0 else "-" for k in range(3)))
        p.need(cells[5] == signs, f"T cell {cells[5]} wrong")
        res = [int(x) for x in cells[6].strip("()").split(",")]
        p.need(all((res[k] == 0) == (cls[k] == 1) for k in range(3)), "res curves cell wrong")


def _check_iso(op, out, p):
    mu, fmt = op["mu"], op["format"]
    (u1, e1), (u2, e2) = op["q1"], op["q2"]
    if fmt == "json":
        obj = json.loads(out)
        verdict = obj["isomorphic"]
        if verdict:
            phi = obj["automorphism"]
            eps, a, c, perm = phi["eps"], phi["a"], phi["c"], obj["columnPermutation"]
    else:
        verdict = out != "not isomorphic\n"
        if verdict:
            m = re.fullmatch(r"isomorphic\tphi=\(eps=(-?\d+),a=(\d+),c=(\d+)\)\tperm=\[(\d), (\d), (\d)\]\n", out)
            eps, a, c = (int(x) for x in m.groups()[:3])
            perm = [int(x) for x in m.groups()[3:]]
    if not p.need(verdict is op["expect_iso"], f"verdict {verdict}, expected {op['expect_iso']}"):
        return
    if verdict:
        p.need(eps == 1 and sorted(perm) == [0, 1, 2] and 0 <= a < mu and c in arith.units(mu), "malformed witness")
        img = arith.apply_map(mu, a, c, perm, u1, e1)
        p.need(img == (tuple(u2), tuple(e2)), "witness does not map the first matrix onto the second")


def _check_invalid(op, out, p):
    p.need(out == "", "refusal wrote to stdout")


_CHECKS = {
    "solve": _check_solve,
    "classify": _check_classify,
    "graph": _check_graph,
    "sing": _check_sing,
    "iso": _check_iso,
    "invalid": _check_invalid,
}
