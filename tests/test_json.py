"""JSON text writers against the dict oracles: each writer of ``fwpp.cli`` writes, byte for byte,
what ``json.dumps`` writes for the object built in ``tests/oracles.py``."""

import json

import pytest

import golden
import oracles
from fwpp import adjacency, cli, markov, planes
from test_cli import past_the_digit_limit


def parsed(text):
    """``json.loads`` that reads numbers of any size."""
    return json.loads(text, parse_int=cli.integer)


def check(text, obj):
    assert text == oracles.dumps(obj)
    assert parsed(text) == obj


def matrix_arg(q):
    """``q`` as the JSON argument of ``sing`` and ``iso``, every entry a decimal string."""
    return oracles.dumps({k: [markov._text(x) for x in v] if isinstance(v, list) else markov._text(v)
                          for k, v in oracles.matrix_obj(q).items()})


#: every degree with solutions and 7 without; bound 0, a few nodes, merged series at degree 1, and deep trees
BOUNDS = (0, 32, 10**4, 10**24)


class TestTree:
    @pytest.mark.parametrize("a", (*golden.SOLVABLE_PARAMETERS, 7))
    @pytest.mark.parametrize("depth", (None, 0, 3))
    def test_equals_the_dict(self, a, depth):
        for bound in BOUNDS:
            tree = markov.enumerate_tree(a, bound, depth)
            check("".join(cli._tree_json(tree)), oracles.tree_obj(tree))

    def test_entries_past_the_digit_limit(self):
        u = past_the_digit_limit()
        parent = tuple(sorted((u[0], u[1], (u[0] + u[1]) ** 2 // u[2])))
        tree = oracles.tree_of(9, 10**6000, 18, ((parent,), (u,)), (b"\1",))
        assert len(markov._text(u[2])) > 4300 and tree.edges == ((parent, u),)
        check("".join(cli._tree_json(tree)), oracles.tree_obj(tree))


class TestPlane:
    @pytest.mark.parametrize("a", (*golden.SOLVABLE_PARAMETERS, 7))
    def test_equals_the_dict(self, a):
        classes = [c for bound in BOUNDS[:3] for c in planes.classify(a, bound)] + planes.classify(a, 10**12)
        for report in (False, True):
            for c in classes:
                check(cli._class_json(c, report), oracles.plane_obj(c, with_report=report))

    def test_merged_series(self):
        merged = [c for c in planes.classify(1, 32) if len(c.all_series) > 1]
        assert merged and all('"mergedSeries":[' in cli._class_json(c, False) for c in merged)
        for c in merged:
            check(cli._class_json(c, True), oracles.plane_obj(c, with_report=True))

    def test_entries_past_the_digit_limit(self):
        q = planes.adjust(planes.DegreeMatrix(1, past_the_digit_limit(), (0, 0, 0)))
        c = oracles.classified_plane(q, [planes._series_of(q, 9)])
        for report in (False, True):
            check(cli._class_json(c, report), oracles.plane_obj(c, with_report=report))


class TestReport:
    MATRICES = [
        planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3)),
        planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 1)),  # not adjusted
        planes.DegreeMatrix(1, (2, 3, 5), (0, 0, 0)),  # of degree 10/3, with no series label
        planes.DegreeMatrix(1, (1, 10**4999, 10**4999 + 1), (0, 0, 0)),  # a 5,000-digit curve count, a JSON number
        planes.DegreeMatrix(3 * 10**4999 + 1, (1, 1, 1), (0, 1, 2)),
        planes.DegreeMatrix(1, past_the_digit_limit(), (0, 0, 0)),
    ]

    @pytest.mark.parametrize("q", MATRICES, ids=range(len(MATRICES)))
    def test_equals_the_dict(self, q):
        report = planes.singularity_report(q)
        check(cli._report_json(report), oracles.report_obj(report))

    def test_every_t_flag_and_d(self):
        reports = [planes.singularity_report(c.matrix) for a in golden.SOLVABLE_PARAMETERS for c in planes.classify(a, 10**6)]
        assert {None} < {d for r in reports for d in r.d} and {True, False} <= {t for r in reports for t in r.is_t}
        for report in reports:
            check(cli._report_json(report), oracles.report_obj(report))


class TestGraph:
    @pytest.mark.parametrize("a, mu", planes.SERIES_FAMILIES)
    def test_equals_the_dict(self, a, mu):
        for bound in (0, 10**3, 10**8):
            graph = adjacency.adjacency_graph(a, mu, bound)
            check("".join(cli._graph_json(graph)), oracles.graph_obj(graph))

    def test_every_node_flag(self):
        nodes = [n for a, mu in planes.SERIES_FAMILIES for n in adjacency.adjacency_graph(a, mu, 10**8).nodes]
        flags = {(n.self_kstar is not None, n.self_kstar is not None and n.self_kstar.non_toric, n.all_t) for n in nodes}
        assert {(True, True), (True, False), (False, False)} <= {f[:2] for f in flags} and {True, False} <= {f[2] for f in flags}

    def test_entries_past_the_digit_limit(self):
        q = planes.adjust(planes.DegreeMatrix(1, past_the_digit_limit(), (0, 0, 0)))
        c = oracles.classified_plane(q, [planes._series_of(q, 9)])
        graph = adjacency.AdjacencyGraph(9, 1, 10**6000, (adjacency.GraphNode(c, None, False),), (adjacency.GraphEdge(c, c, True),))
        check("".join(cli._graph_json(graph)), oracles.graph_obj(graph))


class TestCommands:
    """``sing`` and ``iso`` print, as one line, the ``json.dumps`` of the dict the oracles build."""

    @pytest.mark.parametrize("q", TestReport.MATRICES, ids=range(len(TestReport.MATRICES)))
    def test_sing(self, capsys, q):
        assert cli.main(["sing", matrix_arg(q)]) == 0
        out = capsys.readouterr().out
        assert out == oracles.dumps(oracles.sing_obj(q)) + "\n"

    @pytest.mark.parametrize(
        "first, second",
        [
            ((8, (1, 1, 2), (0, 1, 3)), (8, (1, 1, 2), (0, 1, 7))),
            ((8, (1, 1, 2), (0, 1, 1)), (8, (1, 1, 2), (0, 1, 7))),
            ((3 * 10**4999 + 1, (1, 1, 1), (0, 1, 2)), (3 * 10**4999 + 1, (1, 1, 1), (10**4990, 10**4990 + 1, 10**4990 + 2))),
        ],
    )
    def test_iso(self, capsys, first, second):
        q1, q2 = planes.DegreeMatrix(*first), planes.DegreeMatrix(*second)
        code = cli.main(["iso", matrix_arg(q1), matrix_arg(q2)])
        witness = planes.isomorphism_witness(q1, q2)
        obj = {"isomorphic": witness is not None}
        if witness is not None:
            phi, perm = witness
            obj["automorphism"] = {"eps": phi.eps, "a": phi.a, "c": phi.c}
            obj["columnPermutation"] = list(perm)
        assert code == (0 if witness else 1) and capsys.readouterr().out == oracles.dumps(obj) + "\n"
