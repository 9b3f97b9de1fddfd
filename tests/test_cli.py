"""Command line interface: formats, exit codes, determinism."""

import argparse
import ast
import builtins
import contextlib
import decimal
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import oracles
from conftest import child
from fwpp import abelian, adjacency, cli, markov, planes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(out):
    """Parse CLI json output, reading numbers of any size."""
    return json.loads(out, parse_int=cli.integer)


@functools.cache
def normalized_classes(a, bound):
    """``oracles.normalizing_classify(a, bound)``, cached across the tests that compare against it."""
    return oracles.normalizing_classify(a, bound)


MATRIX_183 = '{"mu":8,"u":["1","1","2"],"eta":[0,1,3]}'
MATRIX_187 = '{"mu":8,"u":["1","1","2"],"eta":[0,1,7]}'
MATRIX_181 = '{"mu":8,"u":["1","1","2"],"eta":[0,1,1]}'
MATRIX_SMOOTH = '{"mu":1,"u":["1","1","1"],"eta":[0,0,0]}'
#: torsion order 3 * 10^4999 + 1: 5,000 digits, past the 4,300 that ``int(str)`` reads by default
MU_PAST_THE_LIMIT = "3" + "0" * 4998 + "1"
#: z(2) of this plane is resolved by a 5,000-digit number of curves
MATRIX_5000_CURVES = json.dumps({"mu": 1, "u": ["1", "1" + "0" * 4999, "1" + "0" * 4998 + "1"], "eta": [0, 0, 0]})


def count_matrices_built(monkeypatch):
    built = []
    new = planes.DegreeMatrix.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(planes.DegreeMatrix, "__new__", counting)
    return built


class TestSolve:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "9", "--bound", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["1\t1\t1\t3", "1\t1\t4\t6", "1\t4\t25\t30"]

    def test_empty_is_success(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "7", "--bound", "100")
        assert code == 0 and out == ""

    @pytest.mark.parametrize("fmt, head", [("json", '{{"a":{},"normBound":"10","depthBound":null,"roots":[],"nodes":[],"edges":[]}}\n'),
                                           ("dot", "graph mutation_tree_{} {{\n}}\n")])
    def test_parameter_past_the_digit_limit_heads_its_empty_tree(self, capsys, fmt, head):
        a = "1" + "0" * 5000
        assert run(capsys, "solve", "--a", a, "--bound", "10", "--format", fmt) == (0, head.format(a), "")

    def test_invalid_parameter(self, capsys):
        code, _, err = run(capsys, "solve", "--a", "0")
        assert code == 2 and "error" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "8", "--bound", "200", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert ["1", "1", "2"] in [n["u"] for n in obj["nodes"]]
        assert json.loads(json.dumps(obj)) == obj

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "9", "--bound", "40", "--format", "dot")
        assert code == 0 and '"(1,1,1)" -- "(1,1,4)"' in out

    def test_depth_flag(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "9", "--bound", str(10**9), "--depth", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_bound_past_the_str_digit_limit(self, capsys):
        # int() refuses the 5,001 digits of 10^5000; the library takes the bound at any size
        code, out, err = run(capsys, "solve", "--a", "9", "--bound", "1" + "0" * 5000, "--depth", "2")
        rows = sorted((markov.norm(u), u) for u in markov.enumerate_tree(9, 10**5000, depth_bound=2).nodes)
        assert len(rows) == 3
        assert code == 0 and err == "" and out == "".join(f"{u[0]}\t{u[1]}\t{u[2]}\t{n}\n" for n, u in rows)

    @pytest.mark.parametrize("argv", [("solve", "--a", "9", "--bound"), ("solve", "--a"), ("classify", "--a"),
                                      ("graph", "--mu", "8", "--a"), ("graph", "--a", "1", "--mu")])
    @pytest.mark.parametrize("value", ["1e5", "1.5", "abc"])
    def test_integer_flag_that_is_not_an_integer_is_refused(self, capsys, argv, value):
        # --a and --mu are read as --bound is, and named so in the refusal
        code, out, err = run(capsys, *argv, value)
        assert code == 2 and out == "" and f"argument {argv[-1]}: invalid integer value: '{value}'" in err

    def test_max_nodes_cap(self, capsys):
        code, _, err = run(capsys, "solve", "--a", "9", "--bound", str(10**6), "--max-nodes", "2")
        assert code == 2 and "max-nodes" in err

    def test_md_rows(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "9", "--bound", "40", "--format", "md")
        assert code == 0
        assert "| (1,1,1) | 3 | yes |" in out
        assert "| (1,1,4) | 6 | no |" in out

    @pytest.mark.parametrize("fmt", ["tsv", "json", "md", "dot"])
    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    @pytest.mark.parametrize("depth", [None, 3])
    def test_text_matches_the_per_row_oracle(self, capsys, fmt, a, depth):
        depth_flag = () if depth is None else ("--depth", str(depth))
        argv = ("solve", "--a", str(a), "--bound", str(10**48), "--max-nodes", "20000", *depth_flag, "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == oracles.tree_text(markov.enumerate_tree(a, 10**48, depth), fmt)

    @pytest.mark.parametrize("flag", ["--depth", "--max-nodes"])
    def test_negative_bounds_are_refused(self, capsys, flag):
        code, out, err = run(capsys, "solve", "--a", "9", flag, "-1")
        name = "depth bound" if flag == "--depth" else "node cap"
        assert (code, out, err) == (2, "", f"error: {name} must be non-negative, got -1\n")


HUGE_CAP = "1" + "0" * 5000  # past int()'s str-to-int digit limit, and never reached


class TestCapsOfAnyLength:
    @pytest.mark.parametrize("fmt", ["tsv", "md", "dot"])
    @pytest.mark.parametrize("flag", ["--depth", "--max-nodes"])
    def test_solve_cap_past_the_str_digit_limit_is_no_cap(self, capsys, flag, fmt):
        code, out, err = run(capsys, "solve", "--a", "9", "--bound", str(10**24), flag, HUGE_CAP, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == oracles.tree_text(markov.enumerate_tree(9, 10**24), fmt)

    @pytest.mark.parametrize("fmt", ["tsv", "md"])
    def test_classify_cap_past_the_str_digit_limit_is_no_cap(self, capsys, fmt):
        code, out, err = run(capsys, "classify", "--a", "2", "--bound", str(10**24), "--max-nodes", HUGE_CAP, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == oracles.classify_text(planes.classify(2, 10**24), 2, fmt)

    def test_graph_cap_past_the_str_digit_limit_is_no_cap(self, capsys):
        code, out, err = run(capsys, "graph", "--a", "2", "--mu", "3", "--bound", str(10**12), "--max-nodes", HUGE_CAP)
        assert (code, err) == (0, "")
        assert out == "".join(cli._graph_dot(adjacency.adjacency_graph(2, 3, 10**12)))

    @pytest.mark.parametrize("argv", [("solve", "--a", HUGE_CAP), ("classify", "--a", HUGE_CAP),
                                      ("graph", "--a", HUGE_CAP, "--mu", "8"), ("graph", "--a", "1", "--mu", HUGE_CAP)])
    def test_a_and_mu_past_the_str_digit_limit_are_read(self, capsys, argv):
        # a degree or torsion order with no solutions, as --a 7: solve and classify print nothing, graph names both in full
        code, out, err = run(capsys, *argv)
        if argv[0] == "graph":
            assert (code, out, err) == (2, "", f"error: no series exists for degree {argv[2]} with torsion order {argv[4]}\n")
        else:
            assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("argv", [("solve", "--a", "9", "--depth"), ("solve", "--a", "9", "--max-nodes"),
                                      ("classify", "--a", "2", "--max-nodes"), ("graph", "--a", "2", "--mu", "3", "--max-nodes")])
    @pytest.mark.parametrize("value", ["-1", "-" + HUGE_CAP, "abc"])
    def test_negative_or_non_integer_cap_is_refused(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (2, "")
        if value == "abc":
            assert f"argument {argv[-1]}: invalid integer value: 'abc'" in err
        else:
            name = "depth bound" if argv[-1] == "--depth" else "node cap"
            assert err == f"error: {name} must be non-negative, got {value}\n"


class TestClassify:
    def test_base_series_of_degree_2(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "2", "--bound", "50")
        assert code == 0
        series = [line.split("\t")[0] for line in out.strip().splitlines()]
        assert {"2-4-1", "2-4-3", "2-3-1", "2-3-2"} <= set(series)

    def test_degree_5(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "5", "--bound", "10")
        assert code == 0
        assert out.strip().splitlines() == ["5-1-0\t1,4,5\t0,0,0\t1,4,5\t5"]

    def test_merge_annotations_in_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "1", "--bound", "32", "--format", "json")
        assert code == 0
        objs = json.loads(out)
        merged = [o for o in objs if "mergedSeries" in o]
        assert any(o["mergedSeries"] == ["1-8-3", "1-8-7"] for o in merged)

    def test_invalid(self, capsys):
        code, _, _ = run(capsys, "classify", "--a", "-3")
        assert code == 2

    def test_invalid_degree(self, capsys):
        code, out, err = run(capsys, "classify", "--a", "0")
        assert (code, out, err) == (2, "", "error: degree must be a positive integer, got 0\n")

    def test_max_nodes_cap(self, capsys):
        code, _, err = run(capsys, "classify", "--a", "1", "--bound", "600", "--max-nodes", "3")
        assert code == 2 and "max-nodes" in err

    def test_max_nodes_cap_refuses_during_enumeration(self, capsys, monkeypatch):
        built = count_matrices_built(monkeypatch)
        code, out, err = run(capsys, "classify", "--a", "1", "--bound", str(10**96), "--max-nodes", "10")
        # the message names the degree and bound asked for, not the scaled equation's
        assert (code, out) == (2, "")
        assert err == f"error: more than 10 nodes below norm {10**96} for degree 1, mu 5; raise --max-nodes to continue\n"
        assert built == []

    def test_negative_max_nodes_is_refused(self, capsys):
        code, out, err = run(capsys, "classify", "--a", "1", "--max-nodes", "-1")
        assert (code, out, err) == (2, "", "error: node cap must be non-negative, got -1\n")

    def test_negative_max_nodes_is_refused_for_a_degree_without_families(self, capsys):
        # degree 7 has no series, so no tree is enumerated to refuse the cap
        code, out, err = run(capsys, "classify", "--a", "7", "--max-nodes", "-1")
        assert (code, out, err) == (2, "", "error: node cap must be non-negative, got -1\n")

    @pytest.mark.parametrize("fmt", ["tsv", "md"])
    def test_text_formats_match_the_per_row_writer(self, capsys, fmt):
        for a in golden.SOLVABLE_PARAMETERS:
            code, out, _ = run(capsys, "classify", "--a", str(a), "--bound", str(10**24), "--max-nodes", "100000", "--format", fmt)
            assert code == 0
            assert out == oracles.classify_text(planes.classify(a, 10**24), a, fmt)

    @pytest.mark.parametrize("fmt", ["tsv", "md", "json"])
    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    def test_stdout_equals_the_normalizing_oracle(self, capsys, a, fmt):
        code, out, err = run(capsys, "classify", "--a", str(a), "--bound", str(10**48), "--max-nodes", "100000", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == oracles.classify_text(normalized_classes(a, 10**48), a, fmt)

    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    def test_report_json_equals_the_normalizing_oracle(self, capsys, a):
        code, out, err = run(capsys, "classify", "--a", str(a), "--bound", str(10**12), "--report", "--format", "json")
        assert (code, err) == (0, "")
        assert out == oracles.classify_text(normalized_classes(a, 10**12), a, "json", report=True)

    @pytest.mark.parametrize("fmt", [(), ("--format", "tsv"), ("--format", "md")], ids=["default", "tsv", "md"])
    def test_report_outside_json_is_refused(self, capsys, fmt):
        # the tables have no column for a report, so the flag is refused rather than ignored
        code, out, err = run(capsys, "classify", "--a", "2", "--bound", "30", "--report", *fmt)
        assert (code, out, err) == (2, "", "error: --report needs --format json\n")

    # sha256 of the 15,533 classes of degree 1 below 10^48, past the 10^12
    # at which the benchmark stops degree 1; recorded while classify still
    # built every class through the full constructors
    DEGREE_1_AT_48_DIGITS = {
        "tsv": "7e463622de793fa48c8fb1d8bd06ab90c5de644a02e0476576b154a2d91fa735",
        "md": "842b26d1d7a0bdd80ae13472748f431e8621efde4cc725a0f480d61a8ee59a76",
        "json": "464f4458e9f2db3d584d8632b950f284cf5eaa5ab963f761c2e0e1f2d14fd5dd",
    }

    @pytest.mark.parametrize("fmt", sorted(DEGREE_1_AT_48_DIGITS))
    def test_degree_1_bytes_at_48_digits(self, capsys, fmt):
        code, out, err = run(capsys, "classify", "--a", "1", "--bound", str(10**48), "--max-nodes", "20000", "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DEGREE_1_AT_48_DIGITS[fmt]

    def test_max_nodes_cap_counts_classes_past_the_trees(self, capsys):
        # each degree-1 tree at 600 has at most 5 nodes, but the classes
        # of all four families together exceed the cap
        assert all(len(markov.enumerate_tree(mu, 600 // mu).nodes) <= 5 for mu in (5, 6, 8, 9))
        code, _, err = run(capsys, "classify", "--a", "1", "--bound", "600", "--max-nodes", "5")
        assert code == 2 and "45 classes exceed the node cap 5; raise --max-nodes to continue" in err


class TestSing:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "sing", MATRIX_183)
        assert code == 0
        obj = json.loads(out)
        assert obj["series"] == "1-8-3"
        assert obj["report"]["iota"] == ["2", "1", "4"]
        assert obj["report"]["isT"] == [True, True, True]

    def test_one_t_row(self, capsys):
        code, out, _ = run(capsys, "sing", '{"mu":5,"u":["1","4","5"],"eta":[0,1,1]}')
        obj = json.loads(out)
        assert obj["report"]["isT"] == [False, False, True]
        assert obj["report"]["iota"] == ["5", "10", "1"]

    def test_smooth(self, capsys):
        code, out, _ = run(capsys, "sing", MATRIX_SMOOTH)
        obj = json.loads(out)
        assert obj["report"]["resCurves"] == [0, 0, 0]

    def test_non_integral_degree_still_reported(self, capsys):
        code, out, _ = run(capsys, "sing", '{"mu":1,"u":["2","3","5"],"eta":[0,0,0]}')
        assert code == 0
        obj = json.loads(out)
        assert obj["degree"] == "10/3"
        assert "series" not in obj

    def test_unadjusted_input_resolves_to_its_class(self, capsys):
        code, out, _ = run(capsys, "sing", '{"mu":8,"u":["1","1","2"],"eta":[0,1,7]}')
        obj = json.loads(out)
        assert obj["series"] == "1-8-3"  # the eta = 7 member is the 3-class

    def test_malformed(self, capsys):
        code, _, err = run(capsys, "sing", '{"mu":9,"u":["1","1","4"],"eta":[0,1,1]}')
        assert code == 2
        code, _, err = run(capsys, "sing", "not json")
        assert code == 2

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MATRIX_183))
        code, out, _ = run(capsys, "sing", "-")
        assert code == 0 and json.loads(out)["report"]["iota"] == ["2", "1", "4"]

    def test_tsv_rows(self, capsys):
        code, out, _ = run(capsys, "sing", MATRIX_183, "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[0] == ["z(0)", "8", "2", "+", "2", "2"]
        assert rows[2] == ["z(2)", "16", "4", "+", "1", "3"]

    def test_md_table(self, capsys):
        code, out, _ = run(capsys, "sing", MATRIX_183, "--format", "md")
        assert code == 0 and "| 1-8-3 |" in out and "(2,1,4)" in out

    def test_md_row_of_a_torsion_order_past_the_str_digit_limit(self, capsys):
        matrix = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 2]})
        code, out, err = run(capsys, "sing", matrix, "--format", "md")
        assert (code, err) == (0, "")
        assert out.splitlines()[2].startswith(f"| - | Z + Z/{MU_PAST_THE_LIMIT} | [1,1,1]/[0,1,2] |")

    def test_md_table_does_not_swallow_invariant_failures(self, monkeypatch):
        # "no label" is decided from the degree and the adjusted form, never by an exception
        def broken(q, a):
            raise markov.InvariantError("series invariant failed")

        monkeypatch.setattr(planes, "_series_of", broken)
        with pytest.raises(markov.InvariantError, match="series invariant failed"):
            cli.main(["sing", MATRIX_183, "--format", "md"])

    @pytest.mark.parametrize("matrix", ['{"mu":1,"u":["2","3","5"],"eta":[0,0,0]}', MATRIX_187])
    def test_md_table_labels_only_adjusted_integral_rows(self, capsys, matrix):
        # a non-integral degree, and an integral one not in adjusted form
        code, out, _ = run(capsys, "sing", matrix, "--format", "md")
        assert code == 0 and out.splitlines()[2].split(" | ")[0] == "| -"

    def test_md_table_adjusts_only_integral_rows(self, capsys, monkeypatch):
        # a non-integral degree already means "no label", so adjust is not asked
        def refuse(q):
            raise ValueError("adjust refused")

        monkeypatch.setattr(planes, "adjust", refuse)
        code, out, _ = run(capsys, "sing", '{"mu":1,"u":["2","3","5"],"eta":[0,0,0]}', "--format", "md")
        assert code == 0 and out.splitlines()[2].startswith("| - | Z | [2,3,5] |")
        assert run(capsys, "sing", MATRIX_183, "--format", "md") == (2, "", "error: adjust refused\n")

    @pytest.mark.parametrize("fmt, calls", [("tsv", 0), ("md", 1), ("json", 1)])
    def test_only_md_and_json_compute_the_head(self, capsys, monkeypatch, fmt, calls):
        # tsv is written from the report alone; md and json each adjust and label once
        spies = {name: mock.Mock(wraps=getattr(planes, name)) for name in ("degree", "adjust", "_series_of")}
        for name, spy in spies.items():
            monkeypatch.setattr(planes, name, spy)
        assert run(capsys, "sing", MATRIX_183, "--format", fmt)[0] == 0
        assert {name: spy.call_count for name, spy in spies.items()} == dict.fromkeys(spies, calls)

    @pytest.mark.xfail(
        strict=True,
        reason="the md table labels the raw matrix, while the json output adjusts it first; "
        "mending it changes pinned benchmark reference bytes",
    )
    def test_md_table_labels_unadjusted_input_like_json(self, capsys):
        matrix = '{"mu":8,"u":["1","1","2"],"eta":[0,1,7]}'
        code, out, _ = run(capsys, "sing", matrix)
        assert code == 0 and json.loads(out)["series"] == "1-8-3"
        code, out, _ = run(capsys, "sing", matrix, "--format", "md")
        assert code == 0 and "| 1-8-3 |" in out


    @pytest.mark.parametrize("fmt", ["json", "tsv", "md"])
    def test_integers_past_the_str_digit_limit(self, capsys, fmt):
        u = oracles.past_the_digit_limit()
        text = [str(decimal.Decimal(x)) for x in u]
        matrix = json.dumps({"mu": 1, "u": text, "eta": [0, 0, 0]})
        code, out, err = run(capsys, "sing", matrix, "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            obj = json.loads(out)
            assert obj["u"] == obj["weights"] == obj["report"]["cl"] == text
            assert obj["series"] == "9-1-0" and obj["degree"] == "9"
        elif fmt == "tsv":
            assert [row.split("\t")[1] for row in out.splitlines()] == text
        else:
            row = out.splitlines()[2]
            assert row.startswith(f"| 9-1-0 | Z | [{','.join(text)}] | ({decimal.Decimal(sum(u))}) |")

    @pytest.mark.parametrize(
        "bad",
        ["1e5", "+-1", "-5", "0", "1.5", "9" * 5000 + "x", "-" + "9" * 5000]
        + [s.format("9" * 50) for s in ("{}e5", "{}.5", "{}x", "-{}")]
        + ["9" * 5000 + "e5", "9" * 5000 + ".5", "0" * 50, "0" * 5000],
    )
    def test_free_parts_that_are_not_positive_integers_are_refused(self, capsys, bad):
        code, out, err = run(capsys, "sing", json.dumps({"mu": 1, "u": [bad, "1", "1"], "eta": [0, 0, 0]}))
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "matrix",
        [
            '{"mu":1,"u":[1.5,1,1],"eta":[0,0,0]}',
            '{"mu":1,"u":[true,true,true]}',
            '{"mu":8.7,"u":["1","1","2"],"eta":[0,1,3]}',
            '{"mu":true,"u":["1","1","1"]}',
            '{"mu":8,"u":["1","1","2"],"eta":[0,1.0,3]}',
            '{"mu":8,"u":["1","1","2"],"eta":[false,true,3]}',
        ],
    )
    def test_float_and_bool_entries_are_refused(self, capsys, matrix):
        # int() would truncate the floats and read the bools as 0 and 1
        code, out, err = run(capsys, "sing", matrix)
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, err = run(capsys, "iso", matrix, MATRIX_183)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "matrix",
        [
            '{"mu":8,"u":"112","eta":"013"}',
            '{"mu":8,"u":"112","eta":[0,1,3]}',
            '{"mu":8,"u":["1","1","2"],"eta":"013"}',
            '{"mu":1,"u":{"1":0,"2":0,"3":0}}',
            '{"mu":8,"u":["1","1","2"],"eta":{"0":0,"1":1,"3":3}}',
        ],
    )
    def test_columns_that_are_not_arrays_are_refused(self, capsys, matrix):
        # iterating a string reads its characters and a dict its keys
        code, out, err = run(capsys, "sing", matrix)
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, err = run(capsys, "iso", MATRIX_183, matrix)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "matrix",
        ["[1,2,3]", '{"mu":1,"eta":[0,0,0]}', '{"mu":1,"u":[[1],1,1],"eta":[0,0,0]}', '"abc"', "5", "null"],
    )
    def test_json_that_is_no_matrix_is_named_so(self, capsys, matrix):
        # the KeyError and TypeError of reading such JSON reach stderr as one ValueError;
        # JSON that is no object is refused before any field is read, in one message
        for argv in (("sing", matrix), ("iso", matrix, MATRIX_183), ("iso", MATRIX_183, matrix)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error: not a degree matrix: ")
            if not matrix.startswith("{"):
                assert err == "error: not a degree matrix: expected a JSON object with mu, u and eta\n"

    @pytest.mark.parametrize("matrix, reason", [
        ("{}", "expected a JSON object with mu, u and eta, missing mu and u"),
        ('{"u":[1,1,1]}', "expected a JSON object with mu, u and eta, missing mu"),
        ('{"mu":1,"eta":[0,0,0]}', "expected a JSON object with mu, u and eta, missing u"),
        ('{"mu":1,"u":[[1],1,1],"eta":[0,0,0]}', "degree matrix entries must be integers, got [1]"),
        ('{"mu":[8],"u":[1,1,2]}', "degree matrix entries must be integers, got [8]"),
        ('{"mu":8,"u":[1,1,2],"eta":[0,null,3]}', "degree matrix entries must be integers, got None"),
    ])
    def test_a_missing_field_or_bad_entry_is_named(self, capsys, matrix, reason):
        # not Python's bare KeyError text ('u') or int()'s own words for a nested array
        for argv in (("sing", matrix), ("iso", matrix, MATRIX_183)):
            assert run(capsys, *argv) == (2, "", f"error: not a degree matrix: {reason}\n")

    @pytest.mark.parametrize("template", ["{}", '{{"mu":8,"u":{},"eta":[0,1,3]}}'])
    def test_json_nested_too_deep_is_named_so(self, capsys, monkeypatch, template):
        # json.loads raises RecursionError long before 100,000 levels
        deep = template.format("[" * 100_000 + "]" * 100_000)
        monkeypatch.setattr("sys.stdin", io.StringIO(deep))
        for argv in (("sing", deep), ("sing", "-"), ("iso", deep, MATRIX_183), ("iso", MATRIX_183, deep)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error: not a degree matrix: ")

    @pytest.mark.parametrize("argv", [("sing", "\ufeff" + MATRIX_183), ("sing", "-"), ("iso", "\ufeff" + MATRIX_183, MATRIX_183),
                                      ("iso", MATRIX_183, "\ufeff" + MATRIX_183)])
    def test_a_byte_order_mark_is_named_so(self, capsys, monkeypatch, argv):
        # the bare decoder skips json.loads's check for a byte-order mark, so the reader makes it, with the same message
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + MATRIX_183))
        reason = "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
        assert run(capsys, *argv) == (2, "", f"error: not a degree matrix: {reason}\n")

    @pytest.mark.parametrize("fmt", ["tsv", "md", "json"])
    def test_resolution_count_past_the_str_digit_limit(self, capsys, fmt):
        # z(2) is resolved by a 5,000-digit number of curves; json writes the
        # count as a JSON number past the str-to-int digit limit
        q = cli._read_matrix_arg(MATRIX_5000_CURVES)
        curves = markov._text(planes.singularity_report(q).res_curves[2])
        assert len(curves) == 5000
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "sing", MATRIX_5000_CURVES, "--format", fmt)
        assert sys.get_int_max_str_digits() == limit
        if fmt == "json":
            assert code == 0 and err == ""
            assert f",{curves}]" in out
            assert markov._text(read_json(out)["report"]["resCurves"][2]) == curves
        elif fmt == "tsv":
            assert code == 0 and err == ""
            assert [row.split("\t")[5] for row in out.splitlines()][2] == curves
        else:
            assert code == 0 and err == ""
            assert out.splitlines()[2].endswith(f",{curves}) |")

    def test_own_json_line_reads_back(self, capsys):
        # the line writes mu as a JSON number past the str-to-int digit limit; sing and iso read it back
        matrix = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 2]})
        code, line, err = run(capsys, "sing", matrix)
        assert (code, err) == (0, "") and line.startswith(f'{{"mu":{MU_PAST_THE_LIMIT},"u":')
        assert run(capsys, "sing", line) == (0, line, "")
        identity = '{"isomorphic":true,"automorphism":{"eps":1,"a":0,"c":1},"columnPermutation":[0,1,2]}\n'
        assert run(capsys, "iso", line, matrix) == run(capsys, "iso", matrix, line) == (0, identity, "")

    @pytest.mark.parametrize("fmt", ["tsv", "md", "json"])
    def test_torsion_order_past_the_str_digit_limit(self, capsys, fmt):
        # json writes mu as a JSON number past the str-to-int digit limit
        matrix = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 2]})
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "sing", matrix, "--format", fmt)
        assert sys.get_int_max_str_digits() == limit
        if fmt == "json":
            assert code == 0 and err == ""
            assert out.startswith(f'{{"mu":{MU_PAST_THE_LIMIT},"u":["1","1","1"],"eta":[0,1,2],')
            obj = read_json(out)
            assert obj["mu"] == cli.integer(MU_PAST_THE_LIMIT) and obj["eta"] == [0, 1, 2]
        elif fmt == "tsv":
            assert code == 0 and err == ""
            assert [row.split("\t")[1] for row in out.splitlines()] == [MU_PAST_THE_LIMIT] * 3
        else:
            assert code == 0 and err == ""
            assert out.splitlines()[2].startswith(f"| - | Z + Z/{MU_PAST_THE_LIMIT} | [1,1,1]/[0,1,2] |")

    @pytest.mark.parametrize("flag", [("--bound", "5"), ("--max-nodes", "-3")])
    def test_enumeration_flags_are_refused(self, capsys, flag):
        # only solve, classify and graph enumerate, and only they take these flags
        code, out, err = run(capsys, "sing", MATRIX_183, *flag)
        assert code == 2 and out == "" and "unrecognized arguments" in err
        code, out, err = run(capsys, "iso", MATRIX_183, MATRIX_187, *flag)
        assert code == 2 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["sing", "iso"])
    def test_help_lists_no_enumeration_flags(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "--format" in out
        assert "--bound" not in out and "--max-nodes" not in out

    def test_integer_entries_read_like_strings(self, capsys):
        assert run(capsys, "sing", '{"mu":"8","u":[1,1,2],"eta":["0","1","3"]}') == run(capsys, "sing", MATRIX_183)

    @pytest.mark.parametrize("digits", [50, 5000])
    @pytest.mark.parametrize(
        "spell", [lambda d: d + "\n", lambda d: "+" + d, lambda d: d[:9] + "_" + d[9:]], ids=["newline", "plus", "underscore"]
    )
    def test_free_part_spellings_read_alike_at_every_length(self, capsys, digits, spell):
        plain = "9" * digits
        first = run(capsys, "sing", json.dumps({"mu": 1, "u": [plain, "1", "1"], "eta": [0, 0, 0]}))
        assert first[0] == 0
        assert run(capsys, "sing", json.dumps({"mu": 1, "u": [spell(plain), "1", "1"], "eta": [0, 0, 0]})) == first

    def test_json_adjusts_the_matrix_once(self, capsys, monkeypatch):
        adjusted = []
        adjust = planes.adjust
        monkeypatch.setattr(planes, "adjust", lambda q: adjusted.append(q) or adjust(q))
        code, out, _ = run(capsys, "sing", MATRIX_187)
        assert code == 0 and json.loads(out)["series"] == "1-8-3"
        assert len(adjusted) == 1

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_a_value_error_of_adjust_is_not_swallowed(self, capsys, monkeypatch, fmt):
        # the matrix has integral degree 1, so adjust must succeed; its failure is reported
        def refuse(q):
            raise ValueError("adjust refused")

        monkeypatch.setattr(planes, "adjust", refuse)
        assert run(capsys, "sing", MATRIX_183, "--format", fmt) == (2, "", "error: adjust refused\n")

    def test_unknown_series_is_an_invariant_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(planes, "SERIES_ETAS", {k: v for k, v in planes.SERIES_ETAS.items() if k != (1, 8)})
        with pytest.raises(markov.InvariantError, match="unknown series"):
            cli.main(["sing", MATRIX_183])

    def test_a_refused_weight_solve_is_an_invariant_failure(self, monkeypatch):
        # the weight of a fixed point is solved from a valid degree matrix: pow's refusal of a non-unit is a defect, not exit 2
        def refuse(q, i, j, k):
            raise ValueError("base is not invertible for the given modulus")

        monkeypatch.setattr(planes, "_quotient_weight", refuse)
        with pytest.raises(markov.InvariantError, match=r"^weight at z\(0\) of DegreeMatrix\(mu=8, .*: base is not invertible for the given modulus$"):
            cli.main(["sing", MATRIX_183])

    def test_a_defect_past_the_digit_limit_is_an_invariant_failure(self, monkeypatch):
        # the message names the 5,001-digit u[0] in full; it used to raise the digit limit's
        # ValueError, which main reported as an input error with exit 2
        monkeypatch.setattr(planes, "_quotient_weight", lambda q, i, j, k: 2)  # the weight at z(0) is 1
        matrix = json.dumps({"mu": 1, "u": ["1" + "0" * 5000, "1", "1"], "eta": [0, 0, 0]})
        with pytest.raises(markov.InvariantError) as info:
            cli.main(["sing", matrix])
        q = f"DegreeMatrix(mu=1, u=(1{'0' * 5000}, 1, 1), eta=(0, 0, 0))"
        assert str(info.value) == f"weight 2 at z(0) of {q} fails q_j = t*q_i + s*q_k"

    def test_a_refusal_past_the_digit_limit_keeps_its_reason(self, capsys):
        matrix = json.dumps({"mu": 8, "u": ["1" + "0" * 5000, "1", "2"], "eta": [0, 1, 3]})
        reason = f"columns 0,1 of (mu=8, u=(1{'0' * 5000}, 1, 2), eta=(0, 1, 3)) fail to generate the class group"
        assert run(capsys, "sing", matrix) == (2, "", f"error: not a degree matrix: {reason}\n")


class TestGraph:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--a", "9", "--mu", "1", "--bound", "40")
        assert code == 0
        assert '"(1,1,1)" -- "(1,1,4)"' in out

    def test_invalid_family(self, capsys):
        code, _, _ = run(capsys, "graph", "--a", "9", "--mu", "2", "--bound", "40")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "graph", "--a", "2", "--mu", "4", "--bound", "200", "--format", "json")
        obj = json.loads(out)
        assert {n["label"] for n in obj["nodes"]} >= {"(1,1,2; 1)", "(1,1,2; 3)"}
        assert obj["selfAdjacent"]

    @pytest.mark.parametrize("argv, where", [(("graph", "--a", "1", "--mu", "5"), "partner of ClassifiedPlane"),
                                             (("graph", "--a", "1", "--mu", "8"), r"tied node \(1, 1, 2\) of mu 8"),
                                             (("classify", "--a", "1", "--bound", "1000"), r"tied node \(1, 1, 2\) of mu 8")])
    def test_a_refused_internal_matrix_is_a_defect_not_bad_input(self, monkeypatch, argv, where):
        # the matrices of a partner and of a tied node are certified planes: a refusal raises, never exit 2; the
        # family (1, 5) has no tied node, so a partner is the first matrix its graph builds
        monkeypatch.setattr(abelian, "pair_generates", lambda *args: False)
        with pytest.raises(markov.InvariantError, match=f"^{where}.*: columns 0,1 .* fail to generate the class group$"):
            cli.main(list(argv))


class TestIso:
    def test_true_with_witness(self, capsys):
        code, out, _ = run(capsys, "iso", MATRIX_183, MATRIX_187)
        assert code == 0
        obj = json.loads(out)
        assert obj["isomorphic"] and "automorphism" in obj

    def test_false_verdict(self, capsys):
        code, out, _ = run(capsys, "iso", MATRIX_181, MATRIX_187)
        assert code == 1
        assert json.loads(out) == {"isomorphic": False}

    def test_false_verdict_at_large_mu(self, capsys):
        # mu * phi(mu) is about 10^12 here, out of reach of an enumeration
        first = '{"mu":1000003,"u":["1","1","1"],"eta":[0,1,2]}'
        second = '{"mu":1000003,"u":["1","1","1"],"eta":[0,1,3]}'
        code, out, _ = run(capsys, "iso", first, second)
        assert code == 1
        assert json.loads(out) == {"isomorphic": False}

    def test_torsion_order_past_the_str_digit_limit(self, capsys):
        first = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 2]})
        second = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 3]})
        code, out, _ = run(capsys, "iso", first, first)
        assert code == 0
        assert json.loads(out) == {"isomorphic": True, "automorphism": {"eps": 1, "a": 0, "c": 1}, "columnPermutation": [0, 1, 2]}
        code, out, _ = run(capsys, "iso", first, second)
        assert code == 1 and json.loads(out) == {"isomorphic": False}

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_automorphism_past_the_str_digit_limit(self, capsys, fmt):
        # (k, m) -> (k, a*k + m) with a 4,991-digit a; json writes a as a JSON
        # number past the str-to-int digit limit
        a_text = "1" + "0" * 4990
        mu = cli.integer(MU_PAST_THE_LIMIT)
        eta = [markov._text((cli.integer(a_text) + e) % mu) for e in (0, 1, 2)]
        first = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 2]})
        second = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": eta})
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "iso", first, second, "--format", fmt)
        assert sys.get_int_max_str_digits() == limit
        if fmt == "json":
            assert (code, err) == (0, "")
            assert out == f'{{"isomorphic":true,"automorphism":{{"eps":1,"a":{a_text},"c":1}},"columnPermutation":[0,1,2]}}\n'
            assert read_json(out)["automorphism"]["a"] == cli.integer(a_text)
        else:
            assert (code, out, err) == (0, f"isomorphic\tphi=(eps=1,a={a_text},c=1)\tperm=[0, 1, 2]\n", "")

    def test_mu_mismatch(self, capsys):
        code, out, _ = run(capsys, "iso", MATRIX_183, '{"mu":4,"u":["1","1","2"],"eta":[0,1,3]}')
        assert code == 1

    def test_input_error(self, capsys):
        code, _, _ = run(capsys, "iso", "garbage", MATRIX_183)
        assert code == 2

    def test_tsv_verdicts(self, capsys):
        code, out, _ = run(capsys, "iso", MATRIX_183, MATRIX_187, "--format", "tsv")
        assert code == 0 and out.startswith("isomorphic\tphi=")
        code, out, _ = run(capsys, "iso", MATRIX_181, MATRIX_187, "--format", "tsv")
        assert code == 1 and out.strip() == "not isomorphic"

    def test_graph_max_nodes_cap(self, capsys):
        code, _, err = run(capsys, "graph", "--a", "1", "--mu", "5", "--bound", "3000", "--max-nodes", "2")
        assert code == 2 and "max-nodes" in err

    def test_graph_max_nodes_cap_refuses_during_enumeration(self, capsys, monkeypatch):
        built = count_matrices_built(monkeypatch)
        code, out, err = run(capsys, "graph", "--a", "1", "--mu", "8", "--bound", str(10**96), "--max-nodes", "10")
        assert (code, out) == (2, "")
        assert err == f"error: more than 10 nodes below norm {10**96} for degree 1, mu 8; raise --max-nodes to continue\n"
        assert built == []

    def test_graph_negative_max_nodes_is_refused(self, capsys):
        code, out, err = run(capsys, "graph", "--a", "1", "--mu", "8", "--max-nodes", "-1")
        assert (code, out, err) == (2, "", "error: node cap must be non-negative, got -1\n")

    def test_graph_max_nodes_cap_counts_nodes_past_the_tree(self, capsys):
        # the 30 tree nodes below 10^6 fit the cap, their 60 classes do not
        code, out, err = run(capsys, "graph", "--a", "2", "--mu", "3", "--bound", str(10**6), "--max-nodes", "40")
        assert code == 2 and out == "" and "60 classes exceed the node cap 40; raise --max-nodes to continue" in err


#: JSON values of every kind, integers of up to 80 digits among them
_INTEGERS = st.integers(0, 9) | st.integers(-(10**80), 10**80)
_SCALARS = _INTEGERS | _INTEGERS.map(str) | st.text(max_size=4) | st.floats() | st.booleans() | st.none()
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
_COLUMNS = st.lists(_INTEGERS | _INTEGERS.map(str), min_size=3, max_size=3) | st.lists(_VALUES, max_size=5) | _VALUES
_FREE_PARTS = st.integers(1, 9) | st.integers(1, 10**80)


@functools.cache
def _classified_json():
    return [oracles.matrix_obj(c.matrix) for a in golden.SOLVABLE_PARAMETERS for c in planes.classify(a, 10**20)]


#: degree matrices, many of them valid, and JSON that is none
_MATRICES = (
    st.deferred(lambda: st.sampled_from(_classified_json()))
    | st.fixed_dictionaries(
        # at mu = 1 any eta is valid, so pairwise coprime free parts make a plane
        {"mu": st.just(1) | st.integers(1, 9), "u": st.lists(_FREE_PARTS | _FREE_PARTS.map(str), min_size=3, max_size=3)},
        optional={"eta": st.lists(st.integers(0, 9), min_size=3, max_size=3)},
    )
    | st.fixed_dictionaries({}, optional={"mu": _INTEGERS | _VALUES, "u": _COLUMNS, "eta": _COLUMNS})
    | _VALUES
)


def _mu_is_zero(obj) -> bool:
    try:
        return not isinstance(obj["mu"], (bool, float)) and cli.integer(obj["mu"]) == 0
    except (KeyError, TypeError, ValueError):
        return False


class TestJsonFuzz:
    """Any JSON given to ``sing`` or ``iso``, in any format, yields a verdict or an exit 2 with an ``error:`` line."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(
            [(argv, fmt) for argv in (("sing", "{0}"), ("sing", "-")) for fmt in ("json", "md", "tsv")]
            + [(argv, fmt) for argv in (("iso", "{0}", "{1}"), ("iso", "{1}", "-")) for fmt in ("json", "tsv")]
        ),
        _MATRICES,
        _MATRICES.map(json.dumps),
    )
    def test_exit_codes(self, command, matrix, other):
        argv, fmt = command
        text = json.dumps(matrix)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                # "--" keeps a JSON text such as -1e+16 from reading as an option
                code = cli.main([argv[0], "--format", fmt, "--", *(arg.format(text, other) for arg in argv[1:])])
            except ZeroDivisionError:
                # the known defect of mu = 0, still to be refused with exit 2
                assert _mu_is_zero(matrix) or _mu_is_zero(json.loads(other))
                return
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        else:
            assert code in (0, 1) and err.getvalue() == ""


class TestJsonDigitLimit:
    """No command changes the int-to-str digit limit: every integer is written by the
    helpers of :mod:`fwpp.markov`, at any size, in success and in failure alike."""

    def test_no_command_sets_the_limit(self, capsys, monkeypatch):
        # the commands of this class and of the tests of integers past the digit limit
        mu_a = cli.integer(MU_PAST_THE_LIMIT)
        automorphism_eta = [markov._text((10**4990 + e) % mu_a) for e in (0, 1, 2)]
        mu_first = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 2]})
        mu_second = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": [0, 1, 3]})
        mu_image = json.dumps({"mu": MU_PAST_THE_LIMIT, "u": ["1", "1", "1"], "eta": automorphism_eta})
        big_u = json.dumps({"mu": 1, "u": [str(decimal.Decimal(x)) for x in oracles.past_the_digit_limit()], "eta": [0, 0, 0]})
        commands = [
            ("sing", "garbage"),
            ("sing", MATRIX_183),
            ("sing", MATRIX_5000_CURVES),
            ("classify", "--a", "2", "--bound", "100", "--format", "json"),
            ("solve", "--a", "9", "--bound", "1" + "0" * 5000, "--depth", "2"),
            *(("solve", "--a", "9", "--bound", str(10**24), flag, HUGE_CAP, "--format", fmt) for flag in ("--depth", "--max-nodes") for fmt in ("tsv", "md", "dot")),
            *(("classify", "--a", "2", "--bound", str(10**24), "--max-nodes", HUGE_CAP, "--format", fmt) for fmt in ("tsv", "md")),
            ("graph", "--a", "2", "--mu", "3", "--bound", str(10**12), "--max-nodes", HUGE_CAP),
            *(("sing", matrix, "--format", fmt) for matrix in (big_u, MATRIX_5000_CURVES, mu_first) for fmt in ("json", "tsv", "md")),
            ("iso", mu_first, mu_first),
            ("iso", mu_first, mu_second),
            *(("iso", mu_first, mu_image, "--format", fmt) for fmt in ("tsv", "json")),
        ]
        expected = [run(capsys, *argv) for argv in commands]
        set_limit, limit = sys.set_int_max_str_digits, sys.get_int_max_str_digits()
        set_limit(640)  # the lowest limit Python accepts changes no byte either
        # nor does a Python without the limit's getter and setter, as before 3.10.7
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        try:
            assert [run(capsys, *argv) for argv in commands] == expected
        finally:
            set_limit(limit)
        assert [code for code, _, _ in expected] == [2] + [0] * 23 + [1, 0, 0] and expected[0][1] == ""


def walk_tree():
    """The mutation path at ``a = 9`` from the root ``(1, 1, 1)``, each step mutating the smallest entry, to the first node
    past 4,400 digits: a one-branch tree whose last rows pass the 4,300 digits ``str(int)`` writes by default."""
    path = [(1, 1, 1)]
    while path[-1][2] < 10**4400:
        path.append(oracles.play(path[-1], 9, 0))
    return oracles.tree_of(9, markov.norm(path[-1]), None, tuple((u,) for u in path), (b"\1",) * (len(path) - 1))


class TestRowsPastTheDigitLimit:
    """Each row template of ``solve`` and ``classify`` on rows past the digit limit: such a row is formatted again from
    the ``_text`` of its entries, at the default limit and at the lowest one, and the text is the oracle's."""

    TREE = walk_tree()

    @staticmethod
    def at_both_limits(capsys, argv):
        outputs = [run(capsys, *argv)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            outputs.append(run(capsys, *argv))
        finally:
            sys.set_int_max_str_digits(limit)
        return outputs

    @pytest.mark.parametrize("fmt", ["tsv", "md", "json", "dot"])
    def test_solve(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(markov, "enumerate_tree", lambda *args, **kwargs: self.TREE)
        assert len(markov._text(self.TREE.nodes[-1][2])) > 4300
        expected = (0, oracles.tree_text(self.TREE, fmt), "")
        assert self.at_both_limits(capsys, ["solve", "--a", "9", "--format", fmt]) == [expected] * 2

    @pytest.mark.parametrize("fmt, report", [("tsv", False), ("md", False), ("json", False), ("json", True)])
    def test_classify(self, capsys, monkeypatch, fmt, report):
        # the family of degree 1 and mu 9 reads the tree of parameter 9; its untied nodes give three classes each
        empty = oracles.tree_of(1, 0, None, ((),), ())
        monkeypatch.setattr(markov, "enumerate_tree", lambda a, *args, **kwargs: self.TREE if a == 9 else empty)
        classes = planes.classify(1, 1)
        assert len(classes) > 3 * (len(self.TREE.nodes) - 2) and len(markov._text(classes[-1].u[2])) > 4300
        expected = (0, oracles.classify_text(classes, 1, fmt, report), "")
        argv = ["classify", "--a", "1", "--bound", "1", "--format", fmt, *(["--report"] if report else [])]
        assert self.at_both_limits(capsys, argv) == [expected] * 2


class TestParserReuse:
    """``build_parser`` is cached: every ``main`` call parses with one parser."""

    SEQUENCE = [
        ("sing", MATRIX_183),
        ("iso", MATRIX_183, MATRIX_187, "--format", "tsv"),
        ("solve", "--a", "6", "--bound", "600", "--format", "md"),
        ("--help",),
        ("iso", MATRIX_181, MATRIX_187),
        ("nosuch",),
        ("solve", "--help"),
        ("classify", "--a", "2", "--bound", "100"),
        ("solve", "--a", "x"),
        ("graph", "--a", "1", "--mu", "5", "--bound", "300", "--format", "json"),
        ("sing", "not json"),
        ("sing", MATRIX_183, "--format", "md"),
    ]

    def test_interleaved_calls_match_fresh_parsers(self, capsys):
        cached = [run(capsys, *argv) for argv in self.SEQUENCE * 2]
        fresh = []
        for argv in self.SEQUENCE * 2:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert cached == fresh
        assert [code for code, _, _ in cached[: len(self.SEQUENCE)]] == [0, 0, 0, 0, 1, 2, 0, 0, 2, 0, 2, 0]

    def test_fifty_calls_build_one_parser_tree(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        for _ in range(50):
            assert run(capsys, "iso", MATRIX_183, MATRIX_187)[0] == 0
        assert len(built) == 6  # the top-level parser and its five subcommands

    def test_one_shared_parser(self):
        assert cli.build_parser() is cli.build_parser()


class TestDeterminism:
    COMMANDS = [
        ("solve", "--a", "6", "--bound", "600", "--format", "json"),
        ("solve", "--a", "1", "--bound", "400", "--format", "tsv"),
        ("classify", "--a", "1", "--bound", "300", "--format", "json"),
        ("classify", "--a", "2", "--bound", "100", "--format", "md"),
        ("sing", MATRIX_183),
        ("graph", "--a", "1", "--mu", "8", "--bound", "800"),
        ("graph", "--a", "1", "--mu", "5", "--bound", "300", "--format", "json"),
        ("iso", MATRIX_183, MATRIX_187),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda c: " ".join(c[:4]))
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_jobs_flag_is_rejected(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "2", "--bound", "100", "--jobs", "4")
        assert code == 2 and out == ""


class TestChunkedWrites:
    """Every command writes through ``cli._write``; where its chunks end changes no byte."""

    COMMANDS = TestDeterminism.COMMANDS + [
        ("solve", "--a", "9", "--bound", "10000", "--format", "md"),
        ("solve", "--a", "9", "--bound", "10000", "--format", "dot"),
        ("solve", "--a", "7"),
        ("classify", "--a", "2", "--bound", "10000"),
        ("classify", "--a", "7", "--format", "json"),
        ("classify", "--a", "2", "--bound", "10000", "--format", "json", "--report"),
        ("sing", MATRIX_183, "--format", "md"),
        ("sing", MATRIX_183, "--format", "tsv"),
        ("sing", MATRIX_5000_CURVES),
        ("iso", MATRIX_183, MATRIX_187, "--format", "tsv"),
        ("iso", MATRIX_181, MATRIX_187, "--format", "tsv"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda c: " ".join(x if len(x) < 20 else "MATRIX" for x in c))
    def test_chunk_boundaries_change_no_byte(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)
        for chunk in (1, 2):
            monkeypatch.setattr(cli, "CHUNK", chunk)
            assert run(capsys, *argv) == expected

    def test_empty_outputs(self, capsys):
        assert run(capsys, "solve", "--a", "7") == (0, "", "")
        assert run(capsys, "classify", "--a", "7", "--format", "json") == (0, "[]\n", "")

    def test_json_array_is_one_dump(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "2", "--bound", "10000", "--format", "json", "--report")
        objs = [oracles.plane_obj(c, with_report=True) for c in planes.classify(2, 10000)]
        assert code == 0 and len(objs) > 1 and out == json.dumps(objs, separators=(",", ":")) + "\n"

    def test_a_part_that_raises_partway(self, capsys, monkeypatch):
        # the parts written before the refusal stay written, and main exits 2 with its reason
        real = cli._class_json
        encoded = []

        def refuse_the_third(c, *args):
            encoded.append(c)
            if len(encoded) == 3:
                raise ValueError("refused")
            return real(c, *args)

        monkeypatch.setattr(cli, "_class_json", refuse_the_third)
        monkeypatch.setattr(cli, "CHUNK", 1)  # the first parts are written before the third is built
        code, out, err = run(capsys, "classify", "--a", "2", "--bound", "100", "--format", "json")
        assert (code, err) == (2, "error: refused\n") and out.startswith("[{") and not out.endswith("\n")

    def test_only_write_touches_stdout(self):
        source = Path(cli.__file__).read_text()
        assert source.count("sys.stdout.write(") == 1 and not re.search(r"print\((?![^\n]*file=sys\.stderr)", source)


FWPP = [sys.executable, "-m", "fwpp.cli"]


class TestClosedStdout:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [("classify", "--a", "2", "--bound", str(10**12)), ("solve", "--a", "9", "--bound", "40")],
        ids=["large output fails in its write", "small output fails in the last flush"],
    )
    def test_full_stdout(self, argv):
        with open("/dev/full", "wb") as full, child([*FWPP, *argv], stdout=full) as proc:
            err = proc.stderr.read().decode()
        assert proc.returncode == cli.OUTPUT_ERROR == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
    def test_closed_descriptor(self):
        # `>&-` starts the interpreter without a descriptor 1, so sys.stdout is None
        with child(["/bin/sh", "-c", '"$@" >&-', "sh", *FWPP, "solve", "--a", "9", "--bound", "40"]) as proc:
            err = proc.stderr.read().decode()
        assert (proc.returncode, err) == (cli.OUTPUT_ERROR, "error: stdout is closed\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe(self, unbuffered):
        # 336 kB of rows, more than a pipe holds: the child is still writing
        # when the reader leaves after its first bytes, as with `| head -c 10`;
        # unbuffered, the write that the reader cuts short returns a short count
        with child([*FWPP, "classify", "--a", "2", "--bound", str(10**36)], unbuffered, stdout=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b"2-4-1\t1,1,"
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == cli.OUTPUT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1 and "Broken pipe" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_to_a_full_stdout(self):
        with open("/dev/full", "wb") as full, child([*FWPP, "--help"], stdout=full) as proc:
            err = proc.stderr.read().decode()
        assert (proc.returncode, err) == (cli.OUTPUT_ERROR, "error: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_to_a_full_unbuffered_stdout(self):
        # argparse's own print ignores the OSError of an unbuffered write
        with open("/dev/full", "wb") as full, child([*FWPP, "solve", "--help"], True, stdout=full) as proc:
            err = proc.stderr.read().decode()
        assert (proc.returncode, err) == (cli.OUTPUT_ERROR, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize(
        "argv",
        [("classify", "--a", "2", "--bound", str(10**36), "--format", "json"), ("solve", "--a", "1", "--bound", str(10**12), "--format", "md"), ("--help",)],
        ids=["classify json", "solve md", "help"],
    )
    def test_unbuffered_output_is_byte_identical(self, argv):
        outputs = []
        for unbuffered in (False, True):
            with child([*FWPP, *argv], unbuffered, stdout=subprocess.PIPE) as proc:
                outputs.append((*proc.communicate(), proc.returncode))
        assert outputs[0] == outputs[1] and outputs[0][1:] == (b"", 0) and len(outputs[0][0]) > 500

    @pytest.mark.parametrize("argv, code", [(("--help",), 0), (("solve", "--help"), 0), (("solve", "--a", "x"), cli.USAGE_ERROR)])
    def test_help_and_usage_errors_keep_their_codes(self, argv, code):
        with child([*FWPP, *argv], stdout=subprocess.PIPE) as proc:
            out, err = proc.communicate()
        assert proc.returncode == code and (out.startswith(b"usage: fwpp") if code == 0 else err.startswith(b"usage: fwpp"))

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
    def test_help_with_a_closed_descriptor(self):
        # with no stdout, argparse prints the help to stderr
        with child(["/bin/sh", "-c", '"$@" >&-', "sh", *FWPP, "--help"]) as proc:
            err = proc.stderr.read().decode()
        assert proc.returncode == 0 and err.startswith("usage: fwpp")

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
    @pytest.mark.parametrize("argv", [("sing", "-"), ("iso", "-", MATRIX_183)], ids=["sing", "iso"])
    def test_closed_stdin(self, argv):
        # `<&-` starts the interpreter without a descriptor 0, so sys.stdin is None
        with child(["/bin/sh", "-c", '"$@" <&-', "sh", *FWPP, *argv], stdout=subprocess.PIPE) as proc:
            out, err = proc.communicate()
        assert (proc.returncode, out, err) == (cli.OUTPUT_ERROR, b"", b"error: stdin is closed\n")

    USAGE_ERRORS = [("sing", "5"), ("classify", "--a", "1", "--bound", "100000", "--max-nodes", "1")]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=["input error", "node cap"])
    def test_usage_error_to_a_full_stderr(self, argv):
        with open("/dev/full", "wb") as full, child([*FWPP, *argv], stdout=subprocess.PIPE, stderr=full) as proc:
            out = proc.stdout.read()
        assert (proc.wait(), out) == (cli.USAGE_ERROR, b"")

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=["input error", "node cap"])
    def test_usage_error_with_a_closed_stderr(self, argv):
        # `2>&-` leaves sys.stderr None, and print(file=None) would write the line to stdout
        with child(["/bin/sh", "-c", '"$@" 2>&-', "sh", *FWPP, *argv], stdout=subprocess.PIPE) as proc:
            out, err = proc.communicate()
        assert (proc.returncode, out, err) == (cli.USAGE_ERROR, b"", b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_usage_error_in_process_raises_nothing(self, capsys, monkeypatch):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stderr", full)
            assert cli.main(["sing", "5"]) == cli.USAGE_ERROR
        monkeypatch.setattr(sys, "stderr", None)
        assert cli.main(["sing", "5"]) == cli.USAGE_ERROR
        monkeypatch.setattr(sys, "stdin", None)
        assert cli.main(["sing", "-"]) == cli.OUTPUT_ERROR
        assert capsys.readouterr().out == ""

    def test_closed_pipe_for_both_streams(self):
        # as with `2>&1 | head -c 10`: the error line cannot be written either
        with child([*FWPP, "classify", "--a", "2", "--bound", str(10**36)], stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
            assert proc.stdout.read(10) == b"2-4-1\t1,1,"
            proc.stdout.close()
        assert proc.returncode == cli.OUTPUT_ERROR


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux's")
class TestBoundedMemory:
    """Output is written in chunks, JSON included, so a child's peak memory holds the result, not its text twice over."""

    #: runs its arguments as a child with stdout to os.devnull and prints that child's peak RSS in KiB; a
    #: child of the test process itself would start from the test process's peak, which it inherits
    PEAK_RSS = (
        "import resource, subprocess, sys; subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--a", "1", "--bound", str(10**96), "--format", "tsv", "--max-nodes", "100000"),
            ("classify", "--a", "1", "--bound", str(10**96), "--format", "json", "--max-nodes", "100000"),
            ("solve", "--a", "1", "--bound", str(10**192), "--format", "dot", "--max-nodes", "100000"),
            ("solve", "--a", "1", "--bound", str(10**192), "--format", "json", "--max-nodes", "100000"),
            # 248,699 classes
            ("classify", "--a", "1", "--bound", str(10**192), "--format", "json", "--max-nodes", "300000"),
        ],
        ids=["classify tsv at 10^96", "classify json at 10^96", "solve dot at 10^192", "solve json at 10^192",
             "classify json at 10^192"],
    )
    def test_peak_rss_below_100_mib(self, argv):
        with child([sys.executable, "-c", self.PEAK_RSS, *FWPP, *argv], stdout=subprocess.PIPE) as proc:
            out, err = proc.communicate()
        assert (proc.returncode, err) == (0, b"")
        # 119, 181, 239 and 264 MiB when each output was built whole; 230 MiB for the last with two objects per class
        assert int(out) < 100 * 1024


class TestReadmeExamples:
    def test_every_example_exits_0(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = []
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["fwpp"]:
                    examples.append(argv[1:])
        assert len(examples) == 9
        for argv in examples:
            code, out, err = run(capsys, *argv)
            assert code == 0 and out and err == "", argv

    def test_library_quick_tour_runs(self):
        # each statement runs in turn; one whose comment names an exception must raise it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
        comments = {t.start[0]: t.string for t in tokenize.generate_tokens(io.StringIO(block).readline) if t.type == tokenize.COMMENT}
        namespace, raising = {}, 0
        for statement in ast.parse(block).body:
            code = compile(ast.Module([statement], []), "README.md", "exec")
            names = re.findall(r"\b[A-Z]\w*(?:Error|Exceeded)\b", comments.get(statement.end_lineno, ""))
            if not names:
                exec(code, namespace)
                continue
            with pytest.raises(tuple(getattr(markov, n, None) or getattr(builtins, n) for n in names)):
                exec(code, namespace)
            raising += 1
        assert raising == 1  # classify(1, 10**96, max_nodes=10)
