"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from fwpp import adjacency, cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_emits_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_spec_names_match_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.metric_units())
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)


def _outputs(workload):
    for op in gen.build(workload, 5, tiny=True):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if op["cmd"] == "census":
                yield op, 0, adjacency.self_adjacency_census()
            else:
                yield op, cli.main(op["argv"]), out.getvalue()


def _corrupt(op, out):
    """A plausible but wrong output for each kind of operation."""
    cmd, fmt = op["cmd"], op.get("format")
    if cmd == "solve" and fmt == "tsv":
        lines = out.splitlines(keepends=True)
        return "".join(lines[:-1])  # a missing row
    if cmd == "classify" and fmt == "json":
        obj = json.loads(out)
        obj[-1]["weights"][0] = str(int(obj[-1]["weights"][0]) + 1)
        return json.dumps(obj)
    if cmd == "graph" and fmt == "json":
        obj = json.loads(out)
        if not obj["edges"]:
            return None
        obj["edges"][0]["jump"] = not obj["edges"][0]["jump"]
        return json.dumps(obj)
    if cmd == "sing" and fmt == "json":
        obj = json.loads(out)
        obj["report"]["iota"][0] = str(int(obj["report"]["iota"][0]) + 1)
        return json.dumps(obj)
    if cmd == "iso" and fmt == "json" and op["expect_iso"]:
        obj = json.loads(out)
        obj["automorphism"]["a"] += 1
        return json.dumps(obj)
    return None


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_checker_accepts_real_and_flags_corrupted_output(workload):
    corrupted = 0
    for op, rc, out in _outputs(workload):
        if op["cmd"] == "census":
            assert check.check_census(out) == []
            assert check.check_census(out[1:])
            continue
        assert check.check(op, rc, out) == [], op["argv"]
        if out:
            assert check.check(op, rc, out[: len(out) // 2]), ("truncated output passed", op["argv"])
        bad = _corrupt(op, out)
        if bad is not None:
            assert check.check(op, rc, bad), ("corrupted output passed", op["argv"])
            corrupted += 1
        assert check.check(op, 99, out), "a wrong exit code passed"
    assert corrupted > 0


def test_checker_flags_a_wrong_jump_mark_in_dot_output():
    op = {"cmd": "graph", "a": 1, "mu": 5, "bound": 1000, "format": "dot", "expect_rc": 0}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["graph", "--a", "1", "--mu", "5", "--bound", "1000", "--format", "dot"])
    out = out.getvalue()
    assert " [color=red];" in out and check.check(op, rc, out) == []
    lines = out.splitlines(keepends=True)
    jump = next(i for i, line in enumerate(lines) if " [color=red];" in line)
    plain = next(i for i, line in enumerate(lines) if " -- " in line and "color" not in line)
    for i, fix in ((jump, lambda s: s.replace(" [color=red];", ";")),
                   (plain, lambda s: s.replace(";", " [color=red];"))):
        bad = lines[:i] + [fix(lines[i])] + lines[i + 1:]
        assert check.check(op, rc, "".join(bad)), ("wrong jump mark passed", lines[i])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(workload):
    first = json.dumps(gen.build(workload, 7))
    assert json.dumps(gen.build(workload, 7)) == first
    assert json.dumps(gen.build(workload, 8)) != first
    assert len(gen.build(workload, 7)) >= 100


@pytest.mark.xfail(strict=True, reason="known defect: mu=0 raises ZeroDivisionError instead of exit code 2")
def test_mu_zero_matrix_is_refused():
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["sing", '{"mu":0,"u":["1","2","3"],"eta":[0,0,0]}']) == 2
