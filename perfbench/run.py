"""fwpp benchmark: seeded workloads run through ``fwpp.cli.main``.

    python3 perfbench/run.py --workload {sweep,graph,query} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run repeats the workload's fixed
operation list, each repetition in a fresh interpreter (``worker.py``), for
about ``--seconds`` seconds: at least three repetitions, or with
``--trace 1`` at least one untraced and one traced.  Every output is checked
by the benchmark's own arithmetic.  With ``--trace 0`` it reports the
end-to-end metrics (medians over repetitions); with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics.  Times are scaled to a reference machine speed measured by the
worker (see ``worker.py`` and ``README.md``).  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Per-operation rows (time against digit count) and the traced spans go to
``perfbench/out/``.

``--record-reference`` rewrites the byte-identity reference of the default
seed; ``--tiny`` runs cut-down ladders for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 1
MIN_REPS = 3
HARD_LIMIT_S = 170.0
DIGIT_BANDS = ((1, 3), (4, 6), (7, 12), (13, 24), (25, 48), (49, 97))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")


class BenchError(Exception):
    pass


def run_rep(ops_json: str, checked: bool, traced: bool, timeout: float, spans_path: str | None = None) -> dict:
    argv = [sys.executable, "-s", os.path.join(HERE, "worker.py"), ROOT, str(int(checked)), str(int(traced))]
    if spans_path:
        argv.append(spans_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(argv, input=ops_json, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a repetition did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(ops: list, trace: bool, seconds: float, spans_path: str) -> tuple[list, list]:
    """Repetitions until the next one would end after ``seconds``, at least
    ``MIN_REPS``; with tracing, untraced and traced repetitions alternate,
    at least one of each.  The first repetition runs the full checker; the
    later ones must reproduce its output digests byte for byte."""
    ops_json = json.dumps(ops)
    start = time.monotonic()
    plain, traced, longest = [], [], 0.0
    while True:
        elapsed = time.monotonic() - start
        done = len(traced) >= 1 if trace else len(plain) >= MIN_REPS
        if done and elapsed + longest > seconds:
            break
        want_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        rep = run_rep(ops_json, not plain, want_trace, HARD_LIMIT_S - elapsed,
                      spans_path if want_trace and not traced else None)
        longest = max(longest, time.monotonic() - t0)
        (traced if want_trace else plain).append(rep)
    return plain, traced


def percentile_summary(values: list) -> tuple[float, float, int]:
    p50 = statistics.median(values)
    p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
    return p50, p90, sum(1 for v in values if v > p90)


def end_to_end(ops: list, reps: list, ok_ratio: float) -> tuple[dict, dict, list]:
    """Every time of a repetition is divided by its median speed, so times
    are scaled to the reference speed.  The latency percentiles pool every
    (repetition, operation) sample."""
    scaled = [[lat / r["speed"] for lat in r["latencies"]] for r in reps]
    pooled = [1000.0 * lat for rep in scaled for lat in rep]
    p50, p90, beyond = percentile_summary(pooled)
    op_ms = [1000.0 * statistics.median(rep[i] for rep in scaled) for i in range(len(ops))]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] / r["speed"] for r in reps), "s"),
        "wall_s": (statistics.median(r["wall_s"] / r["speed"] for r in reps), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
        "ok_ratio": (ok_ratio, "1"),
    }
    raw_setup = statistics.median(r["setup_s"] for r in reps)
    raw_wall = statistics.median(r["wall_s"] for r in reps)
    notes = {
        "setup_s": f"median of {len(reps)} fresh interpreters; unscaled {raw_setup:.6g} s",
        "wall_s": f"median of {len(reps)} repetitions of {len(ops)} operations; unscaled {raw_wall:.6g} s",
        "op_p50_ms": f"n={len(pooled)} samples ({len(ops)} operations x {len(reps)} repetitions)",
        "op_p90_ms": f"n={len(pooled)} samples, {beyond} above p90",
        "peak_rss_mb": f"ru_maxrss, median of {len(reps)} workers",
        "ok_ratio": "1 - fail_ratio",
    }
    return metrics, notes, op_ms


def per_layer(plain: list, traced: list) -> dict:
    units = tracing.metric_units()
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        if unit == "ms":
            values = [r["layers"][name] / r["speed"] for r in traced]
        else:
            values = [r["layers"][name] for r in traced]
            if len(set(values)) != 1:
                raise BenchError(f"count {name} differs between traced repetitions: {values}")
        metrics[name] = (statistics.median(values), unit)
    overhead = (statistics.median(r["wall_s"] / r["speed"] for r in traced)
                - statistics.median(r["wall_s"] / r["speed"] for r in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def digit_rows(ops: list, op_ms: list) -> tuple[list, list]:
    rows = [{"id": op["id"], "cmd": op["cmd"], "a": op.get("a"), "mu": op.get("mu"),
             "digits": op["digits"], "latency_ms": ms} for op, ms in zip(ops, op_ms)]
    bands = []
    for lo, hi in DIGIT_BANDS:
        sel = [r["latency_ms"] for r in rows if lo <= r["digits"] <= hi]
        if sel:
            bands.append({"digits": f"{lo}-{hi}", "ops": len(sel), "median_ms": statistics.median(sel),
                          "max_ms": max(sel), "total_ms": sum(sel)})
    return rows, bands


def reference_mismatches(workload: str, rep: dict) -> set:
    """Operations whose stdout differs from the default seed's reference."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return set(range(len(rep["digests"])))
    with open(path) as fh:
        want = json.load(fh)["digests"]
    if len(want) != len(rep["digests"]):
        return set(range(len(rep["digests"])))
    return {i for i, (got, ref) in enumerate(zip(rep["digests"], want)) if ref is not None and got != ref}


def count_failures(args, reps: list) -> tuple[list, int, int]:
    """Failed (repetition, operation) pairs: the checker's verdicts on the
    first repetition, operations that raised, digests of the later ones that
    differ from the first, and on the default seed, digests that differ from
    the reference.  Also returns how many of the failed pairs returned a
    wrong output, that is, failed without raising."""
    failures = [f for r in reps for f in r["failures"]]
    bad = [{f[0] for f in r["failures"]} for r in reps]
    first = reps[0]["digests"]
    for i, rep in enumerate(reps[1:], 1):
        differ = {j for j, (got, want) in enumerate(zip(rep["digests"], first)) if got != want}
        failures += [[j, ["stdout differs from the first repetition"]] for j in sorted(differ)]
        bad[i] |= differ
    if args.seed == DEFAULT_SEED and not args.tiny:
        for i, rep in enumerate(reps):
            differ = reference_mismatches(args.workload, rep)
            failures += [[j, ["stdout differs from the recorded reference"]] for j in sorted(differ)]
            bad[i] |= differ
    wrong = sum(len(b - set(r["raised"])) for b, r in zip(bad, reps))
    return failures, sum(len(b) for b in bad), wrong


def record_reference():
    """Records the output digests of the default seed.  An operation that
    raises there gets no digest (``null``): the checker alone judges it, so
    that a later fix does not read as a changed output."""
    for workload in gen.WORKLOADS:
        ops = gen.build(workload, DEFAULT_SEED)
        rep = run_rep(json.dumps(ops), True, False, HARD_LIMIT_S)
        wrong = [f for f in rep["failures"] if f[0] not in rep["raised"]]
        if wrong:
            raise BenchError(f"{workload}: not recording a reference over failed checks {wrong[:3]}")
        digests = [None if i in rep["raised"] else d for i, d in enumerate(rep["digests"])]
        with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w") as fh:
            json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=0)
            fh.write("\n")
        print(f"{workload}: recorded {len(ops) - len(rep['raised'])} digests; "
              f"raised, so not recorded: {rep['raised']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="cut-down ladders, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running worker before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "fwpp", "__init__.py")):
        print(f"error: no fwpp sources under {ROOT}/src", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "fwpp"), quiet=1)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        return report(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def report(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.jsonl.gz")
    ops = gen.build(args.workload, args.seed, args.tiny)
    plain, traced = run_reps(ops, bool(args.trace), args.seconds, spans_path)
    reps = plain + traced
    failures, failed, wrong = count_failures(args, reps)
    attempted = len(ops) * len(reps)
    ok_ratio = 1.0 - failed / attempted
    e2e, notes, op_ms = end_to_end(ops, plain, ok_ratio)
    rows, bands = digit_rows(ops, op_ms)
    metrics = per_layer(plain, traced) if args.trace else e2e

    speeds = [r["speed"] for r in reps]
    print(f"# workload {args.workload}, seed {args.seed}, {len(ops)} operations, "
          f"{len(plain)} untraced + {len(traced)} traced repetitions, closed loop, 1 client, 1 thread; "
          f"machine speed factor {min(speeds):.3f}..{max(speeds):.3f} (times are divided by it)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "computed by the benchmark" if name in tracing.COMPUTED else "")
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}\t{note}")
    print(f"{args.workload}\tfail_ratio\t{failed / attempted:.6g}\t1\t{failed} of {attempted} operations")
    for band in bands:
        print(f"{args.workload}\tdigits {band['digits']}\t{band['ops']} ops\t"
              f"median {band['median_ms']:.3f} ms\ttotal {band['total_ms']:.1f} ms")
    for op_id, problems in failures[:20]:
        print(f"FAILED op {op_id}: {'; '.join(problems)}", file=sys.stderr)

    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "repetitions": len(reps),
                   "speed": speeds, "unscaled_wall_s": [r["wall_s"] for r in reps],
                   "fail_ratio": failed / attempted, "failures": failures[:200],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **metrics}.items()},
                   "computed": list(tracing.COMPUTED) if args.trace else [],
                   "digit_bands": bands, "operations": rows}, fh, indent=1)
    # "correct": no operation returned a wrong output; "failed" also counts
    # the operations that raised, which have no output to judge
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
