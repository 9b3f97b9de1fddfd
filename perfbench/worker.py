"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py <checkout root> <check 0|1> <trace 0|1>
[spans file]`` with the operation list as JSON on stdin.  The worker times
the import of ``fwpp`` and the building of the CLI parser (set-up), then
runs the operations one after another through ``fwpp.cli.main`` in this
process, one thread, each starting after the previous one returned.  With
``check 1`` each output is checked after its operation's clock has stopped;
every output is hashed either way.  The last stdout line is a JSON object
with the timings, check results and output digests.
"""

import statistics
import sys
import time


def _setup(root):
    src = root + "/src"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fwpp
    import fwpp.cli

    fwpp.cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not fwpp.__file__.startswith(src + "/"):
        raise SystemExit(f"fwpp was imported from {fwpp.__file__}, not from {src}")
    return fwpp, setup_s


#: Nominal time of one reference slice; ``speed`` is measured over nominal.
REFERENCE_SLICE_MS = 1.75
SLICE_EVERY_S = 0.1


def _reference_slice_ms():
    """A fixed pure-Python loop, timed: how fast the machine runs now.

    A shared 2-core VM (Intel Xeon) changed speed by up to 1.8x within
    minutes; slices taken between operations measure that drift so the
    reported times can be scaled to one reference speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return 1000.0 * (time.perf_counter() - t0)


def main():
    root, checked, traced = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    try:
        fwpp, setup_s = _setup(root)
    except ImportError as exc:
        raise SystemExit(f"cannot import fwpp from {root}/src: {exc}")

    import contextlib
    import hashlib
    import io
    import json
    import resource

    import check

    ops = json.load(sys.stdin)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(fwpp)
    cli, adjacency = fwpp.cli, fwpp.adjacency
    latencies, failures, raised, digests = [], [], [], []
    stdout_bytes = 0
    slices = [(time.perf_counter(), _reference_slice_ms())]
    for op in ops:
        if time.perf_counter() - slices[-1][0] >= SLICE_EVERY_S:
            slices.append((time.perf_counter(), _reference_slice_ms()))
        out = io.StringIO()
        rc, entries, crash = None, None, None
        if tracer is not None:
            tracer.op = op["id"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                if op["cmd"] == "census":
                    entries = adjacency.self_adjacency_census()
                    rc = 0
                else:
                    rc = cli.main(op["argv"])
            except Exception as exc:  # an operation that raises is a failed operation
                crash = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        latencies.append(t1 - t0)
        text = out.getvalue()
        stdout_bytes += len(text.encode())
        if entries is not None:
            text = check.census_text(entries)
        if crash is not None:
            raised.append(op["id"])
            problems = [f"raised {crash}"]
        elif not checked:
            problems = []
        elif entries is not None:
            problems = check.check_census(entries)
        else:
            problems = check.check(op, rc, text)
        if problems:
            failures.append([op["id"], problems[:3]])
        digests.append(hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()[:32])
    slices.append((time.perf_counter(), _reference_slice_ms()))
    result = {
        "setup_s": setup_s,
        "speed": statistics.median(ms for _, ms in slices) / REFERENCE_SLICE_MS,
        "latencies": latencies,
        "wall_s": sum(latencies),
        "failures": failures,
        "raised": raised,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(stdout_bytes)
        result["spans"] = len(tracer.span_start)
        if spans_path:
            tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
