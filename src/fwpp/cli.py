"""Command line front end.

Subcommands::

    solve     enumerate solutions of one squared Markov type equation
    classify  list the plane classes of one integral degree
    sing      singularity report for a degree matrix (JSON on stdin or arg)
    graph     adjacency graph of one (degree, mu) family
    iso       isomorphism test for two degree matrices

Exit codes: 0 success (including empty results), 1 negative verdict from
``iso``, 2 usage or input errors, 3 an I/O error such as a closed or full
stdout, reported in one ``error:`` line.  JSON output writes free parts,
weights and orders as decimal strings so 64-bit consumers cannot truncate
them (``mu``, ``eta``, curve counts and ``iso``'s automorphism stay
numbers); every format prints integers of any size.  Output is byte-identical across runs.
While it writes JSON, :func:`main` lifts the process-wide ``int``-to-``str``
digit limit (``sys.set_int_max_str_digits``) and restores it afterwards.

:func:`build_parser` builds one parser per process and returns that same
shared object on every call, :func:`main` included; callers must not mutate it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import adjacency, markov, planes
from .markov import _decimal_join, _decimal_str

USAGE_ERROR = 2
OUTPUT_ERROR = 3
DEFAULT_NORM_BOUND = 10**6
DEFAULT_MAX_NODES = 4096


def _read_matrix_arg(value: str) -> planes.DegreeMatrix:
    text = sys.stdin.read() if value == "-" else value
    try:
        return planes.DegreeMatrix.from_json_obj(json.loads(text))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"not a degree matrix: {exc}") from exc


def integer(text: str) -> int:
    """``int(text)`` at any length, for ``--bound``, ``--depth`` and ``--max-nodes``; argparse names the type in its refusal."""
    return markov._decimal_int(text)


def _print_json(obj) -> None:
    """Print ``obj`` as compact JSON, with integers of any size as JSON numbers.

    Python 3.10.7 and later refuse to write an ``int`` of more than 4,300
    digits by default; that limit is lifted only while ``json.dumps`` runs.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj, separators=(",", ":"))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(text)


def cmd_solve(args) -> int:
    tree = markov.enumerate_tree(args.a, args.bound, args.depth, max_nodes=args.max_nodes)
    if args.format == "json":
        _print_json(tree.to_json_obj())
    elif args.format == "dot":
        sys.stdout.write(tree.to_dot())
    else:
        rows = sorted((markov.norm(u), u) for u in tree.nodes)
        if args.format == "md":
            lines = ["| u | norm | initial |\n|---|---|---|\n"]
            lines += [f"| ({_decimal_join(u)}) | {_decimal_str(n)} | {'yes' if u[2] <= u[0] + u[1] else 'no'} |\n" for n, u in rows]
        else:
            lines = [_decimal_join((*u, n), "\t") + "\n" for n, u in rows]
        sys.stdout.write("".join(lines))
    return 0


def cmd_classify(args) -> int:
    classes = planes.classify(args.a, args.bound, max_nodes=args.max_nodes)
    if args.format == "json":
        payload = [planes.plane_json_obj(c, with_report=args.report) for c in classes]
        _print_json(payload)
    else:
        row = "{}\t{}\t{}\t{}\t{}\n"
        lines = []
        if args.format == "md":
            lines.append("| series | u | eta | weights | degree |\n|---|---|---|---|---|\n")
            row = "| {} | ({}) | ({}) | ({}) | {} |\n"
        lines += [row.format(c.series, *map(_decimal_join, (c.matrix.u, c.matrix.eta, c.weights)), args.a) for c in classes]
        sys.stdout.write("".join(lines))
    return 0


def cmd_sing(args) -> int:
    q = _read_matrix_arg(args.matrix)
    report = planes.singularity_report(q)
    if args.format == "md":
        sys.stdout.write(planes.report_markdown([report]))
    elif args.format == "tsv":
        for k in range(3):
            d = _decimal_str(report.d[k]) if report.d[k] is not None else "-"
            cl, iota = _decimal_str(report.cl[k]), _decimal_str(report.iota[k])
            print(f"z({k})\t{cl}\t{iota}\t{'+' if report.is_t[k] else '-'}\t{d}\t{_decimal_str(report.res_curves[k])}")
    else:
        obj = q.to_json_obj()
        weights = planes.fake_weights_of_degree_matrix(q)
        deg = planes.degree(weights)
        if deg.denominator == 1:  # only integral degrees have a series label
            obj["series"] = str(planes._series_label(planes.adjust(q), deg.numerator))
        obj["weights"] = [_decimal_str(w) for w in weights]
        obj["degree"] = _decimal_join((deg.numerator, deg.denominator), "/") if deg.denominator > 1 else _decimal_str(deg.numerator)
        obj["report"] = report.to_json_obj()
        _print_json(obj)
    return 0


def cmd_graph(args) -> int:
    graph = adjacency.adjacency_graph(args.a, args.mu, args.bound, max_nodes=args.max_nodes)
    if args.format == "json":
        _print_json(graph.to_json_obj())
    else:
        sys.stdout.write(graph.to_dot())
    return 0


def cmd_iso(args) -> int:
    q1 = _read_matrix_arg(args.first)
    q2 = _read_matrix_arg(args.second)
    witness = planes.isomorphism_witness(q1, q2)
    if args.format == "json":
        obj = {"isomorphic": witness is not None}
        if witness is not None:
            phi, perm = witness
            obj["automorphism"] = {"eps": phi.eps, "a": phi.a, "c": phi.c}
            obj["columnPermutation"] = list(perm)
        _print_json(obj)
    elif witness is None:
        print("not isomorphic")
    else:
        phi, perm = witness
        print(f"isomorphic\tphi=(eps={phi.eps},a={_decimal_str(phi.a)},c={_decimal_str(phi.c)})\tperm={list(perm)}")
    return 0 if witness is not None else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwpp",
        description="Squared Markov equations, fake weighted projective planes and their adjacency graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def bounded(p):
        """The flags of the commands that enumerate: solve, classify and graph."""
        p.add_argument("--bound", type=integer, default=DEFAULT_NORM_BOUND, help="norm bound on the fake weight vector")
        p.add_argument("--max-nodes", type=integer, default=DEFAULT_MAX_NODES, help="abort when the enumeration grows past this many nodes")

    p_solve = sub.add_parser("solve", help="enumerate equation solutions up to a norm bound")
    p_solve.add_argument("--a", type=int, required=True)
    p_solve.add_argument("--depth", type=integer, default=None, help="optional mutation-depth truncation")
    bounded(p_solve)
    p_solve.add_argument("--format", choices=("tsv", "json", "md", "dot"), default="tsv")
    p_solve.set_defaults(func=cmd_solve)

    p_classify = sub.add_parser("classify", help="list plane classes of one integral degree")
    p_classify.add_argument("--a", type=int, required=True)
    p_classify.add_argument("--report", action="store_true", help="attach singularity reports (json format)")
    bounded(p_classify)
    p_classify.add_argument("--format", choices=("tsv", "json", "md"), default="tsv")
    p_classify.set_defaults(func=cmd_classify)

    p_sing = sub.add_parser("sing", help="singularity report for one degree matrix")
    p_sing.add_argument("matrix", help='degree matrix JSON, e.g. \'{"mu":8,"u":["1","1","2"],"eta":[0,1,3]}\'; "-" reads stdin')
    p_sing.add_argument("--format", choices=("json", "md", "tsv"), default="json")
    p_sing.set_defaults(func=cmd_sing)

    p_graph = sub.add_parser("graph", help="adjacency graph of one (degree, mu) family")
    p_graph.add_argument("--a", type=int, required=True)
    p_graph.add_argument("--mu", type=int, required=True)
    bounded(p_graph)
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.set_defaults(func=cmd_graph)

    p_iso = sub.add_parser("iso", help="isomorphism test for two degree matrices")
    p_iso.add_argument("first")
    p_iso.add_argument("second")
    p_iso.add_argument("--format", choices=("json", "tsv"), default="json")
    p_iso.set_defaults(func=cmd_iso)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if sys.stdout is None:  # descriptor 1 was closed before start-up
            raise OSError("stdout is closed")
        code = args.func(args)
        sys.stdout.flush()  # a full stdout fails here, not in the interpreter's last flush
        return code
    except OSError as exc:  # stdout closed or full: one error line, then os.devnull takes what is left to flush
        broken = [sys.stdout]
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr is closed or full as well
            broken.append(sys.stderr)
        for stream in filter(None, broken):
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return OUTPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except markov.EnumerationCapExceeded as exc:
        print(f"error: {exc}; raise --max-nodes to continue", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
