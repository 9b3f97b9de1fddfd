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
Every command writes through :func:`_write`, ``CHUNK`` text parts at a time, and JSON is text
from each type's ``to_json``, one node, edge or class per part, so no output is held whole.  The
helpers of :mod:`fwpp.markov` write every integer of output and error messages, lifting no limit.

:func:`build_parser` builds one parser per process and returns that same
shared object on every call, :func:`main` included; callers must not mutate it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable

from . import adjacency, markov, planes
from .markov import _decimal_join, _json_list, _json_strs, _text

USAGE_ERROR = 2
OUTPUT_ERROR = 3
DEFAULT_NORM_BOUND = 10**6
DEFAULT_MAX_NODES = 4096
#: Text parts joined per write to stdout: no output is held whole, and a long table takes few writes.
CHUNK = 4096
_JSON = json.JSONDecoder(parse_int=markov._decimal_int)  # reads each JSON number at any length, as the integer flags are read


def _read_matrix_arg(value: str) -> planes.DegreeMatrix:
    text = sys.stdin.read() if value == "-" else value
    try:
        if text.startswith("\ufeff"):  # json.loads's check, which the decoder leaves to its caller
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return planes.DegreeMatrix.from_json_obj(_JSON.decode(text))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"not a degree matrix: {exc}") from exc


def integer(text: str) -> int:
    """``int(text)`` at any length, for every integer flag; argparse names the type in its refusal."""
    return markov._decimal_int(text)


def _write(parts: Iterable[str]) -> None:
    """Write the text ``parts`` to stdout, ``CHUNK`` per write.

    A stdout with a binary ``buffer`` takes each chunk encoded, written again until every byte
    is taken: an unbuffered stream may take a write short, and its text layer would drop the rest.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is not None:
        sys.stdout.flush()  # what the text layer holds goes first
    parts = iter(parts)
    while chunk := list(itertools.islice(parts, CHUNK)):
        if buffer is None:
            sys.stdout.write("".join(chunk))
            continue
        data = memoryview("".join(chunk).encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[buffer.write(data):]


class _Parser(argparse.ArgumentParser):
    """A parser whose ``--help`` goes through :func:`_write`, so a failed write reaches :func:`main`
    (argparse's own print ignores an ``OSError``); with no stdout it prints to stderr as argparse does."""

    def print_help(self, file=None):
        if file is None and sys.stdout is not None:
            _write([self.format_help()])
        else:
            super().print_help(file)


def cmd_solve(args) -> int:
    tree = markov.enumerate_tree(args.a, args.bound, args.depth, max_nodes=args.max_nodes)
    if args.format in ("json", "dot"):
        _write(itertools.chain(tree.to_json(), ["\n"]) if args.format == "json" else tree.to_dot())
    else:
        rows = sorted(tree.nodes, key=sum)  # stable: by norm, then as the nodes are sorted
        if args.format == "md":  # initial iff a root: a child's largest entry mutates to a smaller one, a root's does not
            header = ["| u | norm | initial |\n|---|---|---|\n"]
            _write(itertools.chain(header, (f"| ({_decimal_join(u)}) | {_text(sum(u))} | {'yes' if u in tree.roots else 'no'} |\n" for u in rows)))
        else:
            _write(_decimal_join((*u, sum(u)), "\t") + "\n" for u in rows)
    return 0


def cmd_classify(args) -> int:
    classes = planes.classify(args.a, args.bound, max_nodes=args.max_nodes)
    if args.format == "json":
        _write(itertools.chain(_json_list(c.to_json(args.report) for c in classes), ["\n"]))
    else:
        md = args.format == "md"
        header = ["| series | u | eta | weights | degree |\n|---|---|---|---|---|\n"] if md else []
        row = "| {} | ({}) | ({}) | ({}) | {} |\n" if md else "{}\t{}\t{}\t{}\t{}\n"
        _write(itertools.chain(header, (row.format(c.series, *map(_decimal_join, (c.u, c.eta, c.weights)), args.a) for c in classes)))
    return 0


def cmd_sing(args) -> int:
    q = _read_matrix_arg(args.matrix)
    report = planes.singularity_report(q)
    if args.format == "tsv":  # from the report alone, with no head
        _write(
            "\t".join((f"z({k})", _text(report.cl[k]), _text(report.iota[k]), "+" if report.is_t[k] else "-",
                       "-" if report.d[k] is None else _text(report.d[k]), _text(report.res_curves[k]))) + "\n"
            for k in range(3)
        )
        return 0
    # the head of md and json, the one place a sing matrix is labelled: by the series of its adjusted form
    weights = planes.fake_weights_of_degree_matrix(q)
    deg = planes.degree(weights)
    adjusted = planes.adjust(q) if deg.denominator == 1 else None
    series = None if adjusted is None else planes._series_label(adjusted, deg.numerator)
    if args.format == "md":  # one row: the matrix as given, its label and its report
        torsion = q.mu > 1
        group = f"Z + Z/{_text(q.mu)}" if torsion else "Z"
        matrix = f"[{_decimal_join(q.u)}]" + (f"/[{_decimal_join(q.eta)}]" if torsion else "")
        wz = planes.anticanonical_class(q)
        signs = ",".join("+" if flag else "-" for flag in report.is_t)
        label = series if adjusted == q else "-"  # json labels the class of any input, md only an adjusted one: ROADMAP item 1
        _write(["| ID | Cl(Z) | Q | w_Z | (iota_0,iota_1,iota_2) | T | res curves |\n|---|---|---|---|---|---|---|\n"
                f"| {label} | {group} | {matrix} | ({_decimal_join(wz if torsion else wz[:1], ', ')}) | "
                f"({_decimal_join(report.iota)}) | ({signs}) | ({_decimal_join(report.res_curves)}) |\n"])
    else:  # one line: the matrix as given, its label at an integral degree, weights, degree and report
        member = "" if series is None else f',"series":"{series}"'
        _write([f'{{"mu":{_text(q.mu)},"u":{_json_strs(q.u)},"eta":[{_decimal_join(q.eta)}]{member},'
                f'"weights":{_json_strs(weights)},"degree":"{_text(deg)}","report":{report.to_json()}}}\n'])
    return 0


def cmd_graph(args) -> int:
    graph = adjacency.adjacency_graph(args.a, args.mu, args.bound, max_nodes=args.max_nodes)
    _write(itertools.chain(graph.to_json(), ["\n"]) if args.format == "json" else graph.to_dot())
    return 0


def cmd_iso(args) -> int:
    witness = planes.isomorphism_witness(_read_matrix_arg(args.first), _read_matrix_arg(args.second))
    if witness is None:
        _write(['{"isomorphic":false}\n' if args.format == "json" else "not isomorphic\n"])
    else:
        phi, perm = witness
        a, c = _text(phi.a), _text(phi.c)
        if args.format == "json":
            _write([f'{{"isomorphic":true,"automorphism":{{"eps":{phi.eps},"a":{a},"c":{c}}},"columnPermutation":[{_decimal_join(perm)}]}}\n'])
        else:
            _write([f"isomorphic\tphi=(eps={phi.eps},a={a},c={c})\tperm={list(perm)}\n"])
    return 0 if witness is not None else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fwpp",
        description="Squared Markov equations, fake weighted projective planes and their adjacency graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def bounded(p):
        """The flags of the commands that enumerate: solve, classify and graph."""
        p.add_argument("--bound", type=integer, default=DEFAULT_NORM_BOUND, help="norm bound on the fake weight vector")
        p.add_argument("--max-nodes", type=integer, default=DEFAULT_MAX_NODES, help="abort when the enumeration grows past this many nodes")

    p_solve = sub.add_parser("solve", help="enumerate equation solutions up to a norm bound")
    p_solve.add_argument("--a", type=integer, required=True)
    p_solve.add_argument("--depth", type=integer, default=None, help="optional mutation-depth truncation")
    bounded(p_solve)
    p_solve.add_argument("--format", choices=("tsv", "json", "md", "dot"), default="tsv")
    p_solve.set_defaults(func=cmd_solve)

    p_classify = sub.add_parser("classify", help="list plane classes of one integral degree")
    p_classify.add_argument("--a", type=integer, required=True)
    p_classify.add_argument("--report", action="store_true", help="attach singularity reports (json format)")
    bounded(p_classify)
    p_classify.add_argument("--format", choices=("tsv", "json", "md"), default="tsv")
    p_classify.set_defaults(func=cmd_classify)

    p_sing = sub.add_parser("sing", help="singularity report for one degree matrix")
    p_sing.add_argument("matrix", help='degree matrix JSON, e.g. \'{"mu":8,"u":["1","1","2"],"eta":[0,1,3]}\'; "-" reads stdin')
    p_sing.add_argument("--format", choices=("json", "md", "tsv"), default="json")
    p_sing.set_defaults(func=cmd_sing)

    p_graph = sub.add_parser("graph", help="adjacency graph of one (degree, mu) family")
    p_graph.add_argument("--a", type=integer, required=True)
    p_graph.add_argument("--mu", type=integer, required=True)
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
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help printed, or a usage error reported
            code = 0 if exc.code in (0, None) else USAGE_ERROR
        else:
            if sys.stdout is None:  # descriptor 1 was closed before start-up
                raise OSError("stdout is closed")
            code = args.func(args)
        if sys.stdout is not None:  # with no stdout, argparse prints --help to stderr
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
