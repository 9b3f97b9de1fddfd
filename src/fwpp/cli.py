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
Only this module reads or writes text; the library computes.  Every command writes through
:func:`_write`, ``CHUNK`` text parts at a time, JSON one node, edge or class per part, so no output
is held whole.  ``markov._text`` and the helpers here write integers of any size, lifting no limit.

:func:`build_parser` builds one parser per process and returns that same
shared object on every call, :func:`main` included; callers must not mutate it.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import io
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from . import adjacency, markov, planes
from .markov import _text

USAGE_ERROR = 2
OUTPUT_ERROR = 3
DEFAULT_NORM_BOUND = 10**6
DEFAULT_MAX_NODES = 4096
#: Text parts joined per write to stdout: no output is held whole, and a long table takes few writes.
CHUNK = 4096


def integer(x) -> int:
    """``int(x)`` at any length, for every integer flag and JSON entry; argparse names the type in its refusal.  Past the digit
    limit, a string is read under the grammar ``int()`` applies below it: whitespace, a sign, single ``_`` between digits."""
    try:
        return int(x)
    except ValueError:  # past the str-to-int digit limit, or not an integer
        text = x.strip() if isinstance(x, str) else ""
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not digits.replace("_", "").isdecimal() or "__" in f"_{digits}_":
            raise
        return int(decimal.Decimal(text.replace("_", "")))


_JSON = json.JSONDecoder(parse_int=integer)  # reads each JSON number at any length, as the integer flags are read


def _read_matrix_arg(value: str) -> planes.DegreeMatrix:
    """The degree matrix of the JSON text ``value`` (stdin for ``-``): ``mu``, ``u`` and ``eta`` of integers or integer strings
    of any length.  A missing ``mu`` or ``u``, a ``u`` or ``eta`` not an array and any other entry (a float, a bool) are refused."""
    if value == "-" and sys.stdin is None:  # descriptor 0 was closed before start-up
        raise OSError("stdin is closed")
    text = sys.stdin.read() if value == "-" else value
    try:
        if text.startswith("\ufeff"):  # json.loads's check, which the decoder leaves to its caller
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _JSON.decode(text)
        if not isinstance(obj, dict):  # an index into any other JSON value fails in Python's words
            raise ValueError("expected a JSON object with mu, u and eta")
        if missing := [key for key in ("mu", "u") if key not in obj]:
            raise ValueError(f"expected a JSON object with mu, u and eta, missing {_text(' and '.join(missing))}")
        if not isinstance(obj["u"], list) or not isinstance(obj.get("eta", []), list):
            raise ValueError("degree matrix columns u and eta must be JSON arrays")
        for x in (obj["mu"], *obj["u"], *obj.get("eta", ())):
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise ValueError(f"degree matrix entries must be integers, got {_text(x, repr)}")
        mu, u, eta = integer(obj["mu"]), tuple(map(integer, obj["u"])), tuple(map(integer, obj.get("eta", (0, 0, 0))))
        return planes.DegreeMatrix(mu, u, tuple(e % mu for e in eta))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"not a degree matrix: {exc}") from exc


def _decimal_join(values, sep: str = ",") -> str:
    """``sep``-joined decimal text of a sequence of integers of any size."""
    try:
        return sep.join(map(str, values))
    except ValueError:  # an entry past the int-to-str digit limit
        return sep.join(map(_text, values))


def _json_strs(values) -> str:
    """The JSON array of the ``str`` of each of ``values``, integers of any size among them."""
    return '["' + _decimal_join(values, '","') + '"]' if values else "[]"


def _json_list(elements: Iterable[str]) -> Iterator[str]:
    """``[``, the JSON texts ``elements`` separated by ``,``, and ``]``, one element per part."""
    elements = iter(elements)
    yield "[" + next(elements, "")
    yield from map(",".__add__, elements)
    yield "]"


def _dot(name: str, nodes: Iterable[str], edges: Iterable[str]) -> Iterator[str]:
    """Graphviz ``graph name``, one line per part: each of the ``nodes`` and then the ``edges`` as one statement."""
    yield f"graph {name} {{\n"
    yield from (f"  {statement};\n" for statement in itertools.chain(nodes, edges))
    yield "}\n"


def _tree_json(tree: markov.MutationTree) -> Iterator[str]:
    """The tree as compact JSON, one node or edge per part."""
    text, depths = {u: _json_strs(u) for u in tree.nodes}, tree.depths
    depth_bound = "null" if tree.depth_bound is None else _text(tree.depth_bound)
    yield f'{{"a":{tree.a},"normBound":"{_text(tree.norm_bound)}","depthBound":{depth_bound},"roots":'
    yield from _json_list(text[r] for r in tree.roots)
    yield ',"nodes":'
    yield from _json_list(f'{{"u":{t},"norm":"{_text(sum(u))}","depth":{depths[u]}}}' for u, t in text.items())
    yield ',"edges":'
    yield from _json_list(f"[{text[x]},{text[y]}]" for x, y in tree.edges)
    yield "}"


def _tree_dot(tree: markov.MutationTree) -> Iterator[str]:
    """The tree in Graphviz dot, one line per part."""
    label = {u: f'"({_decimal_join(u)})"' for u in tree.nodes}
    return _dot(f"mutation_tree_{tree.a}", label.values(), (f"{label[x]} -- {label[y]}" for x, y in tree.edges))


def _report_json(report: planes.SingularityReport) -> str:
    """The report as one compact JSON object."""
    is_t = ",".join(map(str, report.is_t)).lower()
    d = ",".join("null" if x is None else f'"{_text(x)}"' for x in report.d)
    return (f'{{"cl":{_json_strs(report.cl)},"iota":{_json_strs(report.iota)},"isT":[{is_t}],'
            f'"d":[{d}],"resCurves":[{_decimal_join(report.res_curves)}]}}')


def _class_json(c: planes.ClassifiedPlane, with_report: bool) -> str:
    """The class as one compact JSON object, with its singularity report when ``with_report`` is set."""
    series = c.all_series[0]
    merged = f',"mergedSeries":{_json_strs(c.all_series)}' if len(c.all_series) > 1 else ""
    report = f',"report":{_report_json(planes.singularity_report(c))}' if with_report else ""
    return (f'{{"series":"{series}","mu":{_text(c.mu)},"u":{_json_strs(c.u)},"eta":[{_decimal_join(c.eta)}],'
            f'"weights":{_json_strs(c.weights)},"degree":"{series.a}"{merged}{report}}}')


def _label(q: planes.DegreeMatrix | planes.ClassifiedPlane) -> str:
    """Graph node label ``(u0,u1,u2; eta2)`` of an adjusted matrix or a class; ``(u0,u1,u2)`` at ``mu = 1``."""
    return f"({_decimal_join(q.u)}{'' if q.mu == 1 else f'; {q.eta[2]}'})"


def _graph_json(graph: adjacency.AdjacencyGraph) -> Iterator[str]:
    """The graph as compact JSON, one node or edge per part."""

    def node(n: adjacency.GraphNode) -> str:
        q, kstar = n.plane, n.self_kstar
        return (f'{{"label":"{_label(q)}","series":{_json_strs(q.all_series)},"u":{_json_strs(q.u)},'
                f'"eta":[{_decimal_join(q.eta)}],"selfAdjacent":{str(kstar is not None).lower()},'
                f'"nonToricSelf":{str(kstar is not None and kstar.non_toric).lower()},"allT":{str(n.all_t).lower()}}}')

    yield f'{{"a":{graph.a},"mu":{graph.mu},"normBound":"{_text(graph.norm_bound)}","nodes":'
    yield from _json_list(map(node, graph.nodes))
    yield ',"edges":'
    yield from _json_list(f'{{"from":"{_label(e.a)}","to":"{_label(e.b)}","jump":{str(e.jump).lower()}}}' for e in graph.edges)
    yield ',"selfAdjacent":'
    yield from _json_list(f'"{_label(n.plane)}"' for n in graph.nodes if n.self_kstar is not None)
    yield "}"


def _graph_dot(graph: adjacency.AdjacencyGraph) -> Iterator[str]:
    """The graph in Graphviz dot, one line per part."""

    def node(n: adjacency.GraphNode) -> str:
        kstar = n.self_kstar
        attrs = "" if kstar is None else ' [peripheries=2, comment="non-toric self-adjacency"]' if kstar.non_toric else " [peripheries=2]"
        return f'"{_label(n.plane)}"{attrs}'

    edges = (f'"{_label(e.a)}" -- "{_label(e.b)}"{" [color=red]" if e.jump else ""}' for e in graph.edges)
    return _dot(f"adjacency_{graph.a}_{graph.mu}", map(node, graph.nodes), edges)


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
        _write(itertools.chain(_tree_json(tree), ["\n"]) if args.format == "json" else _tree_dot(tree))
    else:
        rows = sorted(tree.nodes, key=sum)  # stable: by norm, then as the nodes are sorted
        if args.format == "md":  # initial iff a root: a child's largest entry mutates to a smaller one, a root's does not
            header = ["| u | norm | initial |\n|---|---|---|\n"]
            _write(itertools.chain(header, (f"| ({_decimal_join(u)}) | {_text(sum(u))} | {'yes' if u in tree.roots else 'no'} |\n" for u in rows)))
        else:
            _write(_decimal_join((*u, sum(u)), "\t") + "\n" for u in rows)
    return 0


def cmd_classify(args) -> int:
    if args.report and args.format != "json":
        raise ValueError("--report needs --format json")
    classes = planes.classify(args.a, args.bound, max_nodes=args.max_nodes)
    if args.format == "json":
        _write(itertools.chain(_json_list(_class_json(c, args.report) for c in classes), ["\n"]))
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
        _write("\t".join((f"z({k})", _text(report.cl[k]), _text(report.iota[k]), "+" if report.is_t[k] else "-",
                          "-" if report.d[k] is None else _text(report.d[k]), _text(report.res_curves[k]))) + "\n" for k in range(3))
        return 0
    # the head of md and json, the one place a sing matrix is labelled: by the series of its adjusted form
    weights = planes.fake_weights_of_degree_matrix(q)
    deg = planes.degree(weights)
    adjusted = planes.adjust(q) if deg.denominator == 1 else None
    series = None if adjusted is None else planes._series_of(adjusted, deg.numerator)
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
                f'"weights":{_json_strs(weights)},"degree":"{_text(deg)}","report":{_report_json(report)}}}\n'])
    return 0


def cmd_graph(args) -> int:
    graph = adjacency.adjacency_graph(args.a, args.mu, args.bound, max_nodes=args.max_nodes)
    _write(itertools.chain(_graph_json(graph), ["\n"]) if args.format == "json" else _graph_dot(graph))
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
    p_classify.add_argument("--report", action="store_true", help="attach singularity reports; needs --format json")
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
    except OSError as exc:  # stdin or stdout closed, or stdout full
        return _fail(exc, OUTPUT_ERROR, sys.stdout)
    except ValueError as exc:
        return _fail(exc, USAGE_ERROR)
    except markov.EnumerationCapExceeded as exc:
        return _fail(f"{exc}; raise --max-nodes to continue", USAGE_ERROR)


def _fail(message, code: int, *broken) -> int:
    """Write ``error: message`` to stderr, never to stdout, and return ``code``.  The descriptor of each stream of
    ``broken``, and of stderr if the line fails, takes os.devnull, and with it what is left to the last flush."""
    try:
        if sys.stderr is not None:  # with file=None, print would write the line to stdout
            print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:  # stderr is closed or full as well
        broken += (sys.stderr,)
    for stream in filter(None, broken):
        with contextlib.suppress(io.UnsupportedOperation):  # an in-memory stream, as under capture, has no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
