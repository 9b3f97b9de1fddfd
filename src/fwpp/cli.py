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
is held whole.  Each row and JSON record is one format call (:func:`_rows`), past the int-to-str digit limit again
from ``markov._text`` of its entries, lifting no limit; ``classify`` converts ``u`` and weights once per tree node.

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


def _row(template: str, values: tuple) -> str:
    """``template % values``: a whole row in one format call, ``%s`` for each of ``values``.  A row with an integer past the
    int-to-str digit limit is formatted again from the ``_text`` of each value."""
    try:
        return template % values
    except ValueError:  # an integer past the digit limit
        return template % tuple(map(_text, values))


def _rows(template: str, records: Iterable[tuple]) -> Iterator[str]:
    """:func:`_row` of each of ``records``, with no Python call per row below the digit limit."""
    for values in records:
        try:
            yield template % values
        except ValueError:
            yield _row(template, values)


def _triple_texts(triples: Iterable[tuple], open_: str = '["', sep: str = '","', close: str = '"]') -> Iterator[str]:
    """``open_``, the decimal entries of each of ``triples`` separated by ``sep``, and ``close`` (by default a JSON array of
    strings): text kept per node, so of exact size, where a ``%`` format keeps up to a quarter of slack."""
    for a, b, c in triples:
        try:
            yield f"{open_}{a}{sep}{b}{sep}{c}{close}"
        except ValueError:  # an integer past the digit limit
            yield f"{open_}{_text(a)}{sep}{_text(b)}{sep}{_text(c)}{close}"


def _json_list(elements: Iterator[str]) -> Iterator[str]:
    """``[``, the JSON texts ``elements`` separated by ``,``, and ``]``, one element per part, with no Python frame per part."""
    return itertools.chain(("[" + next(elements, ""),), map(",".__add__, elements), ("]",))


def _dot(name: str, nodes: Iterable[str], edges: Iterable[str]) -> Iterator[str]:
    """Graphviz ``graph name``, one line per part: each of the ``nodes`` and then the ``edges`` as one statement."""
    return itertools.chain((f"graph {name} {{\n",), (f"  {statement};\n" for statement in itertools.chain(nodes, edges)), ("}\n",))


def _tree_json(tree: markov.MutationTree) -> Iterator[str]:
    """The tree as compact JSON, one node or edge per part, each node's triple converted once."""
    text = dict(zip(tree.nodes, _triple_texts(tree.nodes)))
    depth_bound = "null" if tree.depth_bound is None else _text(tree.depth_bound)
    nodes = _rows('{"u":%s,"norm":"%s","depth":%s}', zip(text.values(), map(sum, tree.nodes), map(tree.depths.__getitem__, tree.nodes)))
    return itertools.chain(
        (f'{{"a":{_text(tree.a)},"normBound":"{_text(tree.norm_bound)}","depthBound":{depth_bound},"roots":',),
        _json_list(text[r] for r in tree.roots), (',"nodes":',), _json_list(nodes),
        (',"edges":',), _json_list(f"[{text[x]},{text[y]}]" for x, y in tree.edges), ("}",))


def _tree_dot(tree: markov.MutationTree) -> Iterator[str]:
    """The tree in Graphviz dot, one line per part."""
    label = dict(zip(tree.nodes, _triple_texts(tree.nodes, '"(', ",", ')"')))
    return _dot(f"mutation_tree_{_text(tree.a)}", label.values(), (f"{label[x]} -- {label[y]}" for x, y in tree.edges))


def _report_json(report: planes.SingularityReport) -> str:
    """The report as one compact JSON object."""
    d = ("null" if x is None else f'"{_text(x)}"' for x in report.d)
    return _row('{"cl":["%s","%s","%s"],"iota":["%s","%s","%s"],"isT":[%s,%s,%s],"d":[%s,%s,%s],"resCurves":[%s,%s,%s]}',
                (*report.cl, *report.iota, *(str(t).lower() for t in report.is_t), *d, *report.res_curves))


def _class_json(c: planes.ClassifiedPlane, with_report: bool, texts: tuple[str, str] | None = None) -> str:
    """The class as one compact JSON object, with its singularity report when ``with_report`` is set.  ``texts``, when
    given, are the JSON arrays of its ``u`` and of its weights, as :func:`_node_texts` shares them."""
    u, weights = texts or _triple_texts((c.u, c.weights))
    merged = ',"mergedSeries":["%s"]' % '","'.join(map(str, c.all_series)) if len(c.all_series) > 1 else ""
    report = f',"report":{_report_json(planes.singularity_report(c))}' if with_report else ""
    return _row('{"series":"%s","mu":%s,"u":%s,"eta":[%s,%s,%s],"weights":%s,"degree":"%s"%s%s}',
                (c.series, c.mu, u, *c.eta, weights, c.series.a, merged, report))


def _node_texts(classes: Iterable[planes.ClassifiedPlane], *triple: str) -> Iterator[tuple[planes.ClassifiedPlane, tuple[str, str]]]:
    """Each class with the :func:`_triple_texts` of its ``u`` and of its weights (``mu * u``), converted once per run of classes
    with equal ``u`` and ``mu``: the classes of one untied tree node, adjacent in :func:`planes.classify`'s order."""
    key = None
    for c in classes:
        if key != (c.u, c.mu):
            key, texts = (c.u, c.mu), tuple(_triple_texts((c.u, c.weights), *triple))
        yield c, texts


def _label(q: planes.DegreeMatrix | planes.ClassifiedPlane) -> str:
    """Graph node label ``(u0,u1,u2; eta2)`` of an adjusted matrix or a class; ``(u0,u1,u2)`` at ``mu = 1``."""
    return _row("(%s,%s,%s)", q.u) if q.mu == 1 else _row("(%s,%s,%s; %s)", (*q.u, q.eta[2]))


def _graph_json(graph: adjacency.AdjacencyGraph) -> Iterator[str]:
    """The graph as compact JSON, one node or edge per part."""

    def node(n: adjacency.GraphNode) -> str:
        q, kstar = n.plane, n.self_kstar
        return _row('{"label":"%s","series":["%s"],"u":["%s","%s","%s"],"eta":[%s,%s,%s],"selfAdjacent":%s,"nonToricSelf":%s,"allT":%s}',
                    (_label(q), '","'.join(map(str, q.all_series)), *q.u, *q.eta, str(kstar is not None).lower(),
                     str(kstar is not None and kstar.non_toric).lower(), str(n.all_t).lower()))

    return itertools.chain(
        (f'{{"a":{graph.a},"mu":{graph.mu},"normBound":"{_text(graph.norm_bound)}","nodes":',), _json_list(map(node, graph.nodes)),
        (',"edges":',), _json_list(f'{{"from":"{_label(e.a)}","to":"{_label(e.b)}","jump":{str(e.jump).lower()}}}' for e in graph.edges),
        (',"selfAdjacent":',), _json_list(f'"{_label(n.plane)}"' for n in graph.nodes if n.self_kstar is not None), ("}",))


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
            header, roots = ["| u | norm | initial |\n|---|---|---|\n"], tree.roots
            _write(itertools.chain(header, _rows("| (%s,%s,%s) | %s | %s |\n", ((*u, sum(u), "yes" if u in roots else "no") for u in rows))))
        else:
            _write(_rows("%s\t%s\t%s\t%s\n", ((*u, sum(u)) for u in rows)))
    return 0


def cmd_classify(args) -> int:
    if args.report and args.format != "json":
        raise ValueError("--report needs --format json")
    classes = planes.classify(args.a, args.bound, max_nodes=args.max_nodes)
    if args.format == "json":
        _write(itertools.chain(_json_list(_class_json(c, args.report, texts) for c, texts in _node_texts(classes)), ["\n"]))
    else:
        md = args.format == "md"
        header = ["| series | u | eta | weights | degree |\n|---|---|---|---|---|\n"] if md else []
        row = "| %s | (%s) | (%s,%s,%s) | (%s) | %s |\n" if md else "%s\t%s\t%s,%s,%s\t%s\t%s\n"
        _write(itertools.chain(header, _rows(row, ((c.series, u, *c.eta, w, args.a) for c, (u, w) in _node_texts(classes, "", ",", "")))))
    return 0


def cmd_sing(args) -> int:
    q = _read_matrix_arg(args.matrix)
    report = planes.singularity_report(q)
    if args.format == "tsv":  # from the report alone, with no head
        _write(_rows("z(%s)\t%s\t%s\t%s\t%s\t%s\n", ((k, report.cl[k], report.iota[k], "+" if report.is_t[k] else "-",
                                                         "-" if report.d[k] is None else report.d[k], report.res_curves[k]) for k in range(3))))
        return 0
    # the head of md and json, the one place a sing matrix is labelled: by the series of its adjusted form
    weights = planes.fake_weights_of_degree_matrix(q)
    deg = planes.degree(weights)
    adjusted = planes.adjust(q) if deg.denominator == 1 else None
    series = None if adjusted is None else planes._series_of(adjusted, deg.numerator)
    if args.format == "md":  # one row: the matrix as given, its label and its report
        torsion = q.mu > 1
        group = f"Z + Z/{_text(q.mu)}" if torsion else "Z"
        matrix = _row("[%s,%s,%s]/[%s,%s,%s]", (*q.u, *q.eta)) if torsion else _row("[%s,%s,%s]", q.u)
        wz = planes.anticanonical_class(q)
        signs = ",".join("+" if flag else "-" for flag in report.is_t)
        label = series if adjusted == q else "-"  # json labels the class of any input, md only an adjusted one: ROADMAP item 1
        _write(["| ID | Cl(Z) | Q | w_Z | (iota_0,iota_1,iota_2) | T | res curves |\n|---|---|---|---|---|---|---|\n",
                _row("| %s | %s | %s | (%s) | (%s,%s,%s) | (%s) | (%s,%s,%s) |\n",
                     (label, group, matrix, _row("%s, %s", wz) if torsion else wz[0], *report.iota, signs, *report.res_curves))])
    else:  # one line: the matrix as given, its label at an integral degree, weights, degree and report
        member = "" if series is None else f',"series":"{series}"'
        _write([_row('{"mu":%s,"u":["%s","%s","%s"],"eta":[%s,%s,%s]%s,"weights":["%s","%s","%s"],"degree":"%s","report":%s}\n',
                     (q.mu, *q.u, *q.eta, member, *weights, deg, _report_json(report)))])
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
        phi, perm = witness  # one row of the same values in either format
        row = ('{"isomorphic":true,"automorphism":{"eps":%s,"a":%s,"c":%s},"columnPermutation":[%s,%s,%s]}\n' if args.format == "json"
               else "isomorphic\tphi=(eps=%s,a=%s,c=%s)\tperm=[%s, %s, %s]\n")
        _write([_row(row, (phi.eps, phi.a, phi.c, *perm))])
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
