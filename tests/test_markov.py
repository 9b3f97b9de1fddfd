"""Solver, mutation and enumeration tests for the squared equations."""

import ast
import copy
import decimal
import json
import pickle
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
import oracles
from fwpp import abelian, adjacency, cli, markov, planes


def all_nodes(a, bound):
    return markov.enumerate_tree(a, bound).nodes


def slot_mutations(u, a):
    """The mutation of the solution ``u`` at each slot in turn: :func:`oracles.mutate`
    of ``u`` with that slot's entry moved last."""
    return [oracles.mutate((*(u[j] for j in range(3) if j != k), u[k]), a) for k in range(3)]


class TestIsSolution:
    def test_known_solutions(self):
        assert markov.is_solution((1, 1, 1), 9)
        assert markov.is_solution((5, 20, 25), 1)

    def test_rejects(self):
        assert not markov.is_solution((1, 1, 1), 7)
        assert not markov.is_solution((0, 1, 1), 9)
        assert not markov.is_solution((1, 1, -1), 9)

    def test_the_solution_oracles_refuse_a_non_solution(self):
        for oracle in (oracles.mutate, oracles.is_initial, oracles.sorted_solution):
            with pytest.raises(ValueError, match=r"^\(1, 1, 2\) does not solve the equation with a=9$"):
                oracle((1, 1, 2), 9)


class TestMutate:
    def test_examples(self):
        assert oracles.mutate((1, 1, 1), 9) == (1, 1, 4)
        assert oracles.mutate((1, 1, 2), 8) == (1, 1, 2)
        assert oracles.mutate((1, 4, 25), 9) == (1, 4, 1)

    def test_involution_on_enumerated_nodes(self):
        for a in golden.SOLVABLE_PARAMETERS:
            for u in all_nodes(a, 500):
                assert markov.is_solution(oracles.mutate(u, a), a)
                assert oracles.mutate(oracles.mutate(u, a), a) == u

    def test_norm_law(self):
        for a in golden.SOLVABLE_PARAMETERS:
            for u in all_nodes(a, 500):
                image = markov.norm(oracles.mutate(u, a))
                if u[2] == u[0] + u[1]:
                    assert image == markov.norm(u)
                elif u[2] < u[0] + u[1]:
                    assert image > markov.norm(u)
                else:
                    assert image < markov.norm(u)

    def test_gcd_invariance(self):
        for a in golden.SOLVABLE_PARAMETERS:
            for u in all_nodes(a, 2000):
                g = gcd(gcd(u[0], u[1]), u[2])
                for m in slot_mutations(u, a):
                    assert markov.is_solution(m, a) and gcd(gcd(m[0], m[1]), m[2]) == g

    def test_tree_neighbors_of_1_4_25(self):
        got = {oracles.sorted_solution(m, 9) for m in slot_mutations((1, 4, 25), 9)}
        assert got == {(1, 1, 4), (1, 25, 169), (4, 25, 841)}

    def test_fixed_point_retained(self):
        got = {oracles.sorted_solution(m, 8) for m in slot_mutations((1, 1, 2), 8)}
        assert got == {(1, 2, 9), (1, 1, 2)}

    def test_slots_agree_with_the_sorting_oracle(self):
        u = (1, 4, 5)
        got = [oracles.sorted_solution(m, 5) for m in slot_mutations(u, 5)]
        assert got == [oracles.play(u, 5, k) for k in range(3)]
        assert {(1, 5, 9), (4, 5, 81)} <= set(got)


class TestInitialSolutions:
    @pytest.mark.parametrize("a,expected", sorted(golden.INITIAL_TRIPLES.items()))
    def test_table(self, a, expected):
        assert markov.initial_solutions(a) == tuple(sorted(expected))

    def test_empty_parameters(self):
        assert markov.initial_solutions(7) == ()
        for a in range(10, 51):
            assert markov.initial_solutions(a) == ()

    def test_matches_brute_scan(self):
        for a in range(1, 12):
            assert set(markov.initial_solutions(a)) == oracles.brute_initial_triples(a, 70)

    def test_is_initial(self):
        assert oracles.is_initial((1, 1, 1), 9)
        assert not oracles.is_initial((1, 1, 4), 9)
        assert oracles.is_initial((3, 6, 9), 2)
        with pytest.raises(ValueError, match="ascendingly sorted"):
            oracles.is_initial((4, 1, 1), 9)

    def test_a_root_off_its_equation_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setitem(markov.REDUCED_ROOTS, 8, (1, 1, 3))
        with pytest.raises(markov.InvariantError, match=r"^initial triple \(2, 2, 6\) does not solve the equation with a=4$"):
            markov.initial_solutions(4)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            markov.initial_solutions(0)


class TestEnumerateTree:
    def test_figures_exact(self):
        for a, fig in golden.TREE_FIGURES.items():
            bound = max(markov.norm(u) for u in fig["nodes"]) + 1
            tree = markov.enumerate_tree(a, bound, depth_bound=fig["depth"])
            assert set(tree.nodes) == set(fig["nodes"])
            assert set(map(frozenset, tree.edges)) == {frozenset(e) for e in fig["edges"]}

    def test_norm_bound_truncation(self):
        tree = markov.enumerate_tree(5, 10)
        assert tree.nodes == ((1, 4, 5),)
        tree = markov.enumerate_tree(6, 500)
        assert (3, 8, 121) in tree.nodes and (2, 25, 243) in tree.nodes

    def test_deep_path_for_a9(self):
        tree = markov.enumerate_tree(9, 40000)
        assert (25, 169, 37636) in tree.nodes
        path = [(1, 1, 1), (1, 1, 4), (1, 4, 25), (1, 25, 169), (25, 169, 37636)]
        for x, y in zip(path, path[1:]):
            assert (min(x, y), max(x, y)) in tree.edges

    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    def test_matches_brute_scan(self, a):
        assert set(all_nodes(a, 200)) == oracles.brute_solutions(a, 200)

    def test_forest_split_matches_scaling(self):
        tree = markov.enumerate_tree(3, 3000)
        comps = {}
        for x, y in tree.edges:
            comps.setdefault(gcd(gcd(x[0], x[1]), x[2]), set()).update((x, y))
        assert set(comps) == {2, 3}

    def test_norms_increase_away_from_roots(self):
        for a in golden.SOLVABLE_PARAMETERS:
            tree = markov.enumerate_tree(a, 3000)
            for x, y in tree.edges:
                shallow, deep = sorted((x, y), key=lambda u: tree.depths[u])
                assert tree.depths[deep] == tree.depths[shallow] + 1
                assert markov.norm(deep) > markov.norm(shallow)
                assert shallow == oracles.play(deep, a, 2)

    def test_dot_and_json(self):
        tree = markov.enumerate_tree(9, 40)
        dot = "".join(cli._tree_dot(tree))
        assert '"(1,1,1)" -- "(1,1,4)"' in dot
        obj = json.loads("".join(cli._tree_json(tree)))
        assert obj["nodes"][0]["u"] == ["1", "1", "1"]
        assert [e for e in tree.edges if (1, 1, 4) in e] == [((1, 1, 1), (1, 1, 4)), ((1, 1, 4), (1, 4, 25))]


class TestModularFacts:
    def test_a9_entries_are_1_mod_3(self):
        for u in all_nodes(9, 3000):
            assert all(x % 3 == 1 for x in u)

    def test_a8_arranged_mod_4_and_8(self):
        for u in all_nodes(8, 3000):
            v = tuple(u[i] for i in markov.admissible_arrangements(u, 8)[0])
            assert tuple(x % 4 for x in v) == (1, 1, 2)
            assert tuple(x % 8 for x in v) == (1, 1, 2)

    def test_a6_arranged_mod_3_and_6(self):
        for u in all_nodes(6, 3000):
            v = tuple(u[i] for i in markov.admissible_arrangements(u, 6)[0])
            assert tuple(x % 3 for x in v) == (1, 2, 0)
            assert tuple(x % 6 for x in v) == (1, 2, 3)

    def test_a5_arranged_mod_5(self):
        for u in all_nodes(5, 3000):
            v = tuple(u[i] for i in markov.admissible_arrangements(u, 5)[0])
            assert v[2] % 5 == 0
            assert (v[0] % 5, v[1] % 5) in {(1, 4), (4, 1)}

    def test_pairwise_coprime_for_reduced(self):
        for a in sorted(markov.REDUCED_ROOTS):
            for u in all_nodes(a, 3000):
                assert gcd(u[0], u[1]) == gcd(u[0], u[2]) == gcd(u[1], u[2]) == 1


class TestScaling:
    def test_examples(self):
        examples = {(3, (3, 3, 3)): (3, 9), (1, (5, 20, 25)): (5, 5), (2, (4, 4, 8)): (4, 8), (9, (1, 1, 1)): (1, 9)}
        for (a, u), scaling in examples.items():
            assert markov.is_solution(u, a)
            scale = oracles.decompose(u, a)[3]
            assert (scale, a * scale) == scaling

    def test_reduced_class_is_always_reduced(self):
        for a in (1, 2, 3, 4):
            for u in all_nodes(a, 2000):
                assert a * oracles.decompose(u, a)[3] in markov.REDUCED_ROOTS

    def test_identities_on_small_sets(self):
        s4 = set(all_nodes(4, 800))
        s8 = set(all_nodes(8, 400))
        assert s4 == {tuple(2 * x for x in u) for u in s8}


class TestDecompose:
    def test_examples(self):
        assert oracles.decompose((1, 4, 25), 9) == ((1, 2, 5), (1, 1, 1), (0, 1, 2), 1)
        x, xi, perm, scale = oracles.decompose((1, 9, 2), 8)
        assert x == (1, 3, 1) and xi == (1, 1, 2) and scale == 1
        assert perm[2] == 2
        x, xi, perm, scale = oracles.decompose((4, 4, 8), 2)
        assert scale == 4 and xi == (1, 1, 2)

    def test_roundtrip_and_equation(self):
        for a in golden.SOLVABLE_PARAMETERS:
            for u in all_nodes(a, 2000):
                x, xi, perm, scale = oracles.decompose(u, a)
                assert all(u[perm[i]] == scale * xi[i] * x[i] ** 2 for i in range(3))
                coeff = a * scale * xi[0] * xi[1] * xi[2]
                lhs = sum(xi[i] * x[i] ** 2 for i in range(3))
                assert lhs * lhs == coeff * (x[0] * x[1] * x[2]) ** 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(golden.SOLVABLE_PARAMETERS), st.data())
def test_mutation_properties_random_nodes(a, data):
    nodes = all_nodes(a, 5000)
    u = data.draw(st.sampled_from(nodes))
    assert oracles.mutate(oracles.mutate(u, a), a) == u
    for k, m in enumerate(slot_mutations(u, a)):
        assert markov.is_solution(m, a)
        assert oracles.sorted_solution(m, a) == oracles.play(u, a, k)
        assert oracles.mutate(m, a) == (*(u[j] for j in range(3) if j != k), u[k])


def test_enumeration_deterministic():
    random.seed(0)
    first = markov.enumerate_tree(6, 5000)
    second = markov.enumerate_tree(6, 5000)
    assert first.nodes == second.nodes and first.edges == second.edges


def test_enumeration_cap():
    with pytest.raises(markov.EnumerationCapExceeded):
        markov.enumerate_tree(6, 10**6, max_nodes=4)
    tree = markov.enumerate_tree(6, 30, max_nodes=4)
    assert tree.nodes == ((1, 2, 3), (1, 3, 8), (2, 3, 25))
    assert markov.enumerate_tree(6, 11, max_nodes=0).nodes == ((1, 2, 3),)
    with pytest.raises(markov.EnumerationCapExceeded):
        markov.enumerate_tree(6, 12, max_nodes=0)
    # four roots of norm 27 to 50 and no child below 54: a tree of roots only never raises
    assert len(markov.enumerate_tree(1, 53, max_nodes=0).nodes) == 4


def test_a_node_reached_twice_is_an_invariant_error(monkeypatch):
    # (1, 1, 4) is the child of (1, 1, 1): as a second root it is reached again one level down
    monkeypatch.setattr(markov, "initial_solutions", lambda a: ((1, 1, 1), (1, 1, 4)))
    with pytest.raises(markov.InvariantError, match="reached twice"):
        markov.enumerate_tree(9, 30)


def test_enumeration_cap_names_a_bound_past_the_str_digit_limit():
    with pytest.raises(markov.EnumerationCapExceeded) as info:
        markov.enumerate_tree(9, 10**4400, max_nodes=5)
    assert str(info.value) == f"more than 5 nodes below norm 1{'0' * 4400} for a=9"


@pytest.mark.parametrize("flags", [{"depth_bound": -1}, {"max_nodes": -1}, {"depth_bound": -3, "max_nodes": 10}])
def test_negative_bounds_are_refused(flags):
    with pytest.raises(ValueError, match="must be non-negative"):
        markov.enumerate_tree(9, 10**6, **flags)


def test_sorted_and_json_helpers():
    assert oracles.sorted_solution((1, 9, 2), 8) == (1, 2, 9)


def test_decimal_text_helpers():
    assert cli._row("%s,%s,%s", (1, 22, 333)) == "1,22,333"
    assert cli._row("%s\t%s", (4, 5)) == "4\t5"
    assert cli.integer("12") == cli.integer(12) == 12
    big = "7" * 5000
    assert cli.integer(big) == 7 * (10**5000 - 1) // 9
    assert markov._text(cli.integer(big)) == big
    for bad in ("x", "1e3", "7" * 5000 + "\n7", "-" + big + "x", "_" + big, big + "_", "7__" + big):
        with pytest.raises(ValueError):
            cli.integer(bad)


def walk_past_the_digit_limit():
    """Mutate the smallest entry from ``(1, 1, 1)`` (``a = 9``) until the largest
    passes 4,300 digits: the last two nodes of that walk, parent and child."""
    parent, child = None, (1, 1, 1)
    while child[2] < 10**4400:
        parent, child = child, oracles.play(child, 9, 0)
    return parent, child


def test_row_format_mixes_short_and_long_entries():
    long = 3 * 10**4500 + 7
    text = "3" + "0" * 4499 + "7"
    assert cli._row("%s,%s,%s", (5, long, 12)) == f"5,{text},12"
    assert cli._row("%s\t%s", (long, 1)) == f"{text}\t1"


#: 4,501 digits, past the 4,300 that ``str(int)`` writes by default, and its text
BIG, BIG_TEXT = 3 * 10**4500 + 7, "3" + "0" * 4499 + "7"


@pytest.mark.parametrize(
    "x",
    [12, -5, (1, 2, 3), (7,), [4, (5, 6)], Fraction(9, 4), Fraction(8), planes.SeriesId(1, 8, 3),
     planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3)), oracles.GeneratorMatrix(((1, 0, -1), (0, 1, -1))),
     adjacency.KStarData(1, 1, -3, 1, 1), planes.ClassifiedPlane(32, (1, 1, 2), (0, 1, 3), 8, (planes.SeriesId(1, 8, 3),)),
     "text", None, True],
    ids=repr,
)
def test_text_is_the_f_string_below_the_digit_limit(x):
    assert markov._text(x) == f"{x}" and markov._text(x, repr) == f"{x!r}"


BIG_MATRIX = f"DegreeMatrix(mu=1, u=({BIG_TEXT}, 1, 1), eta=(0, 0, 0))"


@pytest.mark.parametrize(
    "x, text, text_of_repr",
    [
        (BIG, BIG_TEXT, BIG_TEXT),
        (-BIG, f"-{BIG_TEXT}", f"-{BIG_TEXT}"),
        ((BIG, 1), f"({BIG_TEXT}, 1)", f"({BIG_TEXT}, 1)"),
        ((BIG,), f"({BIG_TEXT},)", f"({BIG_TEXT},)"),
        ([1, (BIG, 2)], f"[1, ({BIG_TEXT}, 2)]", f"[1, ({BIG_TEXT}, 2)]"),
        (Fraction(BIG, 2), f"{BIG_TEXT}/2", f"Fraction({BIG_TEXT}, 2)"),
        (Fraction(BIG), BIG_TEXT, f"Fraction({BIG_TEXT}, 1)"),
        (planes.DegreeMatrix(1, (BIG, 1, 1), (0, 0, 0)), BIG_MATRIX, None),
        (adjacency.KStarData(1, BIG, -BIG, 1, 1), f"KStarData(l1=1, l2={BIG_TEXT}, d0=-{BIG_TEXT}, d1=1, d2=1)", None),
        (planes.ClassifiedPlane(BIG + 2, (BIG, 1, 1), (0, 0, 0), 1, (planes.SeriesId(9, 1, 0),)),
         f"ClassifiedPlane(norm=3{'0' * 4499}9, u=({BIG_TEXT}, 1, 1), eta=(0, 0, 0), mu=1, "
         "all_series=(SeriesId(a=9, mu=1, eta=0),))", None),
    ],
    ids=["int", "negative", "pair", "one-tuple", "list", "fraction", "whole-fraction", "DegreeMatrix", "KStarData", "ClassifiedPlane"],
)
def test_text_past_the_digit_limit_is_written_in_full(x, text, text_of_repr):
    assert markov._text(x) == text and markov._text(x, repr) == (text_of_repr or text)


#: One of each record of the library, as the library builds it where it builds it.
RECORDS = {
    "MutationTree": lambda: markov.enumerate_tree(6, 10**4),
    "KAutomorphism": lambda: planes.isomorphism_witness(planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3)), planes.DegreeMatrix(8, (1, 1, 2), (1, 0, 3)))[0],
    "SeriesId": lambda: planes.SeriesId(1, 8, 3),
    "DegreeMatrix": lambda: planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3)),
    "ClassifiedPlane": lambda: planes.classify(1, 10**6)[-1],
    "SingularityReport": lambda: planes.singularity_report(planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3))),
    "KStarData": lambda: adjacency.KStarData(2, 6, -2, 1, 5),
    "AdjacentPair": lambda: adjacency.adjacent_partner(planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3)), 0),
    "GraphNode": lambda: adjacency.adjacency_graph(1, 8, 10**6).nodes[0],
    "GraphEdge": lambda: adjacency.adjacency_graph(1, 8, 10**6).edges[-1],
    "AdjacencyGraph": lambda: adjacency.adjacency_graph(1, 8, 10**6),
    "CensusEntry": lambda: adjacency.self_adjacency_census()[0],
}


def test_records_are_the_tuple_classes_of_the_library():
    defined = {name for module in (abelian, adjacency, markov, planes) for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__}
    assert defined == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_survive_pickle_and_copy(name):
    # pickle and copy rebuild a record from its fields, through the constructor and its checks
    x = RECORDS[name]()
    assert type(x).__name__ == name
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and type(y) is type(x)


def test_every_raised_message_formats_its_values_through_text():
    # a value past the int-to-str digit limit formatted any other way turns the raise into
    # that limit's ValueError: a defect then reads as an input error, a refusal loses its reason.
    # The rule holds for every value but an exception's own text, also for values that cannot
    # pass the limit (the indices i and j, a checked slot, a count, a bool or float entry):
    # one rule a scan can check costs a _text call at those few sites and changes no message.
    sites = 0
    for path in Path(markov.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise):
                continue
            for value in (v for s in ast.walk(node) if isinstance(s, ast.JoinedStr) for v in s.values if isinstance(v, ast.FormattedValue)):
                sites += 1
                through_text = isinstance(value.value, ast.Call) and ast.unparse(value.value.func) == "_text"
                assert (through_text or ast.unparse(value.value) == "exc") and value.conversion == -1 and value.format_spec is None, (
                    f"{path.name}:{node.lineno}: {{{ast.unparse(value.value)}}}"
                )
    assert sites > 100


def test_every_import_of_the_package_is_used():
    # a deleted function must not leave its imports behind; __init__ only binds the four modules, and __future__ imports are features
    imports = 0
    for path in Path(markov.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imports += 1
                    name = alias.asname or alias.name.partition(".")[0]
                    assert name in used, f"{path.name}:{node.lineno}: {name} is imported and never used"
    assert imports > 30


def test_tree_text_past_the_str_digit_limit():
    parent, child = walk_past_the_digit_limit()
    tree = oracles.tree_of(9, markov.norm(child), None, ((parent,), (child,)), (b"\1",))
    assert tree.edges == ((parent, child),)
    text = {u: [str(decimal.Decimal(c)) for c in u] for u in (parent, child)}
    assert len(text[child][2]) > 4300
    edge_line = f'  "({",".join(text[parent])})" -- "({",".join(text[child])})";'
    assert "".join(cli._tree_dot(tree)).splitlines()[-2] == edge_line
    obj = json.loads("".join(cli._tree_json(tree)))
    assert obj["edges"] == [[text[parent], text[child]]]
    assert [n["u"] for n in obj["nodes"]] == [text[parent], text[child]]


def test_json_tree_is_written_one_node_or_edge_per_part():
    tree = markov.enumerate_tree(1, 10**12)
    parts = list(cli._tree_json(tree))
    # one part per root, node and edge, and seven more: the head, two keys, three "]" and the closing "}"
    assert len(tree.nodes) > 100 and len(parts) == len(tree.roots) + len(tree.nodes) + len(tree.edges) + 7
    assert max(map(len, parts)) < 200


@pytest.mark.parametrize("digits", [50, 5000])
@pytest.mark.parametrize("text", ["{}\n", " +{} ", "-{}", "7_{}", "\u0661{}"])
def test_decimal_int_reads_the_int_grammar_at_every_length(digits, text):
    """Past the str-to-int digit limit a string reads as ``int()`` reads it below."""
    body = "7" * digits
    expected = decimal.Decimal(text.format(body).replace("_", "").replace("\u0661", "1"))
    assert cli.integer(text.format(body)) == int(expected)


def test_arrangement_errors():
    with pytest.raises(ValueError):
        markov.admissible_arrangements((1, 3, 5), 8)  # no even entry
    with pytest.raises(ValueError):
        markov.admissible_arrangements((1, 2, 3), 7)  # not a reduced class


@pytest.mark.parametrize("u, reduced_a", [((2, 4, 6), 8), ((2, 4, 6), 6), ((5, 10, 3), 5)])
def test_an_ambiguous_arrangement_is_bad_input(u, reduced_a):
    # entries not pairwise coprime, as no tree node has, can fit the shape in orders giving different triples
    with pytest.raises(ValueError, match=r"^ambiguous arrangement of \(.*\) in class \d$"):
        markov.admissible_arrangements(u, reduced_a)


class TestAgainstSortingOracles:
    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    @pytest.mark.parametrize("depth_bound", [None, 4])
    def test_tree_matches_sorting_bfs(self, a, depth_bound, bound=10**24):
        tree = markov.enumerate_tree(a, bound, depth_bound)
        nodes, edges, depths = oracles.bfs_tree(a, bound, depth_bound)
        assert tree.nodes == nodes and tree.edges == edges and tree.depths == depths

    @pytest.mark.parametrize("digits", [48, 96])
    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    @pytest.mark.parametrize("depth_bound", [None, 4])
    def test_tree_matches_sorting_bfs_at_longer_bounds(self, a, depth_bound, digits):
        self.test_tree_matches_sorting_bfs(a, depth_bound, 10**digits)

    @pytest.mark.parametrize("digits", [48, 96])
    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    def test_node_cap_raises_at_the_same_size_at_longer_bounds(self, a, digits):
        self.test_node_cap_raises_at_the_same_size(a, 10**digits)

    @pytest.mark.parametrize("a", golden.SOLVABLE_PARAMETERS)
    def test_node_cap_raises_at_the_same_size(self, a, bound=10**24):
        n = len(markov.enumerate_tree(a, bound).nodes)
        for cap in (1, n // 2, n - 1):
            with pytest.raises(markov.EnumerationCapExceeded):
                markov.enumerate_tree(a, bound, max_nodes=cap)
            with pytest.raises(markov.EnumerationCapExceeded):
                oracles.bfs_tree(a, bound, max_nodes=cap)
        assert markov.enumerate_tree(a, bound, max_nodes=n).nodes == oracles.bfs_tree(a, bound, max_nodes=n)[0]


def capped_nodes(enumerate_fn, *args):
    """The nodes that ``enumerate_fn(*args)`` returns, or ``None`` when its node cap raises."""
    try:
        tree = enumerate_fn(*args)
    except markov.EnumerationCapExceeded:
        return None
    return tree.nodes if isinstance(tree, markov.MutationTree) else tree[0]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((*golden.SOLVABLE_PARAMETERS, 7, 10)),
    st.integers(0, 60).flatmap(lambda digits: st.integers(0, 10**digits)),
    st.none() | st.integers(0, 8),
)
@example(9, 0, None)
@example(9, 10**60, 8)
def test_tree_matches_sorting_bfs_at_any_bound(a, bound, depth_bound):
    """Bound 0 lies below every root; at ``max_nodes`` n - 1, n, and 0 for one root, the caps raise alike."""
    nodes, edges, depths = oracles.bfs_tree(a, bound, depth_bound)
    tree = markov.enumerate_tree(a, bound, depth_bound)
    assert (tree.nodes, tree.edges, tree.depths) == (nodes, edges, depths)
    caps = {len(nodes) - 1, len(nodes)} | ({0} if len(tree.roots) == 1 else set())
    for cap in sorted(caps - {-1}):
        expected = capped_nodes(oracles.bfs_tree, a, bound, depth_bound, cap)
        assert capped_nodes(markov.enumerate_tree, a, bound, depth_bound, cap) == expected
        assert (expected is None) == (cap < len(nodes) and len(nodes) > len(tree.roots))


def arrangement_outcome(fn, u, reduced_a):
    try:
        return fn(u, reduced_a)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(markov.REDUCED_ROOTS)), st.tuples(*[st.integers(1, 40)] * 3))
def test_arrangements_match_tuple_oracle(reduced_a, u):
    assert arrangement_outcome(markov.admissible_arrangements, u, reduced_a) == arrangement_outcome(
        oracles.tuple_admissible_arrangements, u, reduced_a
    )


@pytest.mark.parametrize("reduced_a", (*sorted(markov.REDUCED_ROOTS), 7))
@pytest.mark.parametrize("u", [(1, 1, 1), (1, 1, 2), (2, 2, 1), (5, 1, 1), (1, 2, 3), (6, 6, 6), (2, 6, 3), (10, 10, 5)])
def test_arrangements_match_tuple_oracle_on_ties(reduced_a, u):
    assert arrangement_outcome(markov.admissible_arrangements, u, reduced_a) == arrangement_outcome(
        oracles.tuple_admissible_arrangements, u, reduced_a
    )
