"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All comparisons are exact; there are no tolerances anywhere.

The expected values are pinned in ``golden.py``; the handful of spots
where its data corrects a misprint in the source tables are justified in
comments there, next to the corrected entries.
"""

import json
import subprocess
import sys
from math import gcd

import golden
import oracles
from fwpp import adjacency, markov, planes
from fwpp.planes import DegreeMatrix


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def tree_nodes(a, bound):
    return markov.enumerate_tree(a, bound).nodes


def test_criterion_1_initial_triples():
    for a, expected in golden.INITIAL_TRIPLES.items():
        assert markov.initial_solutions(a) == tuple(sorted(expected))
    assert markov.initial_solutions(7) == ()
    for a in range(10, 51):
        assert markov.initial_solutions(a) == ()
    report(1, "initial triples match the table for a = 1..50, exact")


def test_criterion_2_mutation_trees():
    highlighted = {
        9: [(25, 169, 37636), (25, 841, 187489), (4, 841, 28561)],
        8: [(9, 121, 8450), (9, 50, 3481)],
        6: [(25, 392, 57963)],
        5: [(81, 1849, 744980)],
    }
    for a, fig in golden.TREE_FIGURES.items():
        bound = max(markov.norm(u) for u in fig["nodes"]) + 1
        tree = markov.enumerate_tree(a, bound, depth_bound=fig["depth"])
        assert set(tree.nodes) == set(fig["nodes"])
        assert set(map(frozenset, tree.edges)) == {frozenset(e) for e in fig["edges"]}
        for node in highlighted[a]:
            assert node in tree.nodes
        # the same nodes and edges appear in the pure norm-bounded tree
        full = markov.enumerate_tree(a, bound)
        assert set(fig["nodes"]) <= set(full.nodes)
        assert {frozenset(e) for e in fig["edges"]} <= set(map(frozenset, full.edges))
    report(2, "all four figure trees reproduced node- and edge-exactly")


def test_criterion_3_scaling_identities():
    bound = 10**4
    sets = {a: set(tree_nodes(a, bound // 1)) for a in (1, 2, 3, 4)}
    reduced = {a: set(tree_nodes(a, bound)) for a in (5, 6, 8, 9)}

    def scaled(b, a):
        return {tuple(b * x for x in u) for u in reduced[a] if b * markov.norm(u) <= bound}

    assert sets[4] == scaled(2, 8)
    parts3 = (scaled(3, 9), scaled(2, 6))
    assert sets[3] == parts3[0] | parts3[1] and not parts3[0] & parts3[1]
    parts2 = (scaled(4, 8), scaled(3, 6))
    assert sets[2] == parts2[0] | parts2[1] and not parts2[0] & parts2[1]
    parts1 = (scaled(9, 9), scaled(8, 8), scaled(6, 6), scaled(5, 5))
    union1 = set().union(*parts1)
    assert sets[1] == union1
    assert sum(len(p) for p in parts1) == len(union1)
    report(3, "scaling identities hold as disjoint set equalities up to norm 10^4")


def test_criterion_4_square_decomposition():
    expected_xi = {9: (1, 1, 1), 8: (1, 1, 2), 6: (1, 2, 3), 5: (1, 1, 5)}
    for a in golden.SOLVABLE_PARAMETERS:
        for u in tree_nodes(a, 10**4):
            assert markov.is_solution(u, a)
            x, xi, perm, scale = oracles.decompose(u, a)
            reduced = a * scale
            assert xi == expected_xi[reduced]
            # each entry is exactly its cofactor times a square, scaled, in its arranged slot
            assert all(u[perm[i]] == scale * xi[i] * x[i] ** 2 for i in range(3))
            coeff2 = reduced * xi[0] * xi[1] * xi[2]
            lhs = sum(xi[i] * x[i] ** 2 for i in range(3))
            assert lhs * lhs == coeff2 * (x[0] * x[1] * x[2]) ** 2
            if a in markov.REDUCED_ROOTS:
                assert gcd(u[0], u[1]) == gcd(u[0], u[2]) == gcd(u[1], u[2]) == 1
    report(4, "every enumerated solution decomposes with the stated cofactors, exactly")


def test_criterion_5_classification_table():
    seen = set()
    for a in (1, 2, 3, 4, 5, 6, 8, 9):
        for c in planes.classify(a, 400):
            seen.update(str(s) for s in c.all_series)
    assert seen == set(golden.ALL_SERIES) and len(seen) == 24

    exception_sets = [
        (9, (1, 1, 1), (2, 5, 8), 1),
        (9, (1, 1, 4), (2, 5, 8), 2),
        (8, (1, 1, 2), (1, 3, 5, 7), 3),
    ]
    for mu, u, etas, class_count in exception_sets:
        members = [DegreeMatrix(mu, u, (0, 1, e)) for e in etas]
        canon = {planes.adjust(m) for m in members}
        assert len(canon) == class_count
        for m1 in members:
            for m2 in members:
                same = planes.adjust(m1) == planes.adjust(m2)
                assert (planes.isomorphism_witness(m1, m2) is not None) == same
    # the published sporadic sets are isomorphic pairwise
    for mu, u, group in [
        (9, (1, 1, 1), (2, 5, 8)),
        (9, (1, 1, 4), (5, 8)),
        (8, (1, 1, 2), (3, 7)),
    ]:
        mats = [DegreeMatrix(mu, u, (0, 1, e)) for e in group]
        for m1 in mats:
            for m2 in mats:
                assert planes.isomorphism_witness(m1, m2) is not None

    assert len(golden.MATRIX_TABLE) == 21
    for rows, mu, u, eta in golden.MATRIX_TABLE:
        assert oracles.corresponds(DegreeMatrix(mu, u, eta), oracles.GeneratorMatrix(rows))
    report(5, "24 series, sporadic merges verified, 21 table pairs correspond")


def test_criterion_5_merges_are_exactly_the_isomorphisms():
    # classify merges the etas of a tree node by equal adjusted forms; at
    # every node of every family, each eta presentation must be isomorphic
    # to its class's matrix and distinct classes must not be, by the closed
    # form witness and by the brute-force oracle alike
    checked = 0
    for a, mu in planes.SERIES_FAMILIES:
        bound = 10**5 if a == 1 else 10**8
        by_node = {}
        for c in planes.classify(a, bound, mu=mu):
            by_node.setdefault(c.matrix.u, []).append(c)
        tree = markov.enumerate_tree(mu * a, bound // mu)
        assert len(by_node) == len(tree.nodes)
        for u_sorted in tree.nodes:
            u = tuple(u_sorted[i] for i in markov.admissible_arrangements(u_sorted, mu * a)[0])
            classes = by_node[u]
            for eta in planes.SERIES_ETAS[(a, mu)]:
                q = DegreeMatrix(mu, u, (0, 1 % mu, eta % mu))
                [home] = [c for c in classes if planes.SeriesId(a, mu, eta) in c.all_series]
                assert planes.isomorphism_witness(q, home.matrix) is not None
                assert oracles.brute_isomorphism_witness(q, home.matrix) is not None
                checked += 1
            for x in classes:
                for y in classes:
                    if x is not y:
                        assert planes.isomorphism_witness(x.matrix, y.matrix) is None
                        assert oracles.brute_isomorphism_witness(x.matrix, y.matrix) is None
    assert checked == 571
    report(5, f"every merge of {checked} node presentations is an isomorphism, and only those")


def test_criterion_6_singularity_tables():
    checked = 0
    seen_series = set()
    for a in (1, 2, 3, 4, 5, 6, 8, 9):
        for c in planes.classify(a, 10**4):
            q = c.matrix
            x = oracles.decompose(q.u, q.mu * a)[0]
            rep = planes.singularity_report(q)
            key = str(c.series)
            seen_series.add(key)
            multipliers = tuple(rep.iota[k] // x[k] for k in range(3))
            assert all(rep.iota[k] == multipliers[k] * x[k] for k in range(3))
            assert multipliers in golden.CONSTELLATIONS[key]
            expected_flags = (False, False, True) if key in golden.ONE_T_SERIES else (True, True, True)
            assert rep.is_t == expected_flags
            p = oracles.generator_of(q)
            for k in range(3):
                group_route = planes.local_gorenstein_index(q, k)
                assert group_route == oracles.brute_gorenstein_index(q, k)
                assert group_route == oracles.cone_gorenstein_index(*p.cone_of_fixed_point(k))
                assert rep.res_curves[k] == oracles.cone_resolution_count(*p.cone_of_fixed_point(k))
                assert rep.cl[k] % group_route == 0
                assert group_route % x[k] == 0
            checked += 1
    assert seen_series == set(golden.ALL_SERIES)
    for sid in golden.ONE_T_SERIES:
        assert sid in seen_series
    report(6, f"constellations, T-flags and dual index and curve count oracles agree on {checked} planes")


def test_criterion_7_worked_examples():
    for example in golden.WORKED_EXAMPLES:
        mu, u = example["mu"], example["u"]
        matrices = [DegreeMatrix(mu, u, (0, 1, eta)) for (eta, *_r) in example["members"]]
        for q, (eta, rows, iota, flags, curves) in zip(matrices, example["members"]):
            printed = oracles.GeneratorMatrix(rows)
            assert oracles.corresponds(q, printed)
            computed = oracles.generator_of(q)
            assert computed.weights == planes.fake_weights_of_degree_matrix(q)
            rep = planes.singularity_report(q)
            assert rep.iota == iota and rep.is_t == flags and rep.res_curves == curves
        got_pairs = {
            (i, j)
            for i in range(len(matrices))
            for j in range(i + 1, len(matrices))
            if planes.isomorphism_witness(matrices[i], matrices[j]) is not None
        }
        assert got_pairs == set(example["isomorphic_pairs"])
    report(7, "worked examples: weights, indices, flags, curve counts, verdicts exact")


def test_criterion_8_adjacency():
    # pair invariants over every classified node below norm 1000
    pairs_checked = 0
    for a in (1, 2, 3, 4, 5, 6, 8, 9):
        for c in planes.classify(a, 1000):
            w = planes.fake_weights_of_degree_matrix(c.matrix)
            for slot in range(3):
                if not planes.singularity_report(c.matrix).is_t[slot]:
                    continue
                pair = adjacency.adjacent_partner(c.matrix, slot)
                w2 = planes.fake_weights_of_degree_matrix(pair.q2)
                assert planes.degree(w2) == planes.degree(w) == oracles.kstar_degree(pair.kstar) == a
                rest = [w[j] for j in range(3) if j != slot]
                mutated = tuple(sorted(rest + [(rest[0] + rest[1]) ** 2 // w[slot]]))
                assert tuple(sorted(w2)) == mutated
                back = oracles.adjacency_neighbors(pair.q2)
                back_self = [p for p in back if p.q2 == pair.q2]  # pair.q2 is adjusted
                if pair.q2 == c.matrix:
                    assert back_self
                else:
                    assert any(other.q2 == c.matrix for other in back if other not in back_self)
                pairs_checked += 1

    # figure reproductions
    for fig in (
        golden.ADJ_FIGURE_2_3_1,
        golden.ADJ_FIGURE_1_6_1,
        golden.ADJ_FIGURE_1_5_1,
        golden.ADJ_FIGURE_1_5_23,
        golden.ADJ_FIGURE_1_8,
        golden.ADJ_FIGURE_1_8_1,
        golden.ADJ_FIGURE_1_8_5,
    ):
        mu = fig["mu"]
        bound = max(mu * sum(u) for (u, _) in fig["nodes"])
        graph = adjacency.adjacency_graph(fig["a"], mu, bound)
        labels = {(n.plane.u, n.plane.eta[2]): n.plane for n in graph.nodes}
        assert all(key in labels for key in fig["nodes"])
        wanted = {labels[key] for key in fig["nodes"]}
        expected = {frozenset((labels[x], labels[y])): jump for (x, y, jump) in fig["edges"]}
        got = {
            frozenset((e.a, e.b)): e.jump
            for e in graph.edges
            if e.a in wanted and e.b in wanted
        }
        assert got == expected

    # the (1-8-1) and (1-8-5) components never touch T(1,8) or each other
    bound = max(8 * sum(u) for (u, _) in golden.ADJ_FIGURE_1_8["nodes"])
    graph = adjacency.adjacency_graph(1, 8, bound)
    for e in graph.edges:
        eta_pair = {e.a.eta[2], e.b.eta[2]}
        assert eta_pair <= {3, 7} or eta_pair == {1} or eta_pair == {5}

    # T(2,4) splits into two components
    comps = oracles.graph_components(adjacency.adjacency_graph(2, 4, 200))
    assert len(comps) == 2
    for comp in comps:
        assert len({m.eta[2] for m in comp}) == 1

    # graph isomorphisms with the mutation trees on the truncation
    chains = {9: [(9, 1), (3, 3)], 8: [(8, 1), (4, 2)], 6: [(6, 1), (3, 2), (2, 3), (1, 6)], 5: [(5, 1), (1, 5)]}
    for reduced, families in chains.items():
        tree = markov.enumerate_tree(reduced, 300)
        tree_edges = {frozenset((x, y)) for x, y in tree.edges}
        for (a, mu) in families:
            graph = adjacency.adjacency_graph(a, mu, 300 * mu)
            keep = {n.plane for n in graph.nodes if n.all_t}
            assert {tuple(sorted(k.u)) for k in keep} == set(tree.nodes)
            got = {
                frozenset((tuple(sorted(e.a.u)), tuple(sorted(e.b.u))))
                for e in graph.edges
                if e.a in keep and e.b in keep
            }
            assert got == tree_edges
    report(8, f"adjacency invariants on {pairs_checked} pairs, figures and tree isomorphisms exact")


def test_criterion_9_self_adjacency_census():
    census = adjacency.self_adjacency_census()
    assert len(census) == 16
    assert {str(e.series) for e in census} == golden.SELF_ADJACENT_SERIES
    non_toric = {str(e.series) for e in census if e.kstar.non_toric}
    assert len(non_toric) == 6
    assert non_toric == golden.NON_TORIC_SELF_ADJACENT
    report(9, "census: the 16 self-adjacent series and their 6 non-toric members, exact")


def test_criterion_10_cli_determinism():
    commands = [
        ["solve", "--a", "9", "--bound", "40000"],
        ["solve", "--a", "1", "--bound", "500", "--format", "json"],
        ["solve", "--a", "7", "--bound", "100"],
        ["classify", "--a", "2", "--bound", "100", "--format", "json"],
        ["classify", "--a", "1", "--bound", "300", "--format", "md"],
        ["sing", '{"mu":8,"u":["1","1","2"],"eta":[0,1,3]}'],
        ["sing", '{"mu":5,"u":["1","4","5"],"eta":[0,1,1]}', "--format", "md"],
        ["graph", "--a", "1", "--mu", "8", "--bound", "1200"],
        ["graph", "--a", "2", "--mu", "4", "--bound", "200", "--format", "json"],
        ["iso", '{"mu":8,"u":["1","1","2"],"eta":[0,1,3]}', '{"mu":8,"u":["1","1","2"],"eta":[0,1,7]}'],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "fwpp.cli", *argv],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode in (0, 1)
        if "json" in argv:
            parsed = json.loads(runs[0].stdout)
            assert json.loads(json.dumps(parsed)) == parsed
    report(10, f"{len(commands)} CLI invocations byte-identical across reruns")
