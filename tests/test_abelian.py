"""Normal forms, cokernels and the arithmetic of Z + Z/mu."""

import ast
import re
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import fwpp
import golden
import oracles
from fwpp import abelian, planes
from fwpp.abelian import KAutomorphism
from conftest import child

small_entries = st.integers(min_value=-30, max_value=30)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def primitive(x, y):
    g = gcd(x, y)
    return x // g, y // g


@st.composite
def generator_matrices(draw, entry=25):
    """Valid 2x3 generator matrices: two primitive, independent columns and
    a third on a primitive ray inside the negative of their cone, which is
    every matrix whose columns positively span the plane.  Degenerate draws
    are repaired rather than rejected."""
    pairs = st.tuples(st.integers(-entry, entry), st.integers(-entry, entry))
    v0 = draw(pairs)
    v0 = primitive(*v0) if v0 != (0, 0) else (1, 0)
    v1 = draw(pairs)
    v1 = primitive(*v1) if v1[0] * v0[1] != v1[1] * v0[0] else (-v0[1], v0[0])
    alpha, beta = draw(st.integers(1, entry)), draw(st.integers(1, entry))
    v2 = primitive(-(alpha * v0[0] + beta * v1[0]), -(alpha * v0[1] + beta * v1[1]))
    return [[v0[0], v1[0], v2[0]], [v0[1], v1[1], v2[1]]]


@st.composite
def valid_columns(draw, max_mu=59, entry=10**30):
    """The integers ``(u, eta, mu)`` of a valid degree matrix: pairwise
    coprime free parts, each at most 30 or between ``entry / 10**10`` and ``entry``
    (then moved up to the next value coprime to the earlier ones), and
    torsion parts drawn among the residues that keep every column pair
    generating."""
    mu = draw(st.integers(1, max_mu))
    u, eta = [], []
    for k in range(3):
        x = draw(st.integers(1, 30) | st.integers(entry // 10**10, entry))
        while any(gcd(x, y) != 1 for y in u):
            x += 1
        allowed = [
            e for e in range(mu)
            if all(abelian.pair_generates((u[j], eta[j]), (x, e), mu) for j in range(k))
        ]
        if not allowed:
            reject()
        u.append(x)
        eta.append(draw(st.sampled_from(allowed)))
    return tuple(u), tuple(eta), mu


def sympy_invariant_factors(p):
    """Diagonal of sympy's Smith normal form of a 2x3 matrix over ``ZZ``, a
    reference independent of the in-house normal form in ``oracles``."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    s = smith_normal_form(sympy.Matrix(p), domain=sympy.ZZ)
    return abs(int(s[0, 0])), abs(int(s[1, 1]))


def public_definitions(module) -> list[str]:
    """The names without a leading underscore that ``module`` binds at its top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return sorted(n for n in names if not n.startswith("_"))


def test_public_names():
    # each public name lives in the one module that defines it; the normal forms, automorphism
    # enumeration and other test-only helpers live in tests/oracles.py
    assert fwpp.__all__ == ["abelian", "adjacency", "markov", "planes"]
    assert {m: public_definitions(getattr(fwpp, m)) for m in fwpp.__all__} == {
        "abelian": [
            "KAutomorphism", "Pair", "annihilates", "apply_automorphism", "bezout", "k_membership_multiple",
            "pair_generates",
        ],
        "adjacency": [
            "AdjacencyGraph", "AdjacentPair", "CensusEntry", "GraphEdge", "GraphNode", "KStarData",
            "NotDegenerableError", "adjacency_graph", "adjacent_partner", "self_adjacency_census",
        ],
        "markov": [
            "EnumerationCapExceeded", "InvariantError", "MutationTree", "REDUCED_ROOTS", "Triple",
            "admissible_arrangements", "enumerate_tree", "initial_solutions", "is_solution", "norm",
        ],
        "planes": [
            "ClassifiedPlane", "DegreeMatrix", "SERIES_ETAS", "SERIES_FAMILIES", "SeriesId", "SingularityReport",
            "adjust", "anticanonical_class", "classify", "degree", "fake_weights_of_degree_matrix",
            "integral_degree", "isomorphism_witness", "local_gorenstein_index", "resolution_curve_count",
            "singularity_report",
        ],
    }


#: the fan side, which lives in ``tests/oracles.py``: the library computes in ``K = Z + Z/mu`` alone
FAN_SIDE = {"GeneratorMatrix", "NotGeneratorMatrixError", "cone_of_fixed_point", "corresponds", "generator_of",
            "kstar_degree", "validate_generator_matrix", "weight_4vector"}

#: the square decomposition, with which the paper proves its tables and no command computes, lives in ``tests/oracles.py``
#: as ``decompose`` and ``REDUCED_XI``; the checked solution record ``SolutionTriple`` and ``arrange`` are deleted
SQUARE_SIDE = {"REDUCED_XI", "SolutionTriple", "SquareDecomposition", "arrange", "decompose"}


def test_the_library_neither_defines_nor_reads_the_fan_side():
    # every name, attribute, import, string constant and definition of the package, and no class defines a degree method
    assert {n for n in FAN_SIDE if n != "cone_of_fixed_point"} | {"REDUCED_XI", "decompose"} <= set(vars(oracles))
    for path in sorted(Path(fwpp.__file__).parent.glob("*.py")):
        source = path.read_text()
        names = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                assert "degree" not in {f.name for f in node.body if isinstance(f, ast.FunctionDef)}, (path.name, node.name)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        assert not names & (FAN_SIDE | SQUARE_SIDE), path.name
        assert not re.search(r"GeneratorMatrix|generator_of|validate_generator_matrix|weight_4vector|corresponds\(|def degree\(self"
                             r"|REDUCED_XI|SolutionTriple|SquareDecomposition|\barrange\(|\bdecompose\(", source), path.name


def test_import_binds_the_four_modules_and_not_the_cli():
    # perfbench/tracing.py reads getattr(fwpp, layer) for each of the four; the CLI loads only when run
    code = "import sys, fwpp; print(sorted(n for n in vars(fwpp) if not n.startswith('_')), 'fwpp.cli' in sys.modules)"
    with child([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
        out, err = proc.communicate()
    assert (proc.returncode, out, err) == (0, b"['abelian', 'adjacency', 'markov', 'planes'] False\n", b"")


def test_the_cli_starts_without_dataclasses_and_what_it_imports():
    # every record is a named tuple: importing dataclasses, which imports inspect, ast, dis and tokenize, was most of set-up
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, fwpp.cli; fwpp.cli.build_parser(); print([m for m in {heavy!r} if m in sys.modules])"
    with child([sys.executable, "-s", "-c", code], stdout=subprocess.PIPE) as proc:
        out, err = proc.communicate()
    assert (proc.returncode, out, err) == (0, b"[]\n", b"")


class TestSmithNormalForm:
    def test_identity(self):
        u, s, v = oracles.smith_normal_form([[1, 0], [0, 1]])
        assert s == [[1, 0], [0, 1]]

    def test_diag_2_3(self):
        m = [[2, 0], [0, 3]]
        u, s, v = oracles.smith_normal_form(m)
        assert [s[0][0], s[1][1]] == [1, 6]
        assert oracles.mat_mul(oracles.mat_mul(u, m), v) == s
        assert abs(oracles.det_unimodular(u)) == 1
        assert abs(oracles.det_unimodular(v)) == 1

    def test_transpose_of_plane_generator_is_free(self):
        m = oracles.transpose([[1, 1, -2], [0, 1, -1]])
        _, s, _ = oracles.smith_normal_form(m)
        assert (s[0][0], s[1][1]) == (1, 1)

    @settings(max_examples=150, deadline=None)
    @given(matrices(3, 3) | matrices(2, 3) | matrices(3, 2) | matrices(2, 2))
    def test_roundtrip_and_divisibility(self, m):
        u, s, v = oracles.smith_normal_form(m)
        assert oracles.mat_mul(oracles.mat_mul(u, m), v) == s
        assert abs(oracles.det_unimodular(u)) == 1
        assert abs(oracles.det_unimodular(v)) == 1
        diag = [s[t][t] for t in range(min(len(s), len(s[0])))]
        for i in range(len(s)):
            for j in range(len(s[0])):
                if i != j:
                    assert s[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and (x == 0) <= (y == 0)
            if x:
                assert y % x == 0

    def test_deterministic(self):
        m = [[6, 4, 10], [2, 8, 6]]
        assert oracles.smith_normal_form(m) == oracles.smith_normal_form([row[:] for row in m])


class TestHermiteNormalForm:
    def test_known_kernel_shape(self):
        h, u = oracles.hermite_normal_form([[1, 0, -1], [0, 1, -1]])
        assert h == [[1, 0, -1], [0, 1, -1]]

    @settings(max_examples=150, deadline=None)
    @given(matrices(2, 3))
    def test_transform_and_idempotence(self, m):
        h, u = oracles.hermite_normal_form(m)
        assert oracles.mat_mul(u, m) == h
        assert abs(oracles.det_unimodular(u)) == 1
        again, _ = oracles.hermite_normal_form(h)
        assert again == h

    @settings(max_examples=100, deadline=None)
    @given(matrices(2, 3), st.sampled_from([[[1, 0], [1, 1]], [[0, 1], [1, 0]], [[1, 2], [0, 1]], [[-1, 0], [3, 1]]]))
    def test_row_lattice_invariance(self, m, t):
        transformed = oracles.mat_mul(t, m)
        assert oracles.hermite_normal_form(m)[0] == oracles.hermite_normal_form(transformed)[0]


#: small entries, 0 and +-1 among them, and entries of 200 digits of either sign
bezout_entries = small_entries | st.integers(10**199, 10**200 - 1) | st.integers(-(10**200) + 1, -(10**199))


class TestBezout:
    @given(bezout_entries, bezout_entries)
    @example(0, 1)
    @example(0, -1)
    @example(1, 0)
    @example(-1, 0)
    @example(0, 0)
    @example(2, 0)
    @example(10**199, 10**199 + 1)
    @example(6 * 10**199, -(10**199))
    def test_coefficients_or_refusal(self, a, c):
        if gcd(a, c) == 1:
            s, r = abelian.bezout(a, c)
            assert s * a + r * c == 1
        else:
            with pytest.raises(ValueError):
                abelian.bezout(a, c)


class TestCokernel:
    def test_free_case(self):
        mu, u, _ = oracles.cokernel_structure([[1, 1, -1], [0, -5, 4]])
        assert mu == 1
        assert u == (1, 4, 5)

    def test_torsion_nine(self):
        mu, u, _ = oracles.cokernel_structure([[3, 3, -6], [1, -2, 1]])
        assert mu == 9
        assert u == (1, 1, 1)

    def test_torsion_two(self):
        mu, u, eta = oracles.cokernel_structure([[1, 1, -1], [0, -4, 2]])
        assert mu == 2
        assert u == (1, 1, 2)
        # second row equivalent to (0, 1, 1) up to automorphism: all columns
        # pairwise generate the group
        for i in range(3):
            for j in range(i + 1, 3):
                assert abelian.pair_generates((u[i], eta[i]), (u[j], eta[j]), mu)

    def test_rejects_bad_matrices(self):
        with pytest.raises(oracles.NotGeneratorMatrixError):
            oracles.cokernel_structure([[1, 1, 2], [0, 1, 1]])  # spans a halfplane only
        with pytest.raises(oracles.NotGeneratorMatrixError):
            oracles.cokernel_structure([[2, 1, -1], [0, 1, -1]])  # imprimitive column
        with pytest.raises(oracles.NotGeneratorMatrixError):
            oracles.cokernel_structure([[1, 1, -2], [0, 0, 0]])  # collinear columns

    @settings(max_examples=300, deadline=None)
    @given(generator_matrices())
    def test_closed_form_matches_smith_normal_form(self, p):
        # same torsion order and free parts; the torsion rows may differ by
        # an automorphism of K, so the degree matrices are compared up to
        # isomorphism (constructing them checks pairwise generation)
        mu, u, eta = oracles.cokernel_structure(p)
        mu_ref, u_ref, eta_ref = oracles.snf_cokernel_structure(p)
        assert mu == mu_ref
        assert u == u_ref
        assert planes.isomorphism_witness(planes.DegreeMatrix(mu, u, eta), planes.DegreeMatrix(mu_ref, u_ref, eta_ref)) is not None

    @settings(max_examples=200, deadline=None)
    @given(generator_matrices())
    def test_torsion_order_matches_sympy(self, p):
        mu, _, _ = oracles.cokernel_structure(p)
        assert sympy_invariant_factors(p) == (1, mu)

    def test_closed_form_runs_no_smith_normal_form(self):
        assert not hasattr(abelian, "smith_normal_form")
        mu, u, _ = oracles.cokernel_structure([[3, 3, -6], [1, -2, 1]])
        assert mu == 9 and u == (1, 1, 1)


class TestGeneratorOf:
    def test_free_projective_plane(self):
        assert oracles.generator_of(planes.DegreeMatrix(1, (1, 1, 1), (0, 0, 0))).rows == ((1, 0, -1), (0, 1, -1))

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            planes.DegreeMatrix(9, (1, 1, 4), (0, 1, 1))

    @pytest.mark.parametrize("bad", [(0, 1), (0, 2), (1, 2)])
    def test_each_failing_pair_is_rejected(self, bad):
        # every pair of this valid matrix generates; copying column i over
        # column j leaves a pair whose 2x2 minor is 0, and both routes refuse
        u, eta = [1, 1, 1], [0, 1, 2]
        i, j = bad
        u[j], eta[j] = u[i], eta[i]
        with pytest.raises(ValueError):
            planes.DegreeMatrix(9, u, eta)
        with pytest.raises(ValueError):
            oracles.hnf_kernel_basis(u, eta, 9)

    @settings(max_examples=300, deadline=None)
    @given(valid_columns())
    def test_closed_form_matches_hermite_route(self, data):
        u, eta, mu = data
        rows = oracles.generator_of(planes.DegreeMatrix(mu, u, eta)).rows
        assert [list(row) for row in rows] == oracles.transpose(oracles.hnf_kernel_basis(u, eta, mu))

    def test_closed_form_matches_hermite_route_on_classified_planes(self):
        for a in golden.SOLVABLE_PARAMETERS:
            for c in planes.classify(a, 10**8 if a == 1 else 10**12):
                q = c.matrix
                rows = oracles.generator_of(q).rows
                assert [list(row) for row in rows] == oracles.transpose(oracles.hnf_kernel_basis(q.u, q.eta, q.mu))

    def test_generator_of_classified_planes_matches_sympy(self):
        # the rows of generator_of(q) span the kernel of q's grading map, so
        # their cokernel is Z + Z/mu: invariant factors (1, mu)
        for a in golden.SOLVABLE_PARAMETERS:
            for c in planes.classify(a, 10**5 if a == 1 else 10**8):
                q = c.matrix
                assert sympy_invariant_factors(oracles.generator_of(q).rows) == (1, q.mu)

    def test_generator_of_runs_no_normal_form(self):
        assert not hasattr(abelian, "smith_normal_form")
        assert not hasattr(abelian, "hermite_normal_form")
        q = planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3))
        assert oracles.generator_of(q).rows == ((1, 13, -7), (0, 16, -8))

    def test_duality_roundtrip(self):
        # cokernel of the kernel reproduces the original columns up to
        # automorphism; checked via annihilation plus equal free parts
        rows = oracles.generator_of(planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3))).rows
        mu, u, _ = oracles.cokernel_structure(rows)
        assert mu == 8
        assert u == (1, 1, 2)

    def test_singularity_report_checks_no_pair_again(self, monkeypatch):
        # the DegreeMatrix constructor checks each column pair once; reading
        # the generator matrix and the report off it checks none again
        q = planes.DegreeMatrix(8, (1, 1, 2), (0, 1, 3))
        expected = planes.singularity_report(q)
        calls = []
        pair_generates = abelian.pair_generates
        monkeypatch.setattr(abelian, "pair_generates", lambda *args: calls.append(args) or pair_generates(*args))
        assert planes.singularity_report(q) == expected
        assert calls == []


class TestValidateGeneratorMatrix:
    @settings(max_examples=200, deadline=None)
    @given(generator_matrices())
    def test_weights_are_the_absolute_minors(self, p):
        sympy = pytest.importorskip("sympy")
        m = sympy.Matrix(p)
        minors = tuple(abs(int(m.extract([0, 1], [j for j in range(3) if j != k]).det())) for k in range(3))
        assert oracles.validate_generator_matrix(p) == minors

    @settings(max_examples=200, deadline=None)
    @given(generator_matrices(), st.integers(0, 2))
    def test_a_negated_column_mixes_the_signs(self, p, k):
        # negating column k flips the sign of the two minors that use it
        p[0][k], p[1][k] = -p[0][k], -p[1][k]
        with pytest.raises(oracles.NotGeneratorMatrixError):
            oracles.validate_generator_matrix(p)

    @settings(max_examples=100, deadline=None)
    @given(generator_matrices())
    def test_a_zero_minor_is_refused(self, p):
        # the third column on the ray opposite the first: the minor of
        # columns 0 and 2 is 0, although all columns stay primitive and distinct
        p[0][2], p[1][2] = -p[0][0], -p[1][0]
        with pytest.raises(oracles.NotGeneratorMatrixError, match="positively span"):
            oracles.validate_generator_matrix(p)


class TestMembershipMultiple:
    @pytest.mark.parametrize(
        "w,q,mu,expected",
        [
            ((4, 2), (2, 1), 4, 1),
            ((3, 0), (1, 0), 1, 1),
            ((4, 2), (1, 0), 4, 2),
        ],
    )
    def test_examples(self, w, q, mu, expected):
        assert abelian.k_membership_multiple(w, q, mu) == expected

    def test_agrees_with_brute_scan(self):
        for mu in (1, 2, 3, 4, 5, 6, 8, 9, 12):
            for wf in range(0, 7):
                for wt in range(mu):
                    for qf in range(1, 7):
                        for qt in range(mu):
                            w, q = (wf, wt), (qf, qt)
                            fast = abelian.k_membership_multiple(w, q, mu)
                            assert fast == oracles.brute_membership_multiple(w, q, mu)

    def test_requires_positive_free_part(self):
        with pytest.raises(ValueError):
            abelian.k_membership_multiple((1, 0), (0, 1), 4)


class TestContext:
    def test_invalid_torsion_order(self):
        # The group Z + Z/mu is the integer mu; a degree matrix refuses mu < 1.
        with pytest.raises(ValueError):
            planes.DegreeMatrix(0, (1, 1, 1), (0, 0, 0))


class TestAutomorphisms:
    def test_counts(self):
        assert len(list(oracles.automorphisms(1, positive_only=True))) == 1
        assert len(list(oracles.automorphisms(3))) == 12
        assert len(list(oracles.automorphisms(8, positive_only=True))) == 32

    def test_identity_application(self):
        assert abelian.apply_automorphism(KAutomorphism(1, 0, 1), (5, 3), 7) == (5, 3)

    def test_examples(self):
        assert abelian.apply_automorphism(KAutomorphism(1, 8, 1), (1, 1), 9) == (1, 0)
        assert abelian.apply_automorphism(KAutomorphism(1, 1, 1), (2, 1), 2) == (2, 1)

    @pytest.mark.parametrize("mu", [1, 2, 3, 4, 5, 6, 8, 9])
    def test_distinct_and_invertible(self, mu):
        probes = [(1, 0), (0, 1 % mu), (3, (mu - 1) % mu)]
        seen = set()
        for phi in oracles.automorphisms(mu):
            signature = tuple(abelian.apply_automorphism(phi, p, mu) for p in probes)
            assert signature not in seen
            seen.add(signature)
            inv = oracles.invert_automorphism(phi, mu)
            for p in probes:
                roundtrip = abelian.apply_automorphism(inv, abelian.apply_automorphism(phi, p, mu), mu)
                assert roundtrip == p

    @pytest.mark.parametrize("mu", [2, 5, 8, 9])
    def test_composition_formula(self, mu):
        autos = list(oracles.automorphisms(mu))[:10]
        probes = [(1, 0), (0, 1), (2, mu - 1)]
        for phi in autos:
            for psi in autos:
                composed = oracles.compose_automorphisms(phi, psi, mu)
                for p in probes:
                    step = abelian.apply_automorphism(psi, p, mu)
                    assert abelian.apply_automorphism(phi, step, mu) == abelian.apply_automorphism(composed, p, mu)
