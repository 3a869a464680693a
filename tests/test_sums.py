"""Disjoint and shared-variable sums, the sharing graph, and leaf peeling."""

import hashlib
import json
import random
import re
import sys
import warnings
from fractions import Fraction
from math import gcd

import pytest

import toricsum.parametrization as parametrization
import toricsum.sums as sums
from helpers import (
    forest_family,
    kernel_in_sorted_vars,
    quadric,
    random_homogeneous_parametrization,
    random_parametrization,
)
from toricsum import (
    Binomial,
    ConstructionError,
    DegreeBound,
    HomogeneityCertificate,
    IntegerMatrix,
    LatticeBasis,
    Parametrization,
    SumConstruction,
    VariableSet,
    build_family_graph,
    contains_binomial,
    dimension,
    enumerate_kernel_binomials,
    homogeneity_certificate,
    kernel_lattice,
    normalize_pin,
    relabel_binomial,
    sum_disjoint,
    sum_family,
    sum_shared,
)
from toricsum.cli import format_ideal_block, parse_ideal_file
from toricsum.exact_linalg import independent_rows


def make(rows, var_names, param_names):
    return Parametrization(
        VariableSet(tuple(param_names)),
        VariableSet(tuple(var_names)),
        IntegerMatrix.from_rows(rows, cols=len(var_names)),
    )


def graded(p):
    """Whether ``p`` has a grading vector, solved without ``sums``, that certifies it."""
    cert = homogeneity_certificate(p)
    return cert is not None and cert.certifies(p)


class TestSumDisjoint:
    def test_two_blocks(self):
        p1 = make([[1, -1], [1, 1]], ["z1", "z2"], ["t", "s"])
        p2 = make([[1, -1], [1, 1]], ["w1", "w2"], ["t", "s"])
        total = sum_disjoint([p1, p2])
        assert total.matrix.entries == (
            (1, -1, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 1, -1),
            (0, 0, 1, 1),
        )
        assert dimension(total) == 4
        # parameters are named by row, not after the inputs' own names
        assert total.params.names == ("t1", "t2", "t3", "t4")

    def test_single_input_unchanged(self):
        p = make([[1, -1], [1, 1]], ["z1", "z2"], ["t", "s"])
        assert sum_disjoint([p]) is p

    def test_empty(self):
        total = sum_disjoint([])
        assert dimension(total) == 0
        assert len(total.vars) == 0

    def test_overlap_rejected(self):
        p1 = make([[1, -1], [1, 1]], ["z1", "z2"], ["t", "s"])
        p2 = make([[1, -1], [1, 1]], ["z2", "w2"], ["t", "s"])
        with pytest.raises(ConstructionError, match="z2"):
            sum_disjoint([p1, p2])

    def test_kernel_is_direct_sum(self):
        rng = random.Random(47)
        for _ in range(30):
            p1 = random_homogeneous_parametrization(rng, max_params=3, max_vars=3, prefix="a")
            p2 = random_homogeneous_parametrization(rng, max_params=3, max_vars=3, prefix="b")
            total = sum_disjoint([p1, p2])
            n1, n2 = len(p1.vars), len(p2.vars)
            embedded = [v + (0,) * n2 for v in kernel_lattice(p1.matrix).vectors]
            embedded += [(0,) * n1 + v for v in kernel_lattice(p2.matrix).vectors]
            assert kernel_lattice(total.matrix) == LatticeBasis.spanning(embedded, n1 + n2)


GLUED_RESULT = ((1, -1, 0, 0, 0), (0, 0, 1, -1, 0), (1, 1, 1, 1, 1))


class TestSumShared:
    def test_glued_quadrics(self):
        c = sum_shared(quadric("z1", "z2", "x"), quadric("w1", "w2", "x"), "x")
        assert c.result.matrix.entries == GLUED_RESULT
        assert c.result.vars.names == ("z1", "z2", "w1", "w2", "x")
        assert c.gamma == 1
        assert len(c.result.params) == 3
        assert graded(c.result)

    def test_doubled_last_row(self):
        p2 = make([[1, -1, 0], [2, 2, 2]], ["w1", "w2", "x"], ["t", "s"])
        c = sum_shared(quadric("z1", "z2", "x"), p2, "x")
        assert c.gamma == 2
        assert c.result.matrix.entries == (
            (1, -1, 0, 0, 0),
            (0, 0, 1, -1, 0),
            (2, 2, 2, 2, 2),
        )
        assert len(c.result.params) == 3

    def test_two_shared_variables_rejected(self):
        p1 = make([[1, 1, 1], [1, 0, 2]], ["z1", "x", "y"], ["t", "s"])
        p2 = make([[1, 1, 1], [2, 0, 1]], ["w1", "x", "y"], ["t", "s"])
        with pytest.raises(ConstructionError, match="share"):
            sum_shared(p1, p2, "x")

    def test_non_homogeneous_rejected(self):
        p2 = make([[1, 2]], ["w1", "x"], ["t"])
        with pytest.raises(ConstructionError, match="homogeneous"):
            sum_shared(quadric("z1", "z2", "x"), p2, "x")

    def test_unpinned_input_is_normalized(self):
        # y has a two-row support here, so pinning must kick in
        p1 = make([[1, 2, 1], [1, 1, 1]], ["z1", "x", "y"], ["t", "s"])
        assert dimension(p1) == 2
        p2 = quadric("w1", "w2", "y")
        c = sum_shared(p1, p2, "y")
        assert len(c.result.params) == dimension(p1) + dimension(p2) - 1
        for b in enumerate_kernel_binomials(p1, DegreeBound(3)):
            assert contains_binomial(c.result, relabel_binomial(b, p1.vars, c.result.vars))

    def test_negative_pinned_exponent_is_negated(self):
        # homogeneous with grading (1, -1): x maps to s^-1, so the pinned
        # row must be negated before assembly
        p1 = make([[1, 2, 0], [0, 1, -1]], ["z1", "z2", "x"], ["t", "s"])
        from toricsum import homogeneity_certificate

        assert homogeneity_certificate(p1) is not None
        c = sum_shared(p1, quadric("w1", "w2", "x"), "x")
        assert c.gamma == 1
        assert c.result.column(len(c.result.vars) - 1)[-1] == 1
        assert graded(c.result)
        assert len(c.result.params) == dimension(p1) + 2 - 1
        assert contains_binomial(p1, Binomial((2, 0, 0), (0, 1, 1)))  # z1^2 - z2*x
        assert contains_binomial(c.result, Binomial((2, 0, 0, 0, 0), (0, 1, 0, 0, 1)))

    def test_contains_both_kernels_random(self):
        rng = random.Random(53)
        for _ in range(30):
            p1 = random_homogeneous_parametrization(rng, max_params=3, max_vars=3, prefix="a")
            p2 = random_homogeneous_parametrization(rng, max_params=3, max_vars=3, prefix="b")
            # append a shared variable with nonzero images on both sides
            p1 = _with_shared(p1, "x", rng)
            p2 = _with_shared(p2, "x", rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                c = sum_shared(p1, p2, "x")
            assert len(c.result.params) == dimension(p1) + dimension(p2) - 1
            assert graded(c.result)
            for p in (p1, p2):
                for b in enumerate_kernel_binomials(p, DegreeBound(2)):
                    assert contains_binomial(
                        c.result, relabel_binomial(b, p.vars, c.result.vars)
                    )


def _with_shared(p, name, rng):
    """Extend a homogeneous parametrization by one more (shared) variable."""
    from toricsum import homogeneity_certificate

    cert = homogeneity_certificate(p)
    assert cert is not None
    # pick an integer column with omega . col == 1 by scaling a unit direction
    k = next(i for i, w in enumerate(cert.omega) if w != 0)
    col = [0] * p.matrix.rows
    col[k] = int(1 / cert.omega[k]) if (1 / cert.omega[k]).denominator == 1 else None
    if col[k] is None:
        # fall back: duplicate an existing column, which keeps homogeneity
        j = rng.randrange(len(p.vars))
        col = list(p.matrix.column(j))
    rows = [list(row) + [col[i]] for i, row in enumerate(p.matrix.entries)]
    return Parametrization(
        p.params,
        VariableSet(p.vars.names + (name,)),
        IntegerMatrix.from_rows(rows, cols=len(p.vars) + 1),
    )


PATH_I1 = make([[1, -1, 0], [1, 1, 1]], ["z1", "z2", "x"], ["t", "s"])
PATH_I2 = make([[1, 2, 0], [1, 0, 2]], ["w1", "x", "y"], ["a", "b"])
PATH_I3 = make([[1, -1, 0], [1, 1, 1]], ["v1", "v2", "y"], ["t", "s"])


class TestFamilyGraph:
    def test_path(self):
        graph = build_family_graph(
            [
                ("I1", VariableSet.of("z1", "z2", "x")),
                ("I2", VariableSet.of("w1", "w2", "x", "y")),
                ("I3", VariableSet.of("v1", "y")),
            ]
        )
        assert graph.edges == ((0, 1, "x"), (1, 2, "y"))
        assert graph.r == 1
        assert graph.components[0].is_tree

    def test_disjoint_vertices(self):
        graph = build_family_graph(
            [
                ("I1", VariableSet.of("a1")),
                ("I2", VariableSet.of("a2")),
                ("I3", VariableSet.of("a3")),
            ]
        )
        assert graph.edges == ()
        assert graph.r == 3
        assert all(c.is_tree for c in graph.components)

    def test_two_shared_variables_rejected(self):
        with pytest.raises(ConstructionError, match="share 2 variables"):
            build_family_graph(
                [("I1", VariableSet.of("a", "b")), ("I2", VariableSet.of("a", "b", "c"))]
            )

    def test_triangle_detected(self):
        graph = build_family_graph(
            [
                ("I1", VariableSet.of("z1", "x")),
                ("I2", VariableSet.of("z2", "x")),
                ("I3", VariableSet.of("z3", "x")),
            ]
        )
        assert not graph.components[0].is_tree

    def test_matches_pairwise_reference(self):
        rng = random.Random(113)
        seen = set()
        for _ in range(400):
            k = rng.randint(0, 9)
            pool = [f"v{j}" for j in range(rng.randint(1, 14))]
            ids = [f"I{rng.randrange(k)}" if rng.random() < 0.05 else f"J{v}" for v in range(k)]
            ideals = [(ids[v], VariableSet(tuple(rng.sample(pool, rng.randint(0, min(4, len(pool)))))))
                      for v in range(k)]
            outcomes = []
            for build in (build_family_graph, _pairwise_graph):
                try:
                    outcomes.append(build(ideals))
                except (ValueError, ConstructionError) as e:
                    outcomes.append((type(e), str(e)))
            assert outcomes[0] == outcomes[1]
            held = [sum(name in vs for _, vs in ideals) for name in pool]
            seen.add(("held by three", max(held, default=0) >= 3))
            if isinstance(outcomes[0], tuple):
                seen.add(("error", outcomes[0][0]))
            else:
                seen.add(("isolated", any(len(c.vertices) == 1 for c in outcomes[0].components)))
                seen.add(("tree", all(c.is_tree for c in outcomes[0].components)))
        assert {("held by three", True), ("error", ValueError), ("error", ConstructionError),
                ("isolated", True), ("tree", True), ("tree", False)} <= seen


def _pairwise_graph(ideals):
    """Reference sharing graph: every pair of ideals compared, in (i, j) order."""
    ids = [name for name, _ in ideals]
    dup = next((n for i, n in enumerate(ids) if n in ids[:i]), None)
    if dup is not None:
        raise ValueError(f"duplicate ideal identifier {dup!r}")
    edges = []
    for i, (_, a) in enumerate(ideals):
        for j in range(i + 1, len(ideals)):
            shared = [n for n in a.names if n in ideals[j][1].names]
            if len(shared) >= 2:
                raise ConstructionError(
                    f"ideals {ids[i]!r} and {ids[j]!r} share {len(shared)} variables "
                    f"({', '.join(shared)}); at most one shared variable is allowed"
                )
            if shared:
                edges.append((i, j, shared[0]))
    label = list(range(len(ids)))  # smallest vertex of each component, by relaxation
    changed = True
    while changed:
        changed = False
        for i, j, _ in edges:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    components = []
    for root in sorted(set(label)):
        vertices = tuple(v for v in range(len(ids)) if label[v] == root)
        count = sum(1 for i, _, _ in edges if label[i] == root)
        components.append(sums.GraphComponent(vertices, count == len(vertices) - 1))
    return sums.IdealFamilyGraph(tuple(ids), tuple(edges), tuple(components))


class TestSumFamily:
    def test_three_ideal_path(self):
        result, report = sum_family([PATH_I1, PATH_I2, PATH_I3], ["I1", "I2", "I3"])
        assert report.rank_dimension == 4
        assert report.iterated_prediction == 4
        assert report.global_formula == 5
        assert report.merges == (("I1", "I2", "x"), ("I2", "I3", "y"))
        assert dimension(result) == 4

    def test_single_ideal(self):
        result, report = sum_family([PATH_I1], ["I1"])
        assert result is PATH_I1
        assert report.rank_dimension == report.iterated_prediction == 2
        with pytest.raises(ValueError, match="one name per parametrization"):
            sum_family([PATH_I1], ["I1", "I2"])

    def test_triangle_rejected(self):
        triangle = [
            make([[1, 1]], ["z1", "x"], ["t"]),
            make([[1, 1]], ["z2", "x"], ["t"]),
            make([[1, 1]], ["z3", "x"], ["t"]),
        ]
        with pytest.raises(ConstructionError, match="cycle"):
            sum_family(triangle)

    def test_non_homogeneous_vertex_rejected(self):
        bad = make([[1, 2]], ["u1", "x"], ["t"])
        with pytest.raises(ConstructionError, match="not homogeneous"):
            sum_family([PATH_I1, bad], ["I1", "I2"])

    def test_isolated_vertex_needs_no_certificate(self):
        bad = make([[1, 2]], ["u1", "u2"], ["t"])  # not homogeneous, but isolated
        result, report = sum_family([PATH_I1, bad], ["I1", "I2"])
        assert report.graph.r == 2
        assert report.rank_dimension == dimension(PATH_I1) + dimension(bad)

    def test_two_components(self):
        result, report = sum_family(
            [quadric("a1", "a2", "x"), quadric("b1", "b2", "x"), quadric("c1", "c2", "y")]
        )
        assert report.graph.r == 2
        assert report.rank_dimension == 3 + 2
        assert report.iterated_prediction == 6 - (3 - 2)


class TestPeelingOrderIndependence:
    def test_path_orders(self):
        via_left = sum_shared(
            sum_shared(PATH_I1, PATH_I2, "x").result,
            PATH_I3,
            "y",
        ).result
        via_right = sum_shared(
            PATH_I1,
            sum_shared(PATH_I3, PATH_I2, "y").result,
            "x",
        ).result
        assert kernel_in_sorted_vars(via_left) == kernel_in_sorted_vars(via_right)

    def test_star_orders(self):
        rng = random.Random(59)
        center = make(
            [[1, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]],
            ["c1", "x", "y", "u"],
            ["a", "b", "c"],
        )
        leaves = {
            "x": quadric("p1", "p2", "x"),
            "y": quadric("q1", "q2", "y"),
            "u": quadric("r1", "r2", "u"),
        }
        results = []
        for _ in range(3):
            order = list(leaves)
            rng.shuffle(order)
            acc = center
            for var in order:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # u occurs in no degree-2 binomial
                    acc = sum_shared(leaves[var], acc, var).result
            results.append(kernel_in_sorted_vars(acc))
        assert results[0] == results[1] == results[2]


def _random_block(rng, shared_names, prefix):
    """Random homogeneous block on ``shared_names`` plus one or two own variables.

    Three styles: ``mixed`` hides the all-ones grading row by unimodular row
    mixing, so shared columns mostly have several nonzero entries and need
    pinning; ``single`` keeps every shared column on the grading row alone,
    negated half the time (a negative pinned exponent); ``redundant`` is
    ``single`` plus a copy of a row, so the block is never maximal rank and
    is always cut to its independent rows when it is lifted.
    """
    style = rng.choice(["mixed", "single", "redundant"])
    names = list(shared_names) + [f"{prefix}{j}" for j in range(rng.randint(1, 2))]
    n, m = len(names), rng.randint(1, 3)
    free = range(len(shared_names) if style != "mixed" else 0, n)
    rows = [[rng.randint(-2, 2) if j in free else 0 for j in range(n)] for _ in range(m - 1)]
    rows.append([1] * n)
    if style == "mixed":
        for _ in range(3):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                c = rng.choice([-1, 1])
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    else:
        if rng.random() < 0.5:
            rows[-1] = [-x for x in rows[-1]]
        if style == "redundant":
            rows.append(list(rows[rng.randrange(m)]))
    rng.shuffle(rows)
    order = list(range(n))
    rng.shuffle(order)
    return make(
        [[row[j] for j in order] for row in rows],
        [names[j] for j in order],
        [f"t{k}" for k in range(len(rows))],
    )


def _random_tree(kind, k, rng):
    if kind == "path":
        edges = [(i, i + 1) for i in range(k - 1)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, k)]
    else:  # caterpillar: a spine with legs hanging off it
        spine = max(2, k // 2)
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(rng.randrange(spine), i) for i in range(spine, k)]
    label = list(range(k))
    rng.shuffle(label)
    return [(label[a], label[b], f"e{n}") for n, (a, b) in enumerate(edges)]


def _random_family(rng, kind, k):
    edges = _random_tree(kind, k, rng)
    ps = [
        _random_block(rng, [var for a, b, var in edges if v in (a, b)], f"v{v}_")
        for v in range(k)
    ]
    return ps, edges


def _fold(ps, edges, carry):
    """Leaf peeling as sum_family does it, on one tree.

    With ``carry`` False each merge sees only the previous result, so every
    fact is recomputed from the accumulated matrix.  Returns the last
    result, each construction with the parametrizations of its two inputs,
    the merges under sum_family's default names, and the texts of the usage
    warnings.
    """
    adj = {v: {} for v in range(len(ps))}
    for a, b, var in edges:
        adj[a][b] = adj[b][a] = var
    current = dict(enumerate(ps))
    constructions, merges, messages = [], [], []
    while len(current) > 1:
        leaf = min(v for v in current if len(adj[v]) == 1)
        neighbour, var = next(iter(adj[leaf].items()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c = sum_shared(current[leaf], current[neighbour], var)
        messages += [str(w.message) for w in caught]
        merges.append((f"I{leaf + 1}", f"I{neighbour + 1}", var))
        inputs = [x.result if isinstance(x, SumConstruction) else x
                  for x in (current[leaf], current[neighbour])]
        constructions.append((c, *inputs))
        current[neighbour] = c if carry else c.result
        del current[leaf], adj[neighbour][leaf], adj[leaf]
    (last,) = current.values()
    return (last.result if carry else last), constructions, merges, messages


class TestCarriedFacts:
    @pytest.mark.parametrize("kind", ["path", "star", "caterpillar"])
    def test_family_matches_recomputing_fold(self, kind):
        rng = random.Random(f"carried:{kind}")
        for trial in range(25):
            ps, edges = _random_family(rng, kind, rng.randint(2, 6))
            expected, plain, _, _ = _fold(ps, edges, carry=False)
            carried_result, carried, _, _ = _fold(ps, edges, carry=True)
            assert carried_result == expected
            for c, q1, q2 in plain + carried:
                assert len(c.result.params) == dimension(c.result)
                assert len(c.result.params) == dimension(q1) + dimension(q2) - 1
                assert graded(c.result)
            if trial % 2:
                # an isolated, possibly non-homogeneous block joins block-diagonally
                ps.append(random_parametrization(rng, max_params=2, max_vars=3, prefix="iso"))
                expected = sum_disjoint([expected, ps[-1]])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result, report = sum_family(ps)
            # one check per input ideal and incident edge, each on that ideal alone
            unused = [
                var
                for a, b, var in edges
                for v in (a, b)
                if not any(
                    g.involves(ps[v].vars.index(var))
                    for g in enumerate_kernel_binomials(ps[v], DegreeBound(2, 0))
                )
            ]
            named = [re.search(r"involves '(\w+)'", str(w.message))[1] for w in caught]
            assert sorted(named) == sorted(unused)
            assert result.matrix == expected.matrix
            assert result.vars == expected.vars
            assert result.params == expected.params
            assert report.iterated_prediction == report.rank_dimension == dimension(result)
            assert report.global_formula == report.iterated_prediction + 1
            assert report.input_dimensions == tuple(dimension(p) for p in ps)

    def test_negative_pinned_exponent_on_carried_side(self):
        # grading (-1, 1): after the merge over y, x maps to the inverse of a
        # single parameter, so the next merge pins a negative entry and
        # scales that row by a negative factor
        p1 = make([[1, 0, 0, -1], [2, 1, 1, 0]], ["z1", "z2", "y", "x"], ["t", "s"])
        c = sum_shared(quadric("w1", "w2", "y"), p1, "y")
        assert sorted(c.result.column(c.result.vars.index("x"))) == [-1, 0, 0]
        c2 = sum_shared(c, quadric("v1", "v2", "x"), "x")
        expected = sum_shared(c.result, quadric("v1", "v2", "x"), "x")
        assert c2.result == expected.result
        assert graded(c2.result)
        assert len(c2.result.params) == dimension(c2.result)

    def test_non_homogeneous_side_rejected_on_either_path(self):
        rng = random.Random(61)
        outcomes = set()
        for _ in range(60):
            p = random_parametrization(rng, max_params=3, max_vars=3, prefix="a")
            column = [rng.choice([-2, -1, 0, 0, 1, 2]) for _ in range(p.matrix.rows)]
            if not any(column):
                continue
            p = make(
                [list(row) + [x] for row, x in zip(p.matrix.entries, column)],
                p.vars.names + ("x",),
                p.params.names,
            )
            homogeneous = homogeneity_certificate(p) is not None
            outcomes.add((homogeneous, sum(map(bool, column)) == 1))
            for args, which in (((p, quadric("w1", "w2", "x")), "first"),
                                ((quadric("w1", "w2", "x"), p), "second")):
                if homogeneous:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        c = sum_shared(*args, "x")
                    assert graded(c.result)
                else:
                    with pytest.raises(ConstructionError, match=f"{which} input is not homogeneous"):
                        sum_shared(*args, "x")
        assert len(outcomes) == 4


def _pooled_family(rng, k):
    """A tree family whose blocks repeat: each is drawn from a pool of three.

    The pool holds 4-column homogeneous matrices with mixed rows, so shared
    columns mostly need pinning, and one of them has a copied row, so it is
    cut when lifted.  Vertices have degree at most 3; each takes its shared
    variables at random columns.
    """
    pool = []
    for copied in (False, False, True):
        m = rng.randint(2, 3)
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(m - 1)] + [[1] * 4]
        for _ in range(3):
            i, j = rng.sample(range(m), 2)
            c = rng.choice([-1, 1])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if copied:
            rows.append(list(rows[0]))
        pool.append(rows)
    degree = [0] * k
    edges = []
    for v in range(1, k):
        u = rng.choice([u for u in range(v) if degree[u] < 3])
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v, f"s{len(edges)}"))
    ps = []
    for v in range(k):
        names = [f"x{v}_{j}" for j in range(4)]
        shared = [var for a, b, var in edges if v in (a, b)]
        for j, var in zip(rng.sample(range(4), len(shared)), shared):
            names[j] = var
        rows = rng.choice(pool)
        ps.append(make(rows, names, [f"t{r}" for r in range(len(rows))]))
    return ps, edges


class TestRepeatedBlocks:
    def test_family_matches_fold_over_plain_inputs(self):
        rng = random.Random(83)
        for _ in range(20):
            ps, edges = _pooled_family(rng, rng.randint(4, 8))
            assert len({p.matrix for p in ps}) < len(ps)
            expected, _, merges, messages = _fold(ps, edges, carry=True)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result, report = sum_family(ps)
            assert result.params == expected.params
            assert result.vars == expected.vars
            assert result.matrix == expected.matrix
            graph = build_family_graph([(f"I{v + 1}", p.vars) for v, p in enumerate(ps)])
            dims = tuple(dimension(p) for p in ps)
            assert report == sums.FamilyReport(graph, dims, len(expected.params), tuple(merges))
            assert [str(w.message) for w in caught] == messages

    def test_lift_matches_row_basis_then_certificate(self):
        # one elimination gives the kept rows and the refusal of
        # independent_rows followed by homogeneity_certificate
        rng = random.Random(89)
        kinds = set()
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            p = Parametrization(
                VariableSet(tuple(f"t{r}" for r in range(m))),
                VariableSet(tuple(f"x{j}" for j in range(n))),
                IntegerMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]),
            )
            keep = independent_rows(p.matrix)
            cut = p.matrix.take(keep, range(n))
            cert = homogeneity_certificate(
                Parametrization(VariableSet(tuple(f"t{r}" for r in keep)), p.vars, cut)
            )
            kinds.add((len(keep) < m, not all(any(col) for col in zip(*p.matrix.entries)),
                       cert is None))
            if cert is None:
                with pytest.raises(ConstructionError, match="^refused$"):
                    sums._lift(p, "refused")
                continue
            lifted = sums._lift(p, "refused")
            assert lifted.result.matrix == cut
            # an uncut input is kept whole; a cut one is renamed by position
            numbered = VariableSet(tuple(f"t{r + 1}" for r in range(len(keep))))
            assert lifted.result.params == (p.params if len(keep) == m else numbered)
        # rank-deficient, with a zero column, and non-homogeneous inputs all occurred
        assert all(any(kind[i] for kind in kinds) for i in range(3))


def _count_whole_pins(monkeypatch):
    """Record every call of ``normalize_pin`` made through a toricsum module."""
    calls = []
    real = parametrization.normalize_pin

    def counted(p, var):
        calls.append(var)
        return real(p, var)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "toricsum":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _with_dependent_row(p, rng):
    """``p`` with one more row in its row space, at a random position.

    The row copies a row, or adds or subtracts two distinct rows.
    """
    rows = [list(row) for row in p.matrix.entries]
    if len(rows) > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice([-1, 1])
        extra = [a + c * b for a, b in zip(rows[i], rows[j])]
    else:
        extra = list(rng.choice(rows))
    at = rng.randrange(len(rows) + 1)
    params = list(p.params.names)
    rows.insert(at, extra)
    params.insert(at, "dep")
    return make(rows, p.vars.names, params)


class TestDependentRows:
    @pytest.mark.parametrize("kind", ["path", "star", "caterpillar"])
    def test_dependent_rows_change_nothing(self, kind, monkeypatch):
        # _random_family's redundant blocks are rank-deficient already
        whole_pins = _count_whole_pins(monkeypatch)
        rng = random.Random(f"dependent:{kind}")
        for _ in range(20):
            ps, _ = _random_family(rng, kind, rng.randint(2, 6))
            padded = [_with_dependent_row(p, rng) for p in ps]
            assert all(dimension(q) == dimension(p) for p, q in zip(ps, padded))
            outcomes = []
            for family in (ps, padded):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result, report = sum_family(family)
                outcomes.append((kernel_in_sorted_vars(result), report,
                                 [str(w.message) for w in caught]))
            assert outcomes[0] == outcomes[1]
        assert whole_pins == []


def _local_side(rng):
    """A maximal-rank homogeneous side whose column 0 has support 1 <= |S| <= rows.

    Grading entries are +-1, so every column is solved integrally in a row
    of its support; the matrix is redrawn until it has maximal rank.
    """
    while True:
        m = rng.randint(3, 5)
        n = rng.randint(m + 1, m + 3)
        omega = [rng.choice([1, -1]) for _ in range(m)]
        support = sorted(rng.sample(range(m), rng.randint(1, m)))
        columns = []
        for j in range(n):
            rows = support if j == 0 else range(m)
            col = [rng.randint(-3, 3) if r in rows else 0 for r in range(m)]
            r = rng.choice(list(rows))
            col[r] = 0
            col[r] = omega[r] * (1 - sum(w * x for w, x in zip(omega, col)))
            columns.append(col)
        if not all(columns[0][r] for r in support):
            continue
        p = make([list(row) for row in zip(*columns)],
                 [f"x{j}" for j in range(n)], [f"t{k}" for k in range(m)])
        if dimension(p) == m:
            assert HomogeneityCertificate(tuple(Fraction(w) for w in omega)).certifies(p)
            return p, support


def _count_supports(monkeypatch):
    """Record, per ``sums._pinned`` call, the support size of its shared column."""
    sizes = []
    real = sums._pinned

    def counted(p, shared):
        idx = p.vars.index(shared)
        sizes.append(sum(1 for row in p.matrix.entries if row[idx]))
        return real(p, shared)

    monkeypatch.setattr(sums, "_pinned", counted)
    return sizes


class TestSupportLocalPin:
    def test_matches_whole_matrix_pin(self):
        rng = random.Random(67)
        sizes, signs, scaled, divided = set(), set(), False, False
        for _ in range(80):
            p, support = _local_side(rng)
            old = p.matrix.entries
            rows, idx, j = sums._pinned(p, p.vars.names[0])
            assert (idx, j) == (0, support[0])
            c = old[j][0]
            pinned = make(rows, p.vars.names, p.params.names)
            # normalize_pin is canonical for the row space with column 0 pinned
            assert normalize_pin(pinned, 0).parametrization == normalize_pin(p, 0).parametrization
            assert [row[0] for row in rows] == [c if r == j else 0 for r in range(len(rows))]
            kept = [r for r in range(len(rows)) if r == j or r not in support]
            assert [tuple(rows[r]) for r in kept] == [old[r] for r in kept]
            # a grading vector of the pinned rows exists, 1 / c on row j
            cert = homogeneity_certificate(pinned)
            assert cert.certifies(pinned) and cert.omega[j] * c == 1
            sizes.add(len(support))
            signs.add(c > 0)
            scaled |= abs(c) > 1
            divided |= any(gcd(*(c * a - old[s][0] * b for a, b in zip(old[s], old[j]))) > 1
                           for s in support[1:])
        # every support size, pinned entries of both signs and beyond +-1,
        # and recombined rows divided by their content all occurred
        assert sizes == {1, 2, 3, 4, 5}
        assert signs == {True, False} and scaled and divided

    @pytest.mark.filterwarnings("ignore:no kernel binomial")
    def test_pins_are_local_at_any_input_rank(self, monkeypatch):
        whole_pins = _count_whole_pins(monkeypatch)
        supports = _count_supports(monkeypatch)
        # every row in the support: row s of the quadric becomes
        # (1 * s - 1 * t) / 2, which the unique grading vector (1, 2) grades
        full = make([[1, -1, 1], [1, 1, 1]], ["z1", "z2", "x"], ["t", "s"])
        rows, idx, j = sums._pinned(sums._lift(full, "not homogeneous").result, "x")
        assert (idx, j) == (2, 0)
        assert tuple(rows) == ((1, -1, 1), (0, 1, 0))
        cert = homogeneity_certificate(make(rows, full.vars.names, full.params.names))
        assert cert.omega == (1, 2)
        glued = sum_shared(full, quadric("w1", "w2", "x"), "x")
        # the pinned rows, t of this side and s of the quadric, are glued last
        assert glued.result.matrix.entries == (
            (0, 1, 0, 0, 0), (0, 0, 1, -1, 0), (1, -1, 1, 1, 1)
        )
        assert supports == [2, 2, 1]
        # rank-deficient: twice the first support row comes first, so the
        # lifted block keeps that multiple and drops the original row
        rng = random.Random(71)
        p, support = _local_side(rng)
        assert 1 < len(support) < len(p.params)
        shared = p.vars.names[0]
        s0 = support[0]
        doubled = make([[2 * x for x in p.matrix.entries[s0]], *p.matrix.entries],
                       p.vars.names, ("extra",) + p.params.names)
        lifted = sums._lift(doubled, "not homogeneous")
        kept = [r for r in range(len(doubled.params)) if r != s0 + 1]
        assert lifted.result.matrix.entries == tuple(doubled.matrix.entries[r] for r in kept)
        assert lifted.result.vars == p.vars
        assert graded(lifted.result)
        supports.clear()
        rows, idx, j = sums._pinned(lifted.result, shared)
        assert supports == [len(support)]
        assert (idx, j) == (0, 0)
        for row, original in zip(rows, lifted.result.matrix.entries):
            if not original[0]:
                assert row == original
        pinned = make(rows, lifted.result.vars.names, lifted.result.params.names)
        assert homogeneity_certificate(pinned).omega[j] * rows[j][idx] == 1
        glued = sum_shared(lifted, quadric("w1", "w2", shared), shared)
        assert supports == [len(support)] * 2 + [1]
        # this side's pinned row 0 and the quadric's row s are glued last
        n = len(p.vars) - 1
        assert glued.result.matrix.entries == (
            tuple(row[1:] + (0, 0, 0) for row in rows[1:])
            + ((0,) * n + (1, -1, 0),)
            + (tuple(glued.gamma // rows[0][0] * x for x in rows[0][1:])
               + (glued.gamma,) * 3,)
        )
        assert whole_pins == []


def _glued(block, edges, k):
    """Copies of one block along a tree, edge ``e`` on a column of each end.

    At each end the column is picked by rotating through the still free
    ones, so the twisted cubic shares middle columns (two-row support) as
    well as end ones, and a dense random block only two-row columns.
    """
    names = [[f"x{v}_{j}" for j in range(len(block[0]))] for v in range(k)]
    for e, (u, v) in enumerate(edges):
        for w in (u, v):
            free = [j for j, n in enumerate(names[w]) if not n.startswith("s")]
            names[w][free[(w + e) % len(free)]] = f"s{e}"
    return [make(block, vs, ["t", "s"]) for vs in names]


def _broom(k, cap):
    """A star while the centre has room, then a broom of stars, degrees <= cap."""
    degree = [0] * k
    edges = []
    for v in range(1, k):
        u = next(u for u in range(v) if degree[u] < cap)
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return edges


def _tree_of(kind, k):
    """A path, a broom of stars of degree <= 4, or a caterpillar on ``k`` vertices.

    The caterpillar is a path of k // 2 with one leg on each of its vertices.
    """
    if kind == "path":
        return [(v - 1, v) for v in range(1, k)]
    if kind == "star":
        return _broom(k, 4)
    return [(v - 1, v) for v in range(1, k // 2)] + [(v - k // 2, v) for v in range(k // 2, k)]


class TestPinSize:
    """Family sums recombine no more support rows than an input block has."""

    @pytest.mark.parametrize("kind", ["path", "star", "caterpillar"])
    def test_pins_stay_block_sized(self, kind, monkeypatch):
        supports = _count_supports(monkeypatch)
        k = 64
        rng = random.Random(73)
        if kind == "path":
            block = [[3, 2, 1, 0], [0, 1, 2, 3]]
        else:
            block = [rng.sample(range(-3, 4), 4), [1] * 4]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, report = sum_family(_glued(block, _tree_of(kind, k), k))
        assert report.rank_dimension == k + 1
        assert len(supports) == 2 * (k - 1) and max(supports) <= len(block)
        largest = max(abs(x) for row in result.matrix.entries for x in row)
        if kind == "path":
            assert largest < 2**8
        if kind == "caterpillar":
            assert largest < 2**27


class TestTrustBoundary:
    """A construction that sum_shared did not build stands for its result alone."""

    def test_rank_deficient_claim_is_cut_to_its_rank(self):
        # rows 1 and 2 are equal, outside the support of x; the result is
        # homogeneous, so only the rank claim is false
        p = make([[1, 1, 1], [0, 1, 0], [0, 1, 0]], ["a", "b", "x"], ["t", "u", "v"])
        fake = SumConstruction(p, 1)
        assert graded(p) and dimension(p) == 2
        c = sum_shared(fake, quadric("w1", "w2", "x"), "x")
        assert len(c.result.params) == dimension(c.result) == 3
        assert c == sum_shared(p, quadric("w1", "w2", "x"), "x")

    @pytest.mark.filterwarnings("ignore:no kernel binomial")
    @pytest.mark.parametrize("wrong", range(4))
    def test_wrong_claimed_entry_is_ignored_on_local_path(self, wrong):
        # the shared column x has support {0, 1} of four rows; the entry a
        # hand-built construction claims besides its result is gamma
        p = make([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 1, 1], [0, 0, 0, 1, 1]],
                 ["a", "b", "x", "c", "d"], ["t", "u", "v", "w"])
        assert graded(p) and dimension(p) == 4
        expected = sum_shared(p, quadric("w1", "w2", "x"), "x")
        assert graded(expected.result) and expected.gamma == 1
        fake = SumConstruction(p, (0, -1, 2, 6)[wrong])
        assert sum_shared(fake, quadric("w1", "w2", "x"), "x") == expected

    @pytest.mark.filterwarnings("ignore:no kernel binomial")
    def test_false_maximal_rank_claim_is_ignored(self):
        # the support rows of x are dependent, so the construction's claim
        # of maximal rank is false: on two rows the recombined row would be
        # zero; on three, v = t + u and the rows recombined against t would
        # both be (0, -1, 1, 1), nonzero but dependent.  Both are homogeneous.
        cases = [
            ([[1, 1, 0], [2, 2, 0], [0, 0, 1]], ["a", "x", "b"]),
            ([[1, 1, 0, 0], [1, 0, 1, 1], [2, 1, 1, 1], [0, 1, 1, 1]], ["x", "a", "b", "c"]),
        ]
        for rows, var_names in cases:
            p = make(rows, var_names, [f"t{r}" for r in range(len(rows))])
            fake = SumConstruction(p, 1)
            assert graded(p) and dimension(p) < len(rows)
            c = sum_shared(fake, quadric("w1", "w2", "x"), "x")
            assert c == sum_shared(p, quadric("w1", "w2", "x"), "x")
            assert len(c.result.params) == dimension(c.result) == dimension(p) + 1

    def test_non_homogeneous_result_is_refused(self):
        # no grading vector exists: u1 and u2 would need degrees 1 and 1/2
        p = make([[1, 2, 1]], ["u1", "u2", "x"], ["t"])
        fake = SumConstruction(p, 1)
        with pytest.raises(ConstructionError, match="first input is not homogeneous"):
            sum_shared(fake, quadric("w1", "w2", "x"), "x")


def _checked_merges(monkeypatch):
    """Wrap ``sums.sum_shared``; every merge's result is checked, as it once was at run time.

    Its grading vector is solved by ``homogeneity_certificate``, apart from
    ``sums``, which computes none.
    """
    merges = []
    real = sums.sum_shared

    def checked(p1, p2, shared):
        c = real(p1, p2, shared)
        assert graded(c.result)
        assert len(c.result.params) == dimension(c.result)
        merges.append(shared)
        return c

    monkeypatch.setattr(sums, "sum_shared", checked)
    return merges


class TestMergeInvariants:
    """The rank and grading that sum_shared no longer checks hold at every merge."""

    @pytest.mark.filterwarnings("ignore:no kernel binomial")
    @pytest.mark.parametrize("kind", ["path", "star", "caterpillar"])
    def test_every_merge_is_certified_and_of_full_rank(self, kind, monkeypatch):
        merges = _checked_merges(monkeypatch)
        rng = random.Random(f"invariants:{kind}")
        families = [_random_family(rng, kind, rng.randint(2, 8))[0] for _ in range(20)]
        # repeated blocks with multi-row supports, on any tree of degree <= 3
        families += [_pooled_family(rng, rng.randint(4, 8))[0] for _ in range(10)]
        # copies of a cubic and of a block with negative entries, whose pins
        # are often negative, glued along the tree kind at hand
        for block in ([[3, 2, 1, 0], [0, 1, 2, 3]], [rng.sample(range(-3, 4), 4), [1] * 4]):
            families.append(_glued(block, _tree_of(kind, 24), 24))
        for ps in families:
            merges.clear()
            result, report = sum_family(ps)
            assert len(merges) == len(ps) - 1
            assert report.rank_dimension == dimension(result)

    def test_family_sum_checks_no_certificate(self, monkeypatch):
        calls = []
        real = HomogeneityCertificate.certifies

        def counted(self, p):
            calls.append(p.matrix.rows)
            return real(self, p)

        monkeypatch.setattr(HomogeneityCertificate, "certifies", counted)
        k = 32
        ps = _glued([[3, 2, 1, 0], [0, 1, 2, 3]], _tree_of("path", k), k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, report = sum_family(ps)
        assert calls == []
        assert report.rank_dimension == k + 1


class TestParameterNames:
    def test_deep_path_is_numbered_by_row(self):
        # names prefixed at every merge grew with the depth of the tree: the
        # longest had 383 characters on a path of 128 cubics
        k = 64
        ps = _glued([[3, 2, 1, 0], [0, 1, 2, 3]], _tree_of("path", k), k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, _ = sum_family(ps)
        assert result.params.names == tuple(f"t{r}" for r in range(1, k + 2))
        (parsed,) = parse_ideal_file(format_ideal_block("P", result))
        assert parsed.parametrization == result


def _cubic(a, d, prefix):
    """Twisted cubic with ends ``a`` and ``d`` and private middle variables."""
    return make([[3, 2, 1, 0], [0, 1, 2, 3]], [a, f"{prefix}b", f"{prefix}c", d], ["t", "s"])


NON_HOMOGENEOUS_X = make([[1, 2, 1]], ["u1", "u2", "x"], ["t"])
ZERO_X = make([[1, 2, 0]], ["v1", "v2", "x"], ["t"])


class TestPlainInputs:
    def test_each_input_solved_once(self, monkeypatch):
        import toricsum.parametrization as parametrization
        import toricsum.sums as sums

        calls = {"_solve_transposed": 0, "enumerate_kernel_binomials": 0,
                 "homogeneity_certificate": 0, "independent_rows": 0}
        for module in (sums, parametrization):
            for name in calls:
                if hasattr(module, name):
                    def counted(*args, _real=getattr(module, name), _name=name):
                        calls[_name] += 1
                        return _real(*args)

                    monkeypatch.setattr(module, name, counted)
        # six copies of one cubic and a quadric: two distinct blocks
        family = [_cubic(f"x{k}", f"x{k + 1}", f"c{k}_") for k in range(6)]
        family.append(quadric("w1", "w2", "x6"))
        _, report = sum_family(family)
        assert len(report.merges) == 6
        # one elimination and one usage search per distinct block, never on
        # a merged result
        assert calls == {"_solve_transposed": 2, "enumerate_kernel_binomials": 2,
                         "homogeneity_certificate": 0, "independent_rows": 0}
        # a path of k distinct blocks pays each of them once
        for name in calls:
            calls[name] = 0
        k = 5
        family = [make([[1, 1, 1, 1], [0, 1, 2, 3 + v]], [f"y{v}", f"b{v}", f"c{v}", f"y{v + 1}"],
                       ["t", "s"]) for v in range(k)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sum_family(family)
        assert calls == {"_solve_transposed": k, "enumerate_kernel_binomials": k,
                         "homogeneity_certificate": 0, "independent_rows": 0}

    def test_usage_search_runs_inside_a_merge(self, monkeypatch):
        # perfbench times the usage check as the search done under sum_shared
        import toricsum.sums as sums

        depth, outside = [0], []
        real_shared, real_search = sums.sum_shared, sums.enumerate_kernel_binomials

        def shared(*args):
            depth[0] += 1
            try:
                return real_shared(*args)
            finally:
                depth[0] -= 1

        def search(*args):
            if not depth[0]:
                outside.append(args)
            return real_search(*args)

        monkeypatch.setattr(sums, "sum_shared", shared)
        monkeypatch.setattr(sums, "enumerate_kernel_binomials", search)
        family = [_cubic(f"x{k}", f"x{k + 1}", f"c{k}_") for k in range(3)]
        family.append(quadric("w1", "w2", "x3"))
        sum_family(family)
        assert outside == []

    def test_zero_row_blocks_of_different_widths_stay_apart(self):
        # a matrix without rows has no entries at any width, so facts looked
        # up by entries alone could hand one block the other's; having zero
        # columns and so no grading vector, the first is refused at its lift,
        # before any facts are stored or any merge runs
        blocks = [
            Parametrization(VariableSet(()), VariableSet(names), IntegerMatrix(0, len(names), ()))
            for names in (("b", "c", "x"), ("a", "x"))
        ]
        assert blocks[0].matrix.entries == blocks[1].matrix.entries
        with pytest.raises(ConstructionError, match="'I1' is not homogeneous"):
            sum_family(blocks)

    def test_zero_column_is_refused_in_a_merge_and_joined_when_isolated(self):
        # z maps to 1, so z - 1 is in the ideal and no grading vector exists
        conic = quadric("a", "b", "c")
        with pytest.raises(ConstructionError, match="'I2' is not homogeneous"):
            sum_family([conic, make([[1, 0]], ["c", "z"], ["t"])])
        # an isolated ideal need not be homogeneous and is joined as it is
        total, report = sum_family([conic, make([[1, 0]], ["y", "z"], ["t"])])
        assert total.vars.names == ("a", "b", "c", "y", "z")
        assert total.matrix.entries == ((1, -1, 0, 0, 0), (1, 1, 1, 0, 0), (0, 0, 0, 1, 0))
        assert report.rank_dimension == 3

    @pytest.mark.parametrize(
        "p1, p2, message",
        [
            # both sides share x and y and neither is homogeneous
            (make([[1, 2, 1, 1]], ["u1", "u2", "x", "y"], ["t"]),
             make([[1, 2, 1, 1]], ["w1", "w2", "x", "y"], ["t"]), "share"),
            (ZERO_X, quadric("w1", "w2", "x"), "maps to 1"),
            (quadric("w1", "w2", "x"), ZERO_X, "maps to 1"),
            (ZERO_X, NON_HOMOGENEOUS_X, "maps to 1"),
            (NON_HOMOGENEOUS_X, ZERO_X, "first input is not homogeneous"),
            # a zero column off the shared variable is a homogeneity failure
            (quadric("w1", "w2", "x"), make([[1, 0]], ["x", "z"], ["t"]),
             "second input is not homogeneous"),
        ],
        ids=["shared-set", "zero-first", "zero-second", "zero-then-other", "first-side-first",
             "zero-unshared"],
    )
    def test_shared_variable_errors_come_before_homogeneity(self, p1, p2, message):
        with pytest.raises(ConstructionError, match=message):
            sum_shared(p1, p2, "x")

# x, y and the d's sit in a block whose only kernel binomial, d1*d2^2 - y^3,
# has degree 3; c1*c2 - x^2 involves x at degree 2.
CENTRE = make(
    [
        [1, -1, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 3, 0, 1],
        [0, 0, 0, 0, 3, 2],
    ],
    ["c1", "c2", "x", "d1", "d2", "y"],
    ["t", "s", "a", "b"],
)
CUBIC_X = make([[3, 0, 1], [0, 3, 2]], ["a1", "a2", "x"], ["t", "s"])


class TestUsageWarnings:
    def test_unused_shared_variable_warns_and_names_it(self):
        with pytest.warns(UserWarning, match=r"first ideal involves 'x' up to degree 2") as caught:
            sum_shared(CUBIC_X, quadric("w1", "w2", "x"), "x")
        assert len(caught) == 1

    def test_star_centre_warns_once_on_later_edge(self):
        family = [CENTRE, quadric("p1", "p2", "x"), quadric("q1", "q2", "y")]
        with pytest.warns(UserWarning, match="'y'") as caught:
            _, report = sum_family(family, ["C", "X", "Y"])
        assert report.merges == (("X", "C", "x"), ("C", "Y", "y"))
        assert [str(w.message).count("'y'") for w in caught] == [1]

    def test_carried_set_answers_only_its_own_degree(self):
        c = sum_shared(quadric("p1", "p2", "x"), CENTRE, "x")
        assert c.used_variables == {"p1", "p2", "x", "c1", "c2"}
        with pytest.warns(UserWarning, match="'y'"):
            sum_shared(c, quadric("q1", "q2", "y"), "y")


QUADRIC_ROWS = [[1, -1, 0], [1, 1, 1]]
CUBIC_ROWS = [[3, 2, 1, 0], [0, 1, 2, 3]]


def _golden_tree(kind, k, cap):
    if kind == "path":
        return [(v - 1, v) for v in range(1, k)]
    if kind == "star":
        return _broom(k, cap)
    # caterpillar: a path of k // 2 with one leg on each of its vertices
    return [(v - 1, v) for v in range(1, k // 2)] + [(v - k // 2, v) for v in range(k // 2, k)]


def _golden_families():
    """Seeded tree families whose sums the golden digest pins.

    Paths, stars and caterpillars of the quadric, the twisted cubic, a pool
    of random homogeneous blocks and the quadric mixed with a rank-deficient
    copy of itself; a pair whose shared variable meets no degree-2 binomial,
    beside an isolated ideal; and random families of mixed, negatively
    pinned and redundant blocks.
    """
    rng = random.Random(109)
    pool = []
    while len(pool) < 3:
        p = random_homogeneous_parametrization(rng, max_params=3, max_vars=4)
        if len(p.vars) == 4:
            pool.append([list(row) for row in p.matrix.entries])
    deficient = QUADRIC_ROWS + [QUADRIC_ROWS[0]]
    families = []
    for kind in ("path", "star", "caterpillar"):
        for blocks in ([QUADRIC_ROWS], [CUBIC_ROWS], pool, [QUADRIC_ROWS, deficient]):
            k = 6
            edges = _golden_tree(kind, k, min(len(b[0]) for b in blocks))
            chosen = [rng.choice(blocks) for _ in range(k)]
            # edge e's variable goes on a still free column of each end, as in _glued
            names = [[f"x{v}_{j}" for j in range(len(chosen[v][0]))] for v in range(k)]
            for e, (u, v) in enumerate(edges):
                for w in (u, v):
                    free = [j for j, n in enumerate(names[w]) if not n.startswith("s")]
                    names[w][free[(w + e) % len(free)]] = f"s{e}"
            families.append([make(rows, vs, [f"t{r}" for r in range(len(rows))])
                             for rows, vs in zip(chosen, names)])
    families.append([CUBIC_X, quadric("w1", "w2", "x"), quadric("u1", "u2", "u3")])
    for kind in ("path", "star", "caterpillar"):
        families += [_random_family(rng, kind, k)[0] for k in (3, 5, 7)]
    return families


def _golden_record(ps):
    """Every printed field of a family sum, its report and its warnings, as JSON data."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, report = sum_family(ps)
    graph = report.graph
    return {
        "params": list(result.params.names),
        "vars": list(result.vars.names),
        "matrix": [list(row) for row in result.matrix.entries],
        "ids": list(graph.ids),
        "edges": [list(edge) for edge in graph.edges],
        "components": [[list(c.vertices), c.is_tree] for c in graph.components],
        "input_dimensions": list(report.input_dimensions),
        "rank_dimension": report.rank_dimension,
        "merges": [list(merge) for merge in report.merges],
        "warnings": [str(w.message) for w in caught],
    }


# sha256 of the golden records.  A change that alters a printed sum updates
# this constant and says so in CHANGES.md.
GOLDEN_FAMILY_DIGEST = "83a9fadb9be94f9beaa17691d6aff93f59afa070051aec4286726e2dffb5542c"


class TestGoldenOutputs:
    def test_family_sums_unchanged(self):
        records = [_golden_record(ps) for ps in _golden_families()]
        assert any(r["warnings"] for r in records)
        assert any(len(r["components"]) > 1 for r in records)
        text = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_FAMILY_DIGEST


def hilbert_function(p, top):
    """H(e) for e = 0..top: the number of distinct images A u with |u| = e.

    The images of degree e are those of degree e - 1 plus one column each,
    so no monomial is listed.
    """
    columns = list(zip(*p.matrix.entries)) if p.matrix.rows else [()] * len(p.vars)
    images = {(0,) * p.matrix.rows}
    counts = [1]
    for _ in range(top):
        images = {tuple(a + c for a, c in zip(image, col)) for image in images for col in columns}
        counts.append(len(images))
    return counts


def times(f, g):
    """The product of two power series, truncated to the length of ``f``."""
    return [sum(f[i] * g[e - i] for i in range(e + 1) if e - i < len(g)) for e in range(len(f))]


@pytest.mark.filterwarnings("ignore:no kernel binomial")
class TestHilbertFunction:
    @pytest.mark.parametrize("tree", ["path", "star", "caterpillar", "random"])
    def test_glued_trees(self, tree):
        # Each block's ring R_i is a domain containing k[s] for a shared
        # variable s, so free over it, and gluing along s gives
        # H_1(t) H_2(t) (1 - t).  A tree of k blocks and an isolated one
        # (a disjoint sum, a plain product): H_sum = prod H_i * (1 - t)^(k-1)
        # up to degree 4, counted on the matrices alone
        rng = random.Random(f"hilbert:{tree}")
        top = 4
        for k in range(2, 6):
            for _ in range(3):
                kinds = [rng.choice(["quadric", "conic", "cubic", "random"]) for _ in range(k + 1)]
                if tree == "star" and k == 5:
                    # four leaves need a centre with four columns
                    kinds[0] = rng.choice(["cubic", "random"])
                ps = [make(rows, vars_, ["t", "u"])
                      for _, vars_, rows, _ in forest_family(tree, kinds, rng)]
                result, _ = sum_family(ps)
                want = [1] + [0] * top
                for p in ps:
                    want = times(want, hilbert_function(p, top))
                for _ in range(k - 1):
                    want = times(want, [1, -1])
                assert hilbert_function(result, top) == want, (tree, kinds)
