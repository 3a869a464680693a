"""Kernel enumeration, monomial rewriting, and sum certification."""

import inspect
import random
import subprocess
import sys
import textwrap
from collections import Counter, deque

import pytest

from helpers import (
    counting_certify,
    forest_family,
    quadric,
    random_homogeneous_parametrization,
    random_parametrization,
)
from toricsum import (
    Binomial,
    CertificationVerdict,
    DegreeBound,
    EQUAL_UP_TO_DEGREE,
    IntegerMatrix,
    MISSING_IN_KERNEL,
    MISSING_IN_SUM,
    Parametrization,
    VariableSet,
    certify_family,
    certify_presentation,
    contains_binomial,
    enumerate_kernel_binomials,
    evaluate,
    format_binomial,
    membership_by_classes,
    parse_binomial,
    reduces_to_zero,
    relabel_binomial,
    sum_family,
    sum_shared,
)
from toricsum import oracle
from toricsum.oracle import (
    _check_variables,
    _forest_failure,
    _kernel_binomials_by_degree,
    _RewriteForest,
    _monomials_of_degree,
    _sparse_sides,
    rewrite_chain,
)
from toricsum.parametrization import homogeneity_certificate


TWISTED_CUBIC = Parametrization(
    VariableSet.of("t", "s"),
    VariableSet.of("x0", "x1", "x2", "x3"),
    IntegerMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]]),
)

# the monomial curve (2, 3): a = t^2, b = t, c = t^3, cut out by
# generators that are not degree-balanced
CURVE_23 = Parametrization(
    VariableSet.of("t"), VariableSet.of("a", "b", "c"), IntegerMatrix.from_rows([[2, 1, 3]])
)
CURVE_23_GENS = [parse_binomial("a - b^2", CURVE_23.vars), parse_binomial("c - b^3", CURVE_23.vars)]


def reference_kernel_binomials(p, degree):
    """Star-pattern enumeration with one ``evaluate`` per monomial.

    One bucket map holds every degree from 0 to ``degree``.
    """
    buckets = {}
    for e in range(degree + 1):
        for mono in _monomials_of_degree(len(p.vars), e):
            buckets.setdefault(evaluate(p, mono), []).append(mono)
    found = set()
    for members in buckets.values():
        rep = min(members)
        found.update(Binomial.from_pair(m, rep) for m in members if m != rep)
    return sorted(found, key=lambda b: b.sort_key())


def one_shot_kernel_binomials(p, d):
    """The one-shot enumerator on dense exponent tuples, kept as the reference.

    Every monomial of degree 0..d is one tuple (exponents, support, image
    key, degree, last variable) in one map of buckets, and the sorted list
    is built at the end.  The public enumerator and the degree stream must
    both reproduce its output and order.
    """
    n = len(p.vars)
    rows = p.matrix.entries
    base = 2 * d.max_degree * max((abs(x) for row in rows for x in row), default=0) + 1
    columns = [0] * n
    for row in reversed(rows):
        columns = [c * base + x for c, x in zip(columns, row)]
    constant = ((0,) * n, 0, 0, 0, 0)
    layer = [constant]
    buckets = {0: [constant]}
    mixed = False
    for degree in range(1, d.max_degree + 1):
        grown = []
        for mono, support, image, _, last in layer:
            for j in range(last, n):
                child = (mono[:j] + (mono[j] + 1,) + mono[j + 1:], support | 1 << j,
                         image + columns[j], degree, j)
                grown.append(child)
                bucket = buckets.get(child[2])
                if bucket is None:
                    buckets[child[2]] = [child]
                else:
                    mixed = mixed or bucket[0][3] != degree
                    bucket.append(child)
        layer = grown
    stars = [(min(members), members) for members in buckets.values() if len(members) > 1]
    minima = {rep[0] for rep, _ in stars} if mixed else set()
    found = []
    shared = set()
    for (rep, rep_support, _, rep_degree, _), members in stars:
        for m, support, _, m_degree, _ in members:
            if m is rep:
                continue
            if not support & rep_support:
                found.append((max(m_degree, rep_degree), m, rep))
            elif mixed:
                minus = tuple(r - a if r > a else 0 for a, r in zip(m, rep))
                if minus not in minima:
                    plus = tuple(a - r if a > r else 0 for a, r in zip(m, rep))
                    shared.add((max(sum(plus), sum(minus)), plus, minus))
    found += shared
    found.sort()
    return [Binomial(plus, minus) for _, plus, minus in found]


def pair_binomial(pair, n):
    """The binomial of a degree-stream pair, two sides' variable indices over ``n`` variables."""
    plus, minus = (tuple(side.count(i) for i in range(n)) for side in pair)
    return Binomial(plus, minus)


def bfs_distance(b, gens, cap):
    """Fewest rewrite moves from ``b.u_plus`` to ``b.u_minus`` within ``cap``."""
    dist = {b.u_plus: 0}
    queue = deque([b.u_plus])
    while queue:
        mono = queue.popleft()
        if mono == b.u_minus:
            return dist[mono]
        for g in gens:
            for a, c in ((g.u_plus, g.u_minus), (g.u_minus, g.u_plus)):
                if all(m >= x for m, x in zip(mono, a)):
                    image = tuple(m - x + y for m, x, y in zip(mono, a, c))
                    if sum(image) <= cap and image not in dist:
                        dist[image] = dist[mono] + 1
                        queue.append(image)
    return None


def component(mono, gens, cap):
    """The monomials joined to ``mono`` by rewrite moves of ``gens`` within degree ``cap``."""
    seen = {mono}
    queue = deque([mono])
    while queue:
        m = queue.popleft()
        for g in gens:
            for a, c in ((g.u_plus, g.u_minus), (g.u_minus, g.u_plus)):
                if all(x >= y for x, y in zip(m, a)):
                    image = tuple(x - y + z for x, y, z in zip(m, a, c))
                    if sum(image) <= cap and image not in seen:
                        seen.add(image)
                        queue.append(image)
    return seen


class ReferenceForest:
    """The rewrite forest on exponent tuples, every move tried in index order.

    Moves are indexed by the first variable of their divisor, tested
    coordinate by coordinate against the degree cap and applied to the
    exponents they change; trees are keyed by exponent tuples.  The
    forest of ``oracle`` must grow the same trees, so it returns the same
    chains.
    """

    def __init__(self, gens, d):
        active = [(k, g) for k, g in enumerate(gens) if not g.is_zero]
        self._nvars = {g.nvars for _, g in active}
        self._slack = 0 if all(g.is_balanced for _, g in active) else d.search_slack
        by_var = {}
        self._everywhere = []
        for k, g in active:
            for a, bb, direction in ((g.u_plus, g.u_minus, 1), (g.u_minus, g.u_plus, -1)):
                divisor = tuple((i, x) for i, x in enumerate(a) if x)
                delta = tuple((i, y - x) for i, (x, y) in enumerate(zip(a, bb)) if x != y)
                move = (divisor, sum(bb) - sum(a), delta, k, direction)
                if divisor:
                    by_var.setdefault(divisor[0][0], []).append(move)
                else:
                    self._everywhere.append(move)
        self._by_var = sorted(by_var.items())
        self._trees = {}

    def chain(self, b):
        if self._nvars - {b.nvars}:
            raise ValueError("generators and binomial are over different variable sets")
        if b.is_zero:
            return []
        start, target = b.u_plus, b.u_minus
        cap = max(sum(start), sum(target)) + self._slack
        tree = self._trees.setdefault(cap, {})
        if start not in tree:
            self._explore(start, tree, cap)
        root = tree[start][0]
        if target not in tree or tree[target][0] != root:
            return None
        up = [(k, -direction) for k, direction in self._path_to_root(start, tree)]
        down = self._path_to_root(target, tree)
        down.reverse()
        return up + down

    def _explore(self, root, tree, cap):
        tree[root] = (root, None, -1, 0)
        queue = deque([root])
        while queue:
            mono = queue.popleft()
            room = cap - sum(mono)
            for moves in [ms for i, ms in self._by_var if mono[i]] + [self._everywhere]:
                for divisor, step, delta, k, direction in moves:
                    if step > room:
                        continue
                    if all(mono[i] >= x for i, x in divisor):
                        moved = list(mono)
                        for i, x in delta:
                            moved[i] += x
                        image = tuple(moved)
                        if image not in tree:
                            tree[image] = (root, mono, k, direction)
                            queue.append(image)

    @staticmethod
    def _path_to_root(node, tree):
        steps = []
        _, prev, k, direction = tree[node]
        while prev is not None:
            steps.append((k, direction))
            _, prev, k, direction = tree[prev]
        return steps


def replay_chain(b, gens, chain):
    """Apply ``chain`` to ``b.u_plus`` move by move; it must end at ``b.u_minus``.

    The checker of every chain the tests read: it reads the generators,
    not the forest, and raises RuntimeError on a move whose divisor does
    not divide the current monomial, or on a wrong endpoint.
    """
    mono = list(b.u_plus)
    for step, (k, direction) in enumerate(chain):
        plus, minus = gens[k].u_plus, gens[k].u_minus
        take, give = (plus, minus) if direction == 1 else (minus, plus)
        if any(m < x for m, x in zip(mono, take)):
            raise RuntimeError(f"rewrite chain step {step} does not apply to {tuple(mono)}")
        mono = [m - x + y for m, x, y in zip(mono, take, give)]
    if tuple(mono) != b.u_minus:
        raise RuntimeError(f"rewrite chain ends at {tuple(mono)}, not {b.u_minus}")


def forest_chain(forest, gens, b):
    """:func:`rewrite_chain`'s query and chain on ``forest``, whose trees outlive the call."""
    _check_variables(gens, b.nvars)
    if b.is_zero:
        return []
    if not forest.members(b.degree, _sparse_sides(gens))(b.u_plus, b.u_minus):
        return None
    return forest.path(b.degree, b.u_plus, b.u_minus)


def chain_or_error(chain, b):
    try:
        return chain(b)
    except ValueError as e:
        return f"ValueError: {e}"


class TestEnumerate:
    def test_twisted_cubic_degree_two(self):
        found = enumerate_kernel_binomials(TWISTED_CUBIC, DegreeBound(2))
        expected = {
            parse_binomial(t, TWISTED_CUBIC.vars)
            for t in ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")
        }
        assert set(found) == expected

    def test_injective_is_empty(self):
        p = Parametrization(
            VariableSet.of("t", "s"), VariableSet.of("a", "b"), IntegerMatrix.identity(2)
        )
        assert enumerate_kernel_binomials(p, DegreeBound(3)) == []

    def test_equal_columns(self):
        p = Parametrization(
            VariableSet.of("t"), VariableSet.of("a", "b"), IntegerMatrix.from_rows([[1, 1]])
        )
        found = enumerate_kernel_binomials(p, DegreeBound(1))
        assert found == [Binomial((1, 0), (0, 1))]

    @pytest.mark.parametrize("rows, names, degree, expected", [
        # x^2 and y share the image t^2 at different degrees
        ([[1, 2]], ("x", "y"), 2, "x^2 - y"),
        # x*y shares the image of the constant monomial
        ([[1, -1]], ("x", "y"), 2, "x*y - 1"),
        # so does a variable with a zero column
        ([[1, 0, 2], [0, 0, 1]], ("a", "b", "c"), 1, "b - 1"),
    ])
    def test_unbalanced_fibers(self, rows, names, degree, expected):
        params = VariableSet(tuple(f"t{i}" for i in range(len(rows))))
        p = Parametrization(params, VariableSet(names), IntegerMatrix.from_rows(rows))
        found = enumerate_kernel_binomials(p, DegreeBound(degree))
        assert [format_binomial(b, p.vars) for b in found] == [expected]

    def test_one_binomial_per_distinct_vector(self):
        found = enumerate_kernel_binomials(TWISTED_CUBIC, DegreeBound(4))
        assert len(found) == len(set(found)) == 8
        assert found == reference_kernel_binomials(TWISTED_CUBIC, 4)

    def test_shared_pair_of_a_mixed_degree_bucket(self):
        # The bucket {x, y, z^2} has minimum z^2, so x*y - y^2 shares y
        # with a pair (x, y) whose smaller side is not the minimum of its
        # bucket; its binomial x - y comes from that shared pair alone.
        p = Parametrization(
            VariableSet.of("t"), VariableSet.of("x", "y", "z"), IntegerMatrix.from_rows([[2, 2, 1]])
        )
        found = enumerate_kernel_binomials(p, DegreeBound(2))
        assert [format_binomial(b, p.vars) for b in found] == \
            ["x - y", "y - z^2", "x - z^2", "x^2 - y^2"]
        assert found == reference_kernel_binomials(p, 2)

    def test_emitted_binomials_are_kernel_members(self):
        rng = random.Random(61)
        for _ in range(30):
            p = random_homogeneous_parametrization(rng)
            for b in enumerate_kernel_binomials(p, DegreeBound(3)):
                assert contains_binomial(p, b)

    def test_output_sorted_and_deduplicated(self):
        found = enumerate_kernel_binomials(TWISTED_CUBIC, DegreeBound(3))
        assert found == sorted(set(found), key=lambda b: b.sort_key())

    def test_star_spans_all_pairs(self):
        rng = random.Random(67)
        for _ in range(20):
            p = random_homogeneous_parametrization(rng, max_params=3, max_vars=4)
            degree = rng.randint(1, 3)
            gens = enumerate_kernel_binomials(p, DegreeBound(degree))
            if not gens:
                continue
            buckets: dict[tuple, list] = {}
            from toricsum.oracle import _monomials_of_degree

            for mono in _monomials_of_degree(len(p.vars), degree):
                buckets.setdefault(evaluate(p, mono), []).append(mono)
            for members in buckets.values():
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        pair = Binomial.from_pair(members[i], members[j])
                        assert membership_by_classes(pair, gens)


class TestRewriting:
    VS = VariableSet.of("z1", "z2", "w1", "w2", "x")

    def gens(self):
        return [
            parse_binomial("z1*z2 - x^2", self.VS),
            parse_binomial("w1*w2 - x^2", self.VS),
        ]

    def test_two_move_chain(self):
        b = parse_binomial("z1*z2 - w1*w2", self.VS)
        chain = rewrite_chain(b, self.gens(), DegreeBound(3))
        assert chain is not None and len(chain) == 2
        assert reduces_to_zero(b, self.gens(), DegreeBound(3))

    def test_empty_generators(self):
        b = parse_binomial("x0*x2 - x1^2", TWISTED_CUBIC.vars)
        assert not reduces_to_zero(b, [], DegreeBound(3))

    def test_zero_binomial(self):
        assert reduces_to_zero(Binomial.zero(5), self.gens(), DegreeBound(2))
        assert rewrite_chain(Binomial.zero(5), [], DegreeBound(1)) == []

    def test_agrees_with_union_find(self):
        rng = random.Random(71)
        for _ in range(50):
            p = random_homogeneous_parametrization(rng, max_params=3, max_vars=4)
            gens = enumerate_kernel_binomials(p, DegreeBound(2))
            n = len(p.vars)
            for _ in range(5):
                degree = rng.randint(1, 3)
                mono1 = tuple(rng.randint(0, degree) for _ in range(n))
                mono2 = list(mono1)
                rng.shuffle(mono2)
                b = Binomial.from_pair(mono1, tuple(mono2))
                assert reduces_to_zero(b, gens, DegreeBound(3)) == membership_by_classes(b, gens)

    def test_unbalanced_generator_uses_slack(self):
        # the monomial curve (2, 3): rewriting a^3 into c^2 has to pass
        # through monomials of degree 5, so slack 0 cannot find the chain
        vs = VariableSet.of("a", "b", "c")
        gens = [parse_binomial("a - b^2", vs), parse_binomial("c - b^3", vs)]
        b = parse_binomial("a^3 - c^2", vs)
        assert reduces_to_zero(b, gens, DegreeBound(2, search_slack=2))
        assert not reduces_to_zero(b, gens, DegreeBound(2, search_slack=0))


class TestMembershipByClasses:
    def test_requires_balanced(self):
        vs = VariableSet.of("a", "b")
        with pytest.raises(ValueError, match="balanced"):
            membership_by_classes(
                parse_binomial("a - b", vs), [parse_binomial("a - b^2", vs)]
            )
        wider = VariableSet.of("a", "b", "c")
        with pytest.raises(ValueError, match="different variable sets"):
            membership_by_classes(parse_binomial("a - b", vs), [parse_binomial("a - c", wider)])

    def test_unbalanced_target_is_never_member(self):
        vs = VariableSet.of("a", "b")
        assert not membership_by_classes(
            parse_binomial("a - b^2", vs), [parse_binomial("a - b", vs)]
        )


class TestCertify:
    def test_glued_quadrics_pass(self):
        c = sum_shared(quadric("z1", "z2", "x"), quadric("w1", "w2", "x"), "x")
        vs = c.result.vars
        gens1 = [parse_binomial("z1*z2 - x^2", vs)]
        gens2 = [parse_binomial("w1*w2 - x^2", vs)]
        verdict = certify_presentation(c.result, gens1 + gens2, DegreeBound(3))
        assert verdict.status == EQUAL_UP_TO_DEGREE
        assert verdict.degree_checked == 3
        assert verdict.witness is None

    def test_missing_generator_detected(self):
        c = sum_shared(quadric("z1", "z2", "x"), quadric("w1", "w2", "x"), "x")
        vs = c.result.vars
        gens1 = [parse_binomial("z1*z2 - x^2", vs)]
        verdict = certify_presentation(c.result, gens1, DegreeBound(3))
        assert verdict.status == MISSING_IN_SUM
        assert format_binomial(verdict.witness, vs) == "w1*w2 - x^2"

    def test_foreign_generator_detected(self):
        c = sum_shared(quadric("z1", "z2", "x"), quadric("w1", "w2", "x"), "x")
        vs = c.result.vars
        gens1 = [parse_binomial("z1*z2 - x^2", vs)]
        gens2 = [parse_binomial("w1 - w2", vs)]  # not a relation of the sum
        verdict = certify_presentation(c.result, gens1 + gens2, DegreeBound(3))
        assert verdict.status == MISSING_IN_KERNEL
        assert verdict.witness == parse_binomial("w1 - w2", vs)

    def test_trivial_kernels(self):
        p1 = Parametrization(
            VariableSet.of("t", "s"),
            VariableSet.of("z1", "x"),
            IntegerMatrix.identity(2),
        )
        p2 = Parametrization(
            VariableSet.of("t", "s"),
            VariableSet.of("w1", "x"),
            IntegerMatrix.identity(2),
        )
        with pytest.warns(UserWarning, match="involves 'x'") as caught:
            c = sum_shared(p1, p2, "x")
        assert len(caught) == 2
        verdict = certify_presentation(c.result, (), DegreeBound(3))
        assert verdict.status == EQUAL_UP_TO_DEGREE

    def test_certify_presentation_directly(self):
        gens = [parse_binomial(t, TWISTED_CUBIC.vars)
                for t in ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")]
        verdict = certify_presentation(TWISTED_CUBIC, gens, DegreeBound(3))
        assert verdict.status == EQUAL_UP_TO_DEGREE


def forest_inputs(rng, tree, kinds, ungraded):
    """:func:`forest_family`'s blocks as (parametrization, generators) inputs.

    With ``ungraded`` the isolated block is replaced by a random one with
    no grading, whose generators are its kernel binomials up to degree 2
    or 3.
    """
    inputs = []
    for _, vars_, rows, gens in forest_family(tree, kinds, rng):
        p = Parametrization(VariableSet.of("t", "u"), VariableSet(tuple(vars_)),
                            IntegerMatrix.from_rows(rows))
        inputs.append((p, [parse_binomial(g, p.vars) for g in gens]))
    if ungraded:
        p = random_parametrization(rng, max_params=2, max_vars=3, prefix="y")
        while homogeneity_certificate(p) is not None:
            p = random_parametrization(rng, max_params=2, max_vars=3, prefix="y")
        inputs[-1] = p, enumerate_kernel_binomials(p, DegreeBound(rng.choice((2, 3))))
    return inputs


def cubic_copies(k, gens):
    """k twisted cubics along a path, cubic v sharing s(v-1) and s(v), each with ``gens``."""
    return [(Parametrization(TWISTED_CUBIC.params,
                             VariableSet.of(f"a{v}", f"s{v - 1}" if v else "b0",
                                            f"s{v}" if v < k - 1 else f"c{v}", f"d{v}"),
                             TWISTED_CUBIC.matrix), gens)
            for v in range(k)]


@pytest.mark.filterwarnings("ignore:no kernel binomial")
class TestCertifyFamily:
    @pytest.mark.parametrize("tree", ["path", "star", "caterpillar", "random"])
    def test_matches_the_whole_sum(self, tree):
        # a tree of three blocks and an isolated one, without a grading half
        # of the time, less one generator half of the time, at degrees 2 to
        # 4 and slack 0 to 2: the verdict is that of certify_presentation on
        # the assembled sum, and a witness other than the whole sum's is
        # still in the sum's kernel and out of the generators' reach
        rng = random.Random(f"certify-family:{tree}")
        statuses, other_witness = Counter(), 0
        for _ in range(40):
            kinds = [rng.choice(["quadric", "conic", "cubic", "quartic", "random"])
                     for _ in range(4)]
            inputs = forest_inputs(rng, tree, kinds, ungraded=rng.random() < 0.5)
            if rng.random() < 0.5:
                gens = rng.choice([gens for _, gens in inputs if gens])
                gens.pop(rng.randrange(len(gens)))
            d = DegreeBound(rng.randint(2, 4), rng.randint(0, 2))
            verdict, index = certify_family(inputs, d)
            result, _ = sum_family([p for p, _ in inputs])
            gens = [relabel_binomial(g, p.vars, result.vars) for p, gs in inputs for g in gs]
            want = certify_presentation(result, gens, d)
            assert (verdict.status, verdict.degree_checked) == (want.status, want.degree_checked)
            statuses[verdict.status] += 1
            if verdict.status == EQUAL_UP_TO_DEGREE:
                assert (verdict.witness, index) == (None, None)
                continue
            p, gs = inputs[index]
            assert all((q.matrix, list(hs)) != (p.matrix, list(gs)) for q, hs in inputs[:index])
            w = relabel_binomial(verdict.witness, p.vars, result.vars)
            if w == want.witness:
                continue
            other_witness += 1
            assert verdict.status == MISSING_IN_SUM
            assert w.degree <= d.max_degree and contains_binomial(result, w)
            if all(g.is_balanced for g in gens):
                assert not membership_by_classes(w, gens)
            else:
                assert not reduces_to_zero(w, gens, d)
        assert statuses[EQUAL_UP_TO_DEGREE] and statuses[MISSING_IN_SUM]
        assert other_witness

    def test_copies_enumerate_one_kernel(self, monkeypatch):
        # a quadric glued to the first of four twisted cubics: the cubics
        # share their matrix and generators, so one cubic kernel is
        # read, and a failure among them is reported at the first copy
        calls = counting_certify(monkeypatch)
        minors = [parse_binomial(t, TWISTED_CUBIC.vars)
                  for t in ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")]
        q = quadric("z1", "z2", "a0")
        head = q, [parse_binomial("z1*z2 - a0^2", q.vars)]
        inputs = [head, *cubic_copies(4, minors)]
        verdict, index = certify_family(inputs, DegreeBound(4))
        assert (verdict.status, verdict.degree_checked, index) == (EQUAL_UP_TO_DEGREE, 4, None)
        assert calls == [3, 4]

        calls.clear()
        verdict, index = certify_family([head, *cubic_copies(4, minors[:2])], DegreeBound(4))
        assert (verdict.status, index) == (MISSING_IN_SUM, 1)
        assert format_binomial(verdict.witness, inputs[1][0].vars) == "a0*d0 - b0*s0"
        assert calls == [3, 4]

        calls.clear()
        foreign = minors + [parse_binomial("x0 - x1", TWISTED_CUBIC.vars)]
        verdict, index = certify_family([head, *cubic_copies(4, foreign)], DegreeBound(4))
        assert (verdict.status, verdict.witness, index) == (MISSING_IN_KERNEL, foreign[-1], 1)
        assert calls == []


class TestIncrementalEnumeration:
    def test_matches_per_monomial_evaluation(self):
        rng = random.Random(73)
        ps = [TWISTED_CUBIC, CURVE_23]
        ps += [random_homogeneous_parametrization(rng, max_params=3, max_vars=5) for _ in range(8)]
        ps += [random_parametrization(rng, max_params=3, max_vars=5) for _ in range(8)]
        # no grading, so buckets mix degrees and a pair sharing a variable
        # may give the only copy of its binomial
        ps += [random_parametrization(rng, max_params=2, max_vars=5) for _ in range(60)]
        ps += [
            # no parameters: every monomial of a degree shares one image
            Parametrization(VariableSet(()), VariableSet.of("a", "b", "c"), IntegerMatrix.zero(0, 3)),
            # a zero column, so b times anything has the image of anything
            Parametrization(VariableSet.of("t", "s"), VariableSet.of("a", "b", "c"),
                            IntegerMatrix.from_rows([[1, 0, 2], [0, 0, 1]])),
            Parametrization(VariableSet.of("t"), VariableSet(()), IntegerMatrix.zero(1, 0)),
        ]
        for p in ps:
            for degree in range(1, 5):
                assert enumerate_kernel_binomials(p, DegreeBound(degree)) == \
                    reference_kernel_binomials(p, degree)

    def test_packed_images_match_tuple_keys(self):
        # Images are keyed by one int each; entries up to +-7 of both signs,
        # zero rows and no rows at all must give the tuple-keyed buckets.
        rng = random.Random(2718)
        shapes = [([[1, 2]], 2), ([[7, -7, 0], [-7, 7, 1]], 3), ([[0, 0, 0]], 3), ([], 2)]
        for _ in range(30):
            cols = rng.randint(1, 5)
            rows = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.3:
                rows.insert(rng.randrange(len(rows) + 1), [0] * cols)
            shapes.append((rows, cols))
        for rows, cols in shapes:
            p = Parametrization(
                VariableSet(tuple(f"t{r}" for r in range(len(rows)))),
                VariableSet(tuple(f"x{j}" for j in range(cols))),
                IntegerMatrix.from_rows(rows, cols=cols),
            )
            for degree in range(1, 5):
                assert enumerate_kernel_binomials(p, DegreeBound(degree)) == \
                    reference_kernel_binomials(p, degree)


class TestDegreeStream:
    def test_matches_the_one_shot_enumerator(self):
        # graded and ungraded random matrices, zero columns, no rows and no
        # columns, at degrees 1 to 4, and 5 on at most four variables, where
        # mixed-degree buckets run deeper: the public list and the stream,
        # read degree by degree, both give the reference's binomials in its
        # order
        rng = random.Random(97)
        ps = [TWISTED_CUBIC, CURVE_23]
        for _ in range(970):
            ps.append(random_homogeneous_parametrization(rng, max_params=3, max_vars=6))
            ps.append(random_parametrization(rng, max_params=3, max_vars=5))
        ps += [
            Parametrization(VariableSet(()), VariableSet.of("a", "b", "c"), IntegerMatrix.zero(0, 3)),
            Parametrization(VariableSet.of("t", "s"), VariableSet.of("a", "b", "c"),
                            IntegerMatrix.from_rows([[1, 0, 2], [0, 0, 1]])),
            Parametrization(VariableSet.of("t"), VariableSet(()), IntegerMatrix.zero(1, 0)),
        ]
        graded = Counter()
        for p in ps:
            graded[homogeneity_certificate(p) is not None] += 1
            for degree in range(1, 6 if len(p.vars) <= 4 else 5):
                d = DegreeBound(degree)
                expected = one_shot_kernel_binomials(p, d)
                assert enumerate_kernel_binomials(p, d) == expected
                streamed = list(_kernel_binomials_by_degree(p, d))
                degrees = [e for e, _ in streamed]
                assert degrees == sorted(set(degrees))
                for e, binomials in streamed:
                    assert binomials == [b for b in expected if b.degree == e]
                assert [b for _, binomials in streamed for b in binomials] == expected
        assert min(graded[True], graded[False]) > 500

    def test_certification_stops_at_the_failing_degree(self, monkeypatch):
        # the twisted cubic less one quadric fails at degree 2, so the
        # monomials of degrees 3 and 4 are never grown, and the witness is
        # the one-shot list's first binomial outside the generators' ideal
        gens = enumerate_kernel_binomials(TWISTED_CUBIC, DegreeBound(2))[1:]
        read = []
        real = oracle._layers

        def recording(p, d):
            for layer in real(p, d):
                read.append(len(layer[0][0]))
                yield layer

        monkeypatch.setattr(oracle, "_layers", recording)
        verdict = certify_presentation(TWISTED_CUBIC, gens, DegreeBound(4))
        assert read == [1, 2]
        expected = next(b for b in one_shot_kernel_binomials(TWISTED_CUBIC, DegreeBound(4))
                        if not membership_by_classes(b, gens))
        assert (verdict.status, verdict.witness) == (MISSING_IN_SUM, expected)
        # without a grading a bucket may mix degrees, so the forest route
        # buckets every layer up to the bound before its first query:
        # RNC(6) with z -> s, less its first minor, fails at degree 2 with
        # layers 1 to 5 grown, but no binomial of a later degree is queried
        p, minors = rnc_minors(6, ungraded=True)
        gens, d = minors[1:], DegreeBound(5)
        read.clear()
        queried = []
        members = _RewriteForest.members

        def recording_members(self, degree, sides):
            member = members(self, degree, sides)

            def recorded(plus, minus):
                queried.append(max(sum(plus), sum(minus)))
                return member(plus, minus)

            return recorded

        monkeypatch.setattr(_RewriteForest, "members", recording_members)
        verdict = certify_presentation(p, gens, d)
        assert read == [1, 2, 3, 4, 5]
        expected = next(b for b in one_shot_kernel_binomials(p, d)
                        if not membership_by_classes(b, gens))
        assert (verdict.status, verdict.witness) == (MISSING_IN_SUM, expected)
        assert expected.degree == max(queried) == 2


class TestRewriteForest:
    def test_replay_rejects_corrupted_chains(self):
        # the checker the chain tests below rely on
        vs = VariableSet.of("z1", "z2", "w1", "w2", "x")
        gens = [parse_binomial("z1*z2 - x^2", vs), parse_binomial("w1*w2 - x^2", vs)]
        b = parse_binomial("z1*z2 - w1*w2", vs)
        chain = rewrite_chain(b, gens, DegreeBound(3))
        replay_chain(b, gens, chain)
        (k, direction), rest = chain[0], chain[1:]
        with pytest.raises(RuntimeError, match="does not apply"):
            replay_chain(b, gens, [(k, -direction)] + rest)
        with pytest.raises(RuntimeError, match="ends at"):
            replay_chain(b, gens, chain[:1])
        with pytest.raises(RuntimeError, match="ends at"):
            replay_chain(b, gens, [])

    def test_chain_is_shortest(self):
        rng = random.Random(79)
        cases = [(CURVE_23_GENS, parse_binomial("a^3 - c^2", CURVE_23.vars), DegreeBound(3, 2))]
        for _ in range(40):
            p = random_homogeneous_parametrization(rng, max_params=3, max_vars=4)
            gens = enumerate_kernel_binomials(p, DegreeBound(2))
            for b in enumerate_kernel_binomials(p, DegreeBound(3))[:6]:
                cases.append((gens, b, DegreeBound(3)))
        hits = 0
        for gens, b, d in cases:
            cap = b.degree + (0 if all(g.is_balanced for g in gens) else d.search_slack)
            chain = rewrite_chain(b, gens, d)
            distance = bfs_distance(b, gens, cap)
            assert (chain is None) == (distance is None)
            if chain is not None:
                hits += 1
                assert len(chain) == distance
                replay_chain(b, gens, chain)
        assert hits > len(cases) // 2

    def test_chains_through_a_shared_root(self):
        gens = enumerate_kernel_binomials(TWISTED_CUBIC, DegreeBound(2))
        forest = _RewriteForest(gens, DegreeBound(3))
        for b in enumerate_kernel_binomials(TWISTED_CUBIC, DegreeBound(3)):
            replay_chain(b, gens, forest_chain(forest, gens, b))
        vs = TWISTED_CUBIC.vars
        assert forest_chain(forest, gens, parse_binomial("x0^2 - x1*x2", vs)) is None
        with pytest.raises(ValueError, match="different variable sets"):
            forest_chain(forest, gens, Binomial.zero(3))

    def test_certification_replays_against_the_generators(self, monkeypatch):
        # a forest whose move labels name the wrong generator for every move
        # still finds each chain, but the replay reads the generators
        # themselves; the curve (2, 3) has no grading, so it is certified on
        # the forest
        original = _RewriteForest.__init__

        def mislabelled(self, gens, d):
            original(self, list(gens[1:]) + list(gens[:1]), d)

        monkeypatch.setattr(_RewriteForest, "__init__", mislabelled)
        with pytest.raises(RuntimeError, match="rewrite chain"):
            certify_presentation(CURVE_23, CURVE_23_GENS, DegreeBound(3))

    def test_certification_explores_each_component_once(self, monkeypatch):
        explored, forests = [], []
        original, init = _RewriteForest._explore, _RewriteForest.__init__

        def recording(self, root, tree, cap):
            explored.append((root, cap))
            original(self, root, tree, cap)

        def counted(self, gens, d):
            forests.append(gens)
            init(self, gens, d)

        monkeypatch.setattr(_RewriteForest, "_explore", recording)
        monkeypatch.setattr(_RewriteForest, "__init__", counted)
        # a graded part is certified by fibers: no forest, no tree
        gens = enumerate_kernel_binomials(TWISTED_CUBIC, DegreeBound(2))
        for gs, status in ((gens, EQUAL_UP_TO_DEGREE), (gens[1:], MISSING_IN_SUM)):
            assert certify_presentation(TWISTED_CUBIC, gs, DegreeBound(4)).status == status
        assert (forests, explored) == ([], [])
        # the curve (2, 3) has no grading; its generators are its whole
        # kernel list up to degree 2, which certifies it up to degree 4
        # with slack 2.  One tree is explored per component, under its
        # query's cap, that holds the first side of a listed binomial
        gens = enumerate_kernel_binomials(CURVE_23, DegreeBound(2))
        d = DegreeBound(4)
        assert certify_presentation(CURVE_23, gens, d).status == EQUAL_UP_TO_DEGREE
        components = {(b.degree, frozenset(component(b.u_plus, gens, b.degree + d.search_slack)))
                      for b in enumerate_kernel_binomials(CURVE_23, d)}
        assert len(forests) == 1
        assert len(explored) == len(components) > 1
        assert {(cap - d.search_slack, frozenset(component(root, gens, cap)))
                for root, cap in explored} == components

    # generator sets the homogeneous helper never produces: constant
    # divisors, repeated variables, zero generators and no generators
    @pytest.mark.parametrize("names, texts, zeros", [
        (("x", "y"), ["x*y - 1"], 0),
        # x reaches y^2 only through x^2*y, so only by a constant-divisor move
        (("x", "y"), ["x*y - 1", "x^2 - y"], 0),
        (("a", "b", "c"), ["b - 1"], 0),
        (("a", "b", "c"), ["a - b^2", "c - b^3"], 0),
        (("a", "b", "c"), ["a^2 - b*c", "b^2 - a*c"], 1),
        (("x", "y", "z"), ["x^2 - y", "y*z - 1"], 2),
        (("x", "y"), [], 0),
    ])
    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_indexed_moves_match_bfs(self, names, texts, zeros, slack):
        vs = VariableSet(names)
        gens = [parse_binomial(t, vs) for t in texts]
        for z in range(zeros):
            gens.insert(2 * z, Binomial.zero(len(names)))
        balanced = all(g.is_balanced for g in gens)
        monos = [m for e in range(4) for m in _monomials_of_degree(len(names), e)]
        hits = 0
        for i, m1 in enumerate(monos):
            for m2 in monos[i:]:
                b = Binomial.from_pair(m1, m2)
                chain = rewrite_chain(b, gens, DegreeBound(3, slack))
                distance = bfs_distance(b, gens, b.degree + (0 if balanced else slack))
                assert (chain is None) == (distance is None)
                if chain is not None:
                    hits += len(chain) > 0
                    assert len(chain) == distance
                    replay_chain(b, gens, chain)
        assert (hits > 0) == any(not g.is_zero for g in gens)


    # generators far above the cap, unbalanced ones, constant divisors and
    # zero generators, as (generators, zero generators inserted first)
    ABOVE_THE_CAP = [
        (["x^9 - y^9"], 0),
        (["x^9 - y^9", "x*y - z^2"], 1),
        (["x^5*y - z^2", "x - y"], 0),
        (["x^5*y^3 - 1"], 0),
        (["x*y*z - 1", "z^7 - x^2"], 2),
        (["y^9 - 1", "x^2 - y*z"], 1),
        (["x^3 - y^8", "x*z - y^2", "z - 1"], 0),
    ]

    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_moves_above_the_cap_never_apply(self, slack):
        # A move applied past the cap can grow a tree without bound, so the
        # forest answers in a child process under a memory limit, one
        # shared forest per generator set and bound.
        code = inspect.getsource(forest_chain) + textwrap.dedent(f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from toricsum import Binomial, DegreeBound, VariableSet, parse_binomial
            from toricsum.oracle import (_RewriteForest, _check_variables,
                                         _monomials_of_degree, _sparse_sides)
            vs = VariableSet.of("x", "y", "z")
            monos = [m for e in range(5) for m in _monomials_of_degree(3, e)]
            for texts, zeros in {self.ABOVE_THE_CAP!r}:
                gens = [Binomial.zero(3)] * zeros + [parse_binomial(t, vs) for t in texts]
                for degree in (1, 4):
                    forest = _RewriteForest(gens, DegreeBound(degree, {slack}))
                    for i, m1 in enumerate(monos):
                        for m2 in monos[i:]:
                            print(forest_chain(forest, gens, Binomial.from_pair(m1, m2)))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        got = iter(proc.stdout.splitlines())
        vs = VariableSet.of("x", "y", "z")
        monos = [m for e in range(5) for m in _monomials_of_degree(3, e)]
        chains = 0
        for texts, zeros in self.ABOVE_THE_CAP:
            gens = [Binomial.zero(3)] * zeros + [parse_binomial(t, vs) for t in texts]
            for degree in (1, 4):
                reference = ReferenceForest(gens, DegreeBound(degree, slack))
                for i, m1 in enumerate(monos):
                    for m2 in monos[i:]:
                        b = Binomial.from_pair(m1, m2)
                        chain = reference.chain(b)
                        assert next(got) == repr(chain), (texts, degree, b)
                        if chain:
                            chains += 1
                            replay_chain(b, gens, chain)
        assert next(got, None) is None
        assert chains > 100

    def test_chains_match_the_tuple_forest(self):
        # random generator sets over 1 to 4 variables with exponents up to
        # 9, balanced or not, at slack 0 to 2; queries of degree up to 4,
        # some above the bound and some over another variable count
        rng = random.Random(89)
        outcomes = Counter()
        for _ in range(3000):
            n = rng.randint(1, 4)
            top = rng.choice((1, 1, 2, 3, 9))
            balanced = rng.random() < 0.5
            gens = []
            for _ in range(rng.randint(0, 4)):
                plus = [rng.randint(0, top) for _ in range(n)]
                minus = list(plus) if balanced else [rng.randint(0, top) for _ in range(n)]
                rng.shuffle(minus)
                gens.append(Binomial.from_pair(plus, minus))
            d = DegreeBound(rng.randint(1, 4), rng.randint(0, 2))
            forest, reference = _RewriteForest(gens, d), ReferenceForest(gens, d)
            for _ in range(4):
                m = n if rng.random() < 0.95 else n + 1
                degree = rng.randint(1, 4)
                sides = [[0] * m, [0] * m]
                for side in sides:
                    for _ in range(rng.randint(degree // 2, degree)):
                        side[rng.randrange(m)] += 1
                if m == n and rng.random() < 0.5:
                    # end where a walk of moves from the start does
                    sides[1] = list(sides[0])
                    for g in rng.sample(gens, len(gens)):
                        a, c = (g.u_plus, g.u_minus) if rng.random() < 0.5 else (g.u_minus, g.u_plus)
                        if all(x >= y for x, y in zip(sides[1], a)):
                            sides[1] = [x - y + z for x, y, z in zip(sides[1], a, c)]
                b = Binomial.from_pair(*sides)
                got = chain_or_error(lambda b: forest_chain(forest, gens, b), b)
                assert got == chain_or_error(reference.chain, b), (gens, d, b)
                outcomes["error" if isinstance(got, str) else "none" if got is None
                         else "chain" if got else "empty"] += 1
        # every kind of answer occurs
        assert min(outcomes[k] for k in ("error", "none", "chain", "empty")) > 0, outcomes


def chain_replay_certify(inputs, d):
    """:func:`certify_family` by replaying whole chains, kept as the reference.

    The same distinct parts, generators first, then each part's kernel
    list in order through one tuple forest (:class:`ReferenceForest`,
    which grows the trees of ``oracle``'s forest): every binomial's chain is
    read from it and replayed move by move in full.
    """
    parts = {}
    for index, (p, gens) in enumerate(inputs):
        parts.setdefault((p.matrix.entries, tuple(gens)), (index, p))
    for (_, gens), (index, p) in parts.items():
        for g in gens:
            if not contains_binomial(p, g):
                return CertificationVerdict(MISSING_IN_KERNEL, g, d.max_degree), index
    for (_, gens), (index, p) in parts.items():
        forest = ReferenceForest(gens, d)
        for b in enumerate_kernel_binomials(p, d):
            chain = forest.chain(b)
            if chain is None:
                return CertificationVerdict(MISSING_IN_SUM, b, d.max_degree), index
            replay_chain(b, gens, chain)
    return CertificationVerdict(EQUAL_UP_TO_DEGREE, None, d.max_degree), None


def rnc_minors(n, ungraded=False):
    """The rational normal curve of degree n and its 2x2 minors.

    With ``ungraded`` a last variable z -> s joins.  Then the matrix has
    no grading, and its first kernel binomial outside the curve's own is
    y0 - z^n, of degree n.
    """
    names = tuple(f"y{i}" for i in range(n + 1))
    rows = [[n - i for i in range(n + 1)], list(range(n + 1))]
    if ungraded:
        names, rows = names + ("z",), [rows[0] + [1], rows[1] + [0]]
    p = Parametrization(VariableSet.of("s", "t"), VariableSet(names), IntegerMatrix.from_rows(rows))
    return p, [parse_binomial(f"{names[i]}*{names[j + 1]} - {names[i + 1]}*{names[j]}", p.vars)
               for i in range(n) for j in range(i + 1, n)]


def prefilled_trees(monkeypatch, nvars, corrupt):
    """Fill each new cap's trees with every monomial of the cap over ``nvars`` variables.

    The filled trees are then passed to ``corrupt``.

    For balanced generators: each monomial of degree cap is explored
    unless an earlier tree holds it, so every component has its tree
    before the first query, rooted at its index-lex first monomial.
    """
    original = _RewriteForest.members

    def members(self, degree, sides):
        cap = degree + self._slack
        tree = self._trees.setdefault(cap, {})
        if not tree:
            for mono in _monomials_of_degree(nvars, cap):
                if mono not in tree:
                    self._explore(mono, tree, cap)
            corrupt(tree)
        return original(self, degree, sides)

    monkeypatch.setattr(_RewriteForest, "members", members)


def below_depth_one(tree):
    """(node, parent, root, move) for every node whose parent is not a root."""
    return [(node, prev, root, move) for node, (root, prev, move) in list(tree.items())
            if prev is not None and tree[prev][1] is not None]


class TestEdgeReplay:
    # RNC(4) and its six minors at degree 3, with z -> s, so every route,
    # certification too, runs on the rewrite forest: below degree 4 the
    # kernel binomials are the curve's, whose trees reach depth two and
    # more, and a corruption below may touch every edge
    P, MINORS = rnc_minors(4, ungraded=True)

    def raises_from_every_entry_point(self, gens, message):
        """Each public membership route, over the kernel list, raises RuntimeError ``message``.

        A corruption must not slip through any of them: certification,
        the returned chains, and the plain answers.
        """
        d = DegreeBound(3)
        kernel = enumerate_kernel_binomials(self.P, d)
        entry_points = {
            "certify_family": lambda: certify_family([(self.P, gens)], d),
            "rewrite_chain": lambda: [rewrite_chain(b, gens, d) for b in kernel],
            "reduces_to_zero": lambda: [reduces_to_zero(b, gens, d) for b in kernel],
        }
        for name, entry in entry_points.items():
            with pytest.raises(RuntimeError, match=message):
                entry()
                pytest.fail(f"{name} returned")

    def test_prefilled_trees_certify_alike(self, monkeypatch):
        # the proof needs no query side as a root: trees rooted elsewhere
        # give the same verdicts and witnesses
        want = [certify_family([(self.P, gens)], DegreeBound(3))
                for gens in (self.MINORS, self.MINORS[1:])]
        prefilled_trees(monkeypatch, len(self.P.vars), lambda tree: None)
        got = [certify_family([(self.P, gens)], DegreeBound(3))
               for gens in (self.MINORS, self.MINORS[1:])]
        assert got == want
        assert [v.status for v, _ in got] == [EQUAL_UP_TO_DEGREE, MISSING_IN_SUM]

    def test_wrong_parent_pointer_raises(self, monkeypatch):
        def to_root(tree):
            for node, _, root, move in below_depth_one(tree):
                tree[node] = (root, root, move)

        prefilled_trees(monkeypatch, len(self.P.vars), to_root)
        self.raises_from_every_entry_point(self.MINORS, "rewrite chain reaches")

    def test_parent_pointers_in_a_cycle_raise(self, monkeypatch):
        # a parent pointed back at its child through the reverse move: every
        # undone move applies, and only the walk's length gives it away
        def loop(tree):
            for node, prev, root, move in below_depth_one(tree):
                if tree[tree[prev][1]][1] is None:
                    tree[prev] = (root, node, move ^ 1)

        prefilled_trees(monkeypatch, len(self.P.vars), loop)
        self.raises_from_every_entry_point(self.MINORS, "cycle of parent pointers")

    @pytest.mark.parametrize("relabel, message", [
        (lambda move: (move + 2) % 12, "rewrite chain"),
        (lambda move: move + 12, "names no generator"),
        (lambda move: -1, "names no generator"),
    ])
    def test_wrong_move_label_raises(self, monkeypatch, relabel, message):
        # a label naming another of the six generators, or none
        def mislabel(tree):
            for node, (root, prev, move) in list(tree.items()):
                if prev is not None:
                    tree[node] = (root, prev, relabel(move))

        prefilled_trees(monkeypatch, len(self.P.vars), mislabel)
        self.raises_from_every_entry_point(self.MINORS, message)

    def test_wrong_root_tag_raises(self, monkeypatch):
        # less one minor a fiber splits into two trees; tagged with one root,
        # they pass the tag test, but their parent pointers end at two roots
        def one_tag(tree):
            for node, (_, prev, move) in list(tree.items()):
                tree[node] = (0, prev, move)

        prefilled_trees(monkeypatch, len(self.P.vars), one_tag)
        self.raises_from_every_entry_point(self.MINORS[1:], "different roots")

    @pytest.mark.parametrize("tree", ["path", "star", "caterpillar", "random"])
    def test_matches_the_chain_replay_loop(self, tree):
        # a tree of three blocks and an isolated one, without a grading half
        # of the time, less one generator half of the time, at degrees 2 to
        # 4 and slack 0 to 2: verdict, witness and index are those of
        # replaying every chain in full
        rng = random.Random(f"edge-replay:{tree}")
        statuses = Counter()
        for _ in range(40):
            kinds = [rng.choice(["quadric", "conic", "cubic", "quartic", "random"])
                     for _ in range(4)]
            inputs = forest_inputs(rng, tree, kinds, ungraded=rng.random() < 0.5)
            if rng.random() < 0.5:
                gens = rng.choice([gens for _, gens in inputs if gens])
                gens.pop(rng.randrange(len(gens)))
            d = DegreeBound(rng.randint(2, 4), rng.randint(0, 2))
            got = certify_family(inputs, d)
            assert got == chain_replay_certify(inputs, d)
            statuses[got[0].status] += 1
        assert statuses[EQUAL_UP_TO_DEGREE] and statuses[MISSING_IN_SUM]


def reference_certify(p, gens, degree, slack):
    """First enumerated binomial with no rewrite chain, by per-binomial BFS."""
    for g in gens:
        if not contains_binomial(p, g):
            return MISSING_IN_KERNEL, g
    balanced = all(g.is_balanced for g in gens)
    for b in reference_kernel_binomials(p, degree):
        cap = b.degree + (0 if balanced else slack)
        if bfs_distance(b, gens, cap) is None:
            return MISSING_IN_SUM, b
    return EQUAL_UP_TO_DEGREE, None


class TestCertifyAgainstReference:
    def test_random_generator_subsets(self):
        rng = random.Random(83)
        missing = 0
        for _ in range(60):
            p = random_homogeneous_parametrization(rng, max_params=3, max_vars=5)
            quadrics = enumerate_kernel_binomials(p, DegreeBound(2))
            gens = [g for g in quadrics if rng.random() < 0.7]
            verdict = certify_presentation(p, gens, DegreeBound(3))
            expected = EQUAL_UP_TO_DEGREE, None
            for b in reference_kernel_binomials(p, 3):
                if not membership_by_classes(b, gens):
                    expected = MISSING_IN_SUM, b
                    break
            assert (verdict.status, verdict.witness) == expected
            missing += expected[0] == MISSING_IN_SUM
        assert 0 < missing < 60

    @pytest.mark.parametrize("slack, status", [(0, MISSING_IN_SUM), (2, EQUAL_UP_TO_DEGREE)])
    def test_unbalanced_curve(self, slack, status):
        verdict = certify_presentation(CURVE_23, CURVE_23_GENS, DegreeBound(3, slack))
        assert (verdict.status, verdict.witness) == reference_certify(CURVE_23, CURVE_23_GENS, 3, slack)
        assert verdict.status == status

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_rational_normal_curve_minors(self, n):
        # the 2x2 minors are minimal, so dropping any one leaves a fiber
        # split; the witness pins which enumerated binomial is found first
        names = tuple(f"y{i}" for i in range(n + 1))
        p = Parametrization(VariableSet.of("s", "t"), VariableSet(names),
                            IntegerMatrix.from_rows([[n - i for i in range(n + 1)], list(range(n + 1))]))
        minors = [
            parse_binomial(f"{names[i]}*{names[j + 1]} - {names[i + 1]}*{names[j]}", p.vars)
            for i in range(n) for j in range(i + 1, n)
        ]
        verdict = certify_presentation(p, minors, DegreeBound(4))
        assert (verdict.status, verdict.witness) == (EQUAL_UP_TO_DEGREE, None)
        for k in range(len(minors)):
            gens = minors[:k] + minors[k + 1:]
            verdict = certify_presentation(p, gens, DegreeBound(4))
            assert verdict.status == MISSING_IN_SUM
            assert (verdict.status, verdict.witness) == reference_certify(p, gens, 4, 2)


def graded_parts(rng, count):
    """``count`` random graded parts (p, generators, bound) for the fiber route.

    Half of the matrices repeat a column, so degree-1 kernel binomials
    occur.  The generators are a random 80% of the kernel list up to one
    degree above the bound, so some lie above it.
    """
    parts = []
    for _ in range(count):
        p = random_homogeneous_parametrization(rng, max_params=3, max_vars=5)
        if rng.random() < 0.5:
            rows = [list(row) for row in p.matrix.entries]
            j = rng.randrange(len(p.vars))
            p = Parametrization(p.params, VariableSet(p.vars.names + ("r",)),
                                IntegerMatrix.from_rows([row + [row[j]] for row in rows]))
        degree = rng.randint(1, 3)
        gens = [g for g in enumerate_kernel_binomials(p, DegreeBound(degree + 1))
                if rng.random() < 0.8]
        parts.append((p, gens, DegreeBound(degree, rng.randint(0, 2))))
    return parts


def first_outside_by_classes(p, gens, d):
    """The first binomial of the kernel list outside the ideal of ``gens``.

    Membership by union-find over every monomial of the binomial's degree
    (:func:`membership_by_classes`), which shares no code with the fiber
    route.
    """
    return next((b for b in one_shot_kernel_binomials(p, d)
                 if not membership_by_classes(b, gens)), None)


class TestFiberRoute:
    def test_matches_membership_by_classes(self):
        # the first failing pair, degree-1 generators, generators above the
        # bound, passes and failures all occur
        seen = Counter()
        for p, gens, d in graded_parts(random.Random(101), 200):
            got = oracle._fiber_failure(p, gens, d)
            got = got and pair_binomial(got, len(p.vars))
            assert got == first_outside_by_classes(p, gens, d), (p, gens, d)
            seen["fail" if got else "pass"] += 1
            seen["degree 1"] += any(g.degree == 1 for g in gens)
            seen["above the bound"] += any(g.degree > d.max_degree for g in gens)
        assert min(seen.values()) > 20, seen

    def test_matches_the_chain_replay_loop(self):
        # verdict, witness and index are those of replaying every chain of
        # the tuple forest in full
        statuses = Counter()
        for p, gens, d in graded_parts(random.Random(103), 200):
            got = certify_family([(p, gens)], d)
            assert got == chain_replay_certify([(p, gens)], d), (p, gens, d)
            statuses[got[0].status] += 1
        assert statuses[EQUAL_UP_TO_DEGREE] > 20 and statuses[MISSING_IN_SUM] > 20

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_rational_normal_curve_less_each_minor(self, n):
        # the witness is the rewrite forest's, whichever minor is dropped
        p, minors = rnc_minors(n)
        d = DegreeBound(4)
        assert certify_family([(p, minors)], d) == (CertificationVerdict(EQUAL_UP_TO_DEGREE, None, 4), None)
        for k in range(len(minors)):
            gens = minors[:k] + minors[k + 1:]
            verdict, index = certify_family([(p, gens)], d)
            assert (verdict.status, index) == (MISSING_IN_SUM, 0)
            assert verdict.witness == _forest_failure(p, gens, d)

    def test_generator_outside_the_kernel_raises(self, monkeypatch):
        # kernel membership is tested first; accepted anyway, a generator
        # whose sides differ in image or in degree breaks the fiber route's
        # premise, and it says so rather than answering
        monkeypatch.setattr(oracle, "contains_binomial", lambda p, g: True)
        vs = TWISTED_CUBIC.vars
        minors = [parse_binomial(t, vs) for t in ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")]
        for text in ("x0 - x1", "x0*x3 - x1^2", "x0*x3 - x1"):
            with pytest.raises(RuntimeError, match="sides of different images"):
                certify_presentation(TWISTED_CUBIC, minors + [parse_binomial(text, vs)],
                                     DegreeBound(3))

    def test_generators_over_another_variable_set_raise(self, monkeypatch):
        gens = [parse_binomial("x0*x2 - x1^2", TWISTED_CUBIC.vars), Binomial.zero(2),
                parse_binomial("a*c - b^2", VariableSet.of("a", "b", "c"))]
        with pytest.raises(ValueError, match="different variable set"):
            certify_presentation(TWISTED_CUBIC, gens, DegreeBound(3))
        # past the kernel test, the fiber route checks the variable count too
        monkeypatch.setattr(oracle, "contains_binomial", lambda p, g: True)
        with pytest.raises(ValueError, match="different variable sets"):
            certify_presentation(TWISTED_CUBIC, gens, DegreeBound(3))
        # and, as on the forest, skips a zero generator over any count
        assert certify_presentation(TWISTED_CUBIC, gens[:2], DegreeBound(3)).status == MISSING_IN_SUM
