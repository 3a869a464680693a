"""Brute-force certification of kernel presentations at desk scale.

Three independent routes into the same questions:

* enumerate kernel binomials that generate every fiber of monomials up
  to a degree bound, homogeneous or not: monomials of all degrees share
  one map of buckets by image, each bucket gives its star-pattern
  differences, and each monomial's image is its parent's image plus one
  column, packed into one int, so no matrix product and no tuple is
  built per image;
* decide binomial-ideal membership by breadth-first monomial rewriting,
  exact on degree-balanced generators and degree-capped otherwise.  Moves
  are reversible, so the monomials reachable from one another within a
  degree cap form connected components; a rewrite forest explores each
  component once, as one breadth-first tree, and answers every query on
  it by comparing roots.  A monomial tries only the moves indexed under
  its own variables, and each move updates only the exponents it changes;
* cross-check a parametrization against a generator list in both
  inclusion directions, returning a verdict with a concrete witness on
  failure.  One forest per degree cap serves the whole certification.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .binomials import Binomial, Monomial, split_disjoint
from .parametrization import Parametrization, contains_binomial

EQUAL_UP_TO_DEGREE = "equal-up-to-degree"
MISSING_IN_SUM = "missing-in-sum"
MISSING_IN_KERNEL = "missing-in-kernel"


@dataclass(frozen=True)
class DegreeBound:
    """Degree budget for enumeration and rewriting searches.

    ``search_slack`` is the extra degree allowed for intermediate
    monomials when the generators are not degree-balanced; it is unused on
    balanced inputs, where the search stays inside one graded piece.
    """

    max_degree: int
    search_slack: int = 2

    def __post_init__(self) -> None:
        if self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if self.search_slack < 0:
            raise ValueError("search_slack must be non-negative")


@dataclass(frozen=True)
class CertificationVerdict:
    """Outcome of a sum certification, with a reproducible witness."""

    status: str
    witness: Optional[Binomial]
    degree_checked: int


def default_degree_bound(gens: Sequence[Binomial]) -> DegreeBound:
    """Max generator degree plus two, slack two."""
    base = max((g.degree for g in gens if not g.is_zero), default=0)
    return DegreeBound(max(1, base + 2), 2)


def _monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def enumerate_kernel_binomials(p: Parametrization, d: DegreeBound) -> list[Binomial]:
    """Kernel binomials that generate every fiber up to degree d.

    Every binomial x^u - x^v with ``A u == A v`` and ``deg u, deg v <= d``
    lies in the ideal the output generates, homogeneous ``p`` or not.
    Monomials of degree 0..d fill one map of buckets by image; each is
    grown from a parent of one degree less by a variable j no smaller than
    the parent's last one, and its image is the parent's plus column j.
    An image is keyed by one int: column j packs to sum_r a_rj * B^r with
    B = 2 * d * max|a| + 1, and every coordinate of a degree <= d image is
    a balanced digit of absolute value below B / 2, so distinct images
    have distinct keys.  A bucket's differences against its smallest
    member (star pattern) span all its pairs and have canonical sign; each
    distinct one becomes one binomial.  Output is sorted.
    """
    n = len(p.vars)
    rows = p.matrix.entries
    base = 2 * d.max_degree * max((abs(x) for row in rows for x in row), default=0) + 1
    columns = [0] * n
    for row in reversed(rows):
        columns = [c * base + x for c, x in zip(columns, row)]
    constant: Monomial = (0,) * n
    # (monomial, image key, last variable added); the degree-0 monomial may
    # be extended by any variable.
    layer: list[tuple[Monomial, int, int]] = [(constant, 0, 0)]
    buckets: dict[int, list[Monomial]] = {0: [constant]}
    for _ in range(d.max_degree):
        grown: list[tuple[Monomial, int, int]] = []
        for mono, image, last in layer:
            for j in range(last, n):
                child = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                child_image = image + columns[j]
                grown.append((child, child_image, j))
                bucket = buckets.get(child_image)
                if bucket is None:
                    buckets[child_image] = [child]
                else:
                    bucket.append(child)
        layer = grown
    differences: set[tuple[int, ...]] = set()
    for members in buckets.values():
        if len(members) > 1:
            rep = min(members)
            differences.update(tuple(a - b for a, b in zip(m, rep)) for m in members if m != rep)
    return sorted(map(split_disjoint, differences), key=Binomial.sort_key)


# (root, previous monomial, generator index, direction); the root's own
# entry has no previous monomial.
_TreeEntry = tuple[Monomial, Optional[Monomial], int, int]
# (divisor support, degree change, changed coordinates, generator index,
# direction), each support and change as (variable, exponent) pairs
_Move = tuple[tuple[tuple[int, int], ...], int, tuple[tuple[int, int], ...], int, int]


class _RewriteForest:
    """Breadth-first trees over the rewrite graph of ``gens``, one per component.

    Moves replace a divisor equal to one side of a generator by the other
    side, in either orientation, and never leave the degree cap.  Every
    move can be undone, so the monomials reachable from one another
    under a cap form connected components.  A query explores the
    component of ``b.u_plus`` once, as a tree rooted there, and keeps it
    for every later query under the same cap.  With degree-balanced
    generators the cap is the degree of the query and the search is exact
    for its graded piece; otherwise the cap adds ``d.search_slack``.
    Moves are indexed by the first variable of their divisor, and those
    with a constant divisor are tried at every monomial.
    """

    def __init__(self, gens: Sequence[Binomial], d: DegreeBound) -> None:
        active = [(k, g) for k, g in enumerate(gens) if not g.is_zero]
        self._nvars = {g.nvars for _, g in active}
        self._slack = 0 if all(g.is_balanced for _, g in active) else d.search_slack
        by_var: dict[int, list[_Move]] = {}
        self._everywhere: list[_Move] = []
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
        self._trees: dict[int, dict[Monomial, _TreeEntry]] = {}

    def chain(self, b: Binomial) -> Optional[list[tuple[int, int]]]:
        """(generator index, direction) steps from ``b.u_plus`` to ``b.u_minus``.

        None when the two sides lie in different components under the cap.
        """
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

    def _explore(self, root: Monomial, tree: dict[Monomial, _TreeEntry], cap: int) -> None:
        tree[root] = (root, None, -1, 0)
        queue: deque[Monomial] = deque([root])
        while queue:
            mono = queue.popleft()
            room = cap - sum(mono)
            for moves in [ms for i, ms in self._by_var if mono[i]] + [self._everywhere]:
                for divisor, step, delta, k, direction in moves:
                    if step > room:
                        continue
                    for i, x in divisor:
                        if mono[i] < x:
                            break
                    else:
                        moved = list(mono)
                        for i, x in delta:
                            moved[i] += x
                        image = tuple(moved)
                        if image not in tree:
                            tree[image] = (root, mono, k, direction)
                            queue.append(image)

    @staticmethod
    def _path_to_root(node: Monomial, tree: dict[Monomial, _TreeEntry]) -> list[tuple[int, int]]:
        """The moves into ``node``, ``node``'s parent, ... up to the root."""
        steps = []
        _, prev, k, direction = tree[node]
        while prev is not None:
            steps.append((k, direction))
            _, prev, k, direction = tree[prev]
        return steps


def rewrite_chain(
    b: Binomial, gens: Sequence[Binomial], d: DegreeBound
) -> Optional[list[tuple[int, int]]]:
    """Breadth-first rewrite of one side of ``b`` into the other.

    Moves replace a divisor equal to one side of a generator by the other
    side, in either orientation.  Returns the chain as (generator index,
    direction) steps, or None when the target is unreachable within the
    degree cap.  With degree-balanced generators the cap is tight and the
    search is exact for the graded piece.  This is one query on a fresh
    rewrite forest: the component of ``b.u_plus`` under the query's degree
    cap is explored as one tree rooted at ``b.u_plus``, so the chain is a
    shortest one.
    """
    return _RewriteForest(gens, d).chain(b)


_Sides = Sequence[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]]


def _sparse_sides(gens: Sequence[Binomial]) -> _Sides:
    """Each generator's ``u_plus`` and ``u_minus`` as (variable, exponent) pairs."""
    return [
        tuple(tuple((i, x) for i, x in enumerate(side) if x) for side in (g.u_plus, g.u_minus))
        for g in gens
    ]


def _replay_chain(b: Binomial, sides: _Sides, chain: Sequence[tuple[int, int]]) -> None:
    """Apply ``chain`` to ``b.u_plus`` move by move; it must end at ``b.u_minus``.

    ``sides`` is :func:`_sparse_sides` of the generators, so a move reads
    and writes only the variables of its generator.  Raises RuntimeError on
    a move whose divisor does not divide the current monomial, or on a
    wrong endpoint.
    """
    mono = list(b.u_plus)
    for step, (gi, direction) in enumerate(chain):
        plus, minus = sides[gi]
        take, give = (plus, minus) if direction == 1 else (minus, plus)
        if any(mono[i] < x for i, x in take):
            raise RuntimeError(f"rewrite chain step {step} does not apply to {tuple(mono)}")
        for i, x in take:
            mono[i] -= x
        for i, x in give:
            mono[i] += x
    if tuple(mono) != b.u_minus:
        raise RuntimeError(f"rewrite chain ends at {tuple(mono)}, not {b.u_minus}")


def reduces_to_zero(b: Binomial, gens: Sequence[Binomial], d: DegreeBound) -> bool:
    """Membership of ``b`` in the binomial ideal of ``gens``, by rewriting.

    A positive answer is replayed step by step before being returned, so
    every True is backed by a concrete rewrite chain.  On generators that
    are not degree-balanced a False only means "not found within bound".
    """
    chain = rewrite_chain(b, gens, d)
    if chain is None:
        return False
    _replay_chain(b, _sparse_sides(gens), chain)
    return True


def membership_by_classes(b: Binomial, gens: Sequence[Binomial]) -> bool:
    """Exact membership via union-find over the full graded monomial list.

    Requires degree-balanced generators; used as the independent check of
    the rewriting search.
    """
    active = [g for g in gens if not g.is_zero]
    for g in active:
        if g.nvars != b.nvars:
            raise ValueError("generators and binomial are over different variable sets")
        if not g.is_balanced:
            raise ValueError("equivalence-class membership requires balanced generators")
    if b.is_zero:
        return True
    if not b.is_balanced:
        return False

    monos = _monomials_of_degree(b.nvars, sum(b.u_plus))
    index = {m: i for i, m in enumerate(monos)}
    parent = list(range(len(monos)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for m in monos:
        for g in active:
            if all(x >= y for x, y in zip(m, g.u_plus)):
                image = tuple(x - y + z for x, y, z in zip(m, g.u_plus, g.u_minus))
                union(index[m], index[image])
    return find(index[b.u_plus]) == find(index[b.u_minus])


def certify_presentation(
    p: Parametrization, gens: Sequence[Binomial], d: DegreeBound
) -> CertificationVerdict:
    """Check both inclusions between a kernel and a generated ideal.

    First every generator must lie in the kernel of ``p``; then every
    enumerated kernel binomial up to the degree bound must rewrite to zero
    modulo the generators.  The first failure is returned as a witness.
    One rewrite forest serves every binomial.  It keeps one map of
    breadth-first trees per degree cap, so each connected component under
    each cap is searched once; every chain it returns is replayed move by
    move before it counts, on sparse sides built once from ``gens`` rather
    than from the forest's move index.  The enumeration builds each
    monomial's image incrementally from its parent's.
    """
    gens = tuple(gens)
    for g in gens:
        if not contains_binomial(p, g):
            return CertificationVerdict(MISSING_IN_KERNEL, g, d.max_degree)
    forest = _RewriteForest(gens, d)
    sides = _sparse_sides(gens)
    for b in enumerate_kernel_binomials(p, d):
        chain = forest.chain(b)
        if chain is None:
            return CertificationVerdict(MISSING_IN_SUM, b, d.max_degree)
        _replay_chain(b, sides, chain)
    return CertificationVerdict(EQUAL_UP_TO_DEGREE, None, d.max_degree)
