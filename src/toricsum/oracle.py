"""Brute-force certification of kernel presentations at desk scale.

Three independent routes into the same questions:

* enumerate kernel binomials that generate every fiber of monomials up
  to a degree bound, homogeneous or not.  One routine grows the
  monomials degree by degree as sorted variable indices, each image its
  parent's image plus one column, packed into one int, so no matrix
  product and no tuple is built per image.  The public list puts every
  degree in one map of buckets by image and takes each bucket's
  star-pattern differences, building exponent tuples only for buckets
  of two or more.  Certification reads the binomials one degree at a
  time: on a graded matrix each degree gets its own buckets, dropped
  once its binomials are out, so no degree past the first failing one
  is built;
* decide binomial-ideal membership by breadth-first monomial rewriting,
  exact on degree-balanced generators and degree-capped otherwise.  Moves
  are reversible, so the monomials reachable from one another within a
  degree cap form connected components; a rewrite forest explores each
  component once, as one breadth-first tree, and answers every query on
  it by comparing roots.  Under a cap each monomial is one int of
  guarded bit fields, its exponents and its room below the cap, so a
  move is tested with one subtraction and applied with one addition.  A
  monomial tries only the moves indexed under its own variables, never
  the reverse of the move that reached it, and no move with a side above
  the cap;
* cross-check a parametrization against a generator list in both
  inclusion directions, returning a verdict with a concrete witness on
  failure.  Several such parts are checked in one loop, every part's
  generators before any part's kernel.  One forest per part serves its
  whole certification, and each degree's trees are fetched once for all
  of that degree's binomials.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from operator import attrgetter, lshift
from typing import Callable, Iterator, Optional, Sequence

from .binomials import Binomial, Monomial
from .parametrization import Parametrization, _is_graded, contains_binomial

EQUAL_UP_TO_DEGREE = "equal-up-to-degree"
MISSING_IN_SUM = "missing-in-sum"
MISSING_IN_KERNEL = "missing-in-kernel"

# A monomial of the kernel enumeration: (variable indices in increasing
# order, support mask, image key).
_Compact = tuple[tuple[int, ...], int, int]


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


def _packed_columns(p: Parametrization, d: DegreeBound) -> list[int]:
    """Column j of ``p``'s matrix as one int, sum_r a_rj * B^r, B = 2 * d * max|a| + 1."""
    rows = p.matrix.entries
    base = 2 * d.max_degree * max((abs(x) for row in rows for x in row), default=0) + 1
    columns = [0] * len(p.vars)
    for row in reversed(rows):
        columns = [c * base + x for c, x in zip(columns, row)]
    return columns


def _layers(p: Parametrization, d: DegreeBound) -> Iterator[list[_Compact]]:
    """The monomials of each degree e = 1..d, in index-lex order.

    A monomial is held as its variable indices i_1 <= ... <= i_e, with its
    support mask and packed image (:func:`_packed_columns`).  It is grown
    from a parent of degree e - 1 by a variable j no smaller than the
    parent's last one, and its image is the parent's plus column j, so no
    matrix product is taken.  Children of earlier parents come first and
    each parent's children by increasing j, which is index-lex order.  A
    reader that stops after degree e never has degree e + 1 built.
    """
    columns = _packed_columns(p, d)
    n = len(columns)
    layer = [((j,), 1 << j, columns[j]) for j in range(n)]
    yield layer
    for _ in range(1, d.max_degree):
        layer = [(indices + (j,), support | 1 << j, image + columns[j])
                 for indices, support, image in layer for j in range(indices[-1], n)]
        yield layer


def _by_image(
    layer: list[_Compact], buckets: dict[int, list[_Compact]]
) -> dict[int, list[_Compact]]:
    """``buckets`` with each monomial of ``layer`` appended to the bucket of its image."""
    for member in layer:
        bucket = buckets.get(member[2])
        if bucket is None:
            buckets[member[2]] = [member]
        else:
            bucket.append(member)
    return buckets


def enumerate_kernel_binomials(p: Parametrization, d: DegreeBound) -> list[Binomial]:
    """Kernel binomials that generate every fiber up to degree d.

    Every binomial x^u - x^v with ``A u == A v`` and ``deg u, deg v <= d``
    lies in the ideal the output generates, homogeneous ``p`` or not.
    Monomials of degree 0..d, grown degree by degree as variable indices
    (:func:`_layers`), fill one map of buckets by image.  An image
    is keyed by one int: column j packs to sum_r a_rj * B^r with
    B = 2 * d * max|a| + 1, and every coordinate of a degree <= d image is
    a balanced digit of absolute value below B / 2, so distinct images
    have distinct keys.  Only the members of a bucket with two or more are
    turned into exponent tuples.  A bucket's differences m - rep against
    its exponent-lex smallest member rep (star pattern) span all its
    pairs, and each distinct one becomes one binomial.  Output is sorted.

    A pair whose supports are disjoint is the binomial x^m - x^rep itself,
    canonical as m > rep, and no other pair gives it.  A pair sharing
    g = min(m, rep) != 0 gives the binomial of (m - g, rep - g), which lie
    in the bucket of image A rep - A g.  Lex order is invariant under
    translation, so when rep - g is that bucket's minimum, that bucket
    emits the binomial as its own disjoint pair and this one is skipped.
    It is the minimum whenever every bucket holds one degree (always when
    ``p`` is homogeneous): a member x < rep - g would give x + g < rep in
    rep's bucket, of degree deg rep <= d.  Only buckets of mixed degrees
    can put x + g beyond the bound; then a shared pair is kept unless
    rep - g is its bucket's minimum, and a set keeps each such binomial
    once.
    Supports are bitmasks grown with the monomials, so the disjointness
    test is one ``&``.

    This is the whole list at once.  Certification reads the same
    binomials one degree at a time from :func:`_kernel_binomials_by_degree`.
    """
    n = len(p.vars)
    # the degree-0 monomial shares its bucket with every monomial mapped to 0
    buckets: dict[int, list[_Compact]] = {0: [((), 0, 0)]}
    for layer in _layers(p, d):
        _by_image(layer, buckets)
    dense = [[(_exponents(indices, n), support, len(indices)) for indices, support, _ in members]
             for members in buckets.values() if len(members) > 1]
    # members arrive by degree, so a bucket's first and last differ iff it mixes degrees
    mixed = any(members[0][2] != members[-1][2] for members in dense)
    stars = [(min(members), members) for members in dense]
    minima = {rep[0] for rep, _ in stars} if mixed else set()
    found: list[tuple[int, Monomial, Monomial]] = []
    shared: set[tuple[int, Monomial, Monomial]] = set()
    for (rep, rep_support, rep_degree), members in stars:
        for m, support, m_degree in members:
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


def _exponents(indices: Sequence[int], nvars: int) -> Monomial:
    """The exponent tuple of the monomial with variable indices ``indices``."""
    mono = [0] * nvars
    for i in indices:
        mono[i] += 1
    return tuple(mono)


def _kernel_binomials_by_degree(
    p: Parametrization, d: DegreeBound
) -> Iterator[tuple[int, list[Binomial]]]:
    """:func:`enumerate_kernel_binomials` as (e, its binomials of degree e), e = 1..d.

    A degree with no binomial is skipped.  Concatenated, the lists are
    that function's output, in its order.  A matrix without a grading
    vector (one forward elimination decides whether there is one,
    :func:`~toricsum.parametrization._is_graded`) may have buckets of mixed
    degrees, so its whole list is built at once, as there, and split by
    degree.  With a grading omega a monomial's degree is omega . A u, a
    function of its image, so every bucket holds one degree and each
    degree's buckets are complete once that degree's monomials are grown.
    Each degree's layer from :func:`_layers` is then put in buckets by
    image, read, emitted and dropped before the next degree is grown,
    keeping only the layer the next one grows from, and a reader that
    stops after degree e never builds degree e + 1.  Exponent tuples are
    built only for the emitted binomials.

    Within one degree, exponent-lex order is the reverse of index-lex
    order.  Take u != v of degree e and let j be the first variable where
    their exponents differ, say u_j > v_j.  Both index tuples start with
    the same c indices below j, and u's holds j at position c + v_j.  v's
    holds a larger index there: it has only c + v_j < c + u_j <= e indices
    up to j.  So u is exponent-larger and index-smaller.  The bucket's
    exponent-lex minimum, its star representative, is therefore its last
    member, and sorting a degree's binomials x^m - x^rep by m is sorting
    m's index tuples in reverse.  A graded bucket holds one degree, so no
    pair sharing a variable is ever kept (see
    :func:`enumerate_kernel_binomials`).
    """
    if not _is_graded(p):
        for degree, group in groupby(enumerate_kernel_binomials(p, d), attrgetter("degree")):
            yield degree, list(group)
        return
    n = len(p.vars)
    for degree, layer in enumerate(_layers(p, d), 1):
        found: list[tuple[tuple[int, ...], Monomial]] = []
        for members in _by_image(layer, {}).values():
            if len(members) > 1:
                # the last member is the exponent-lex minimum
                rep, rep_support, _ = members.pop()
                minus = None
                for indices, support, _ in members:
                    if not support & rep_support:
                        if minus is None:
                            minus = _exponents(rep, n)
                        found.append((indices, minus))
        if found:
            found.sort(reverse=True)
            yield degree, [Binomial(_exponents(plus, n), minus) for plus, minus in found]


# (root, previous monomial, move), monomials packed; the root's own entry
# has no previous monomial and move -1.  Move 2k replaces generator k's
# u_plus by its u_minus, and move 2k + 1 is its reverse.
_TreeEntry = tuple[int, Optional[int], int]
# (packed divisor, packed change, move)
_Move = tuple[int, int, int]
# (generator index, direction) steps
_Chain = list[tuple[int, int]]
# one degree cap's trees, with its field width, guard mask and moves: one
# (support mask, moves) bucket per first divisor variable, then the moves
# with a constant divisor under mask -1
_Layer = tuple[dict[int, _TreeEntry], int, int, list[tuple[int, list[_Move]]]]


def _pack(mono: Sequence[int], room: int, width: int) -> int:
    """sum_i mono[i] * 2^(width * i), plus ``room`` in field ``len(mono)``."""
    packed = room
    for x in reversed(mono):
        packed = (packed << width) + x
    return packed


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

    Under cap c a monomial m over n variables is one int: field i < n
    holds m_i and field n holds the room c - deg m, each field w bits
    wide with 2^(w-1) > c (w = bit_length(C) + 1 for the larger C of c
    and the highest cap a certification under ``d`` asks, so all of its
    caps share one packing of the moves).  Every field value lies in
    [0, c], so the top bit of each field, its guard bit, is clear; G is
    the mask of all n + 1 guard bits.  A move from side a to side b, of
    degree change s = deg b - deg a, packs its divisor D as a with
    max(s, 0) in the room field, and its change as b - a with -s there.

    D applies to m iff ((m | G) - D) & G == G.  Field i of m | G is
    2^(w-1) + m_i, at least 2^(w-1) and below 2^w, and field i of D is
    at most c < 2^(w-1), so no field borrows from the next one, and field
    i of the difference is 2^(w-1) + m_i - D_i, whose guard bit is set
    iff m_i >= D_i.  On the exponents that is a | m, and on the room it is
    s <= c - deg m: the two tests a move needs.  The image is m + change,
    whose fields are the image's exponents and its room, again in [0, c].
    A move whose divisor or image side has degree above c is dropped from
    cap c's buckets: it can never apply, since a divisor of m has degree
    at most deg m <= c and an image has degree at least deg b, and its
    exponents might not fit a field, which would break the guard test.

    Moves are indexed by the first variable of their divisor: a monomial
    tries the buckets of the variables in its support, in variable order,
    then the moves with a constant divisor.  It skips the reverse of the
    move that reached it, which always applies and leads back to the
    monomial's parent, already in the tree.  Neither that skip nor the
    dropped moves change which move first reaches a monomial, so the
    trees, and the chains read from them, are those of trying every
    indexed move in the same order.
    """

    def __init__(self, gens: Sequence[Binomial], d: DegreeBound) -> None:
        active = [(k, g) for k, g in enumerate(gens) if not g.is_zero]
        self._nvars = {g.nvars for _, g in active}
        self._slack = 0 if all(g.is_balanced for _, g in active) else d.search_slack
        # no query of a certification under ``d`` has a higher cap, so one
        # packing of the moves serves all of its caps
        self._bound = d.max_degree + self._slack
        self._sides = [
            (a, b, 2 * k + reverse)
            for k, g in active
            for reverse, (a, b) in enumerate(((g.u_plus, g.u_minus), (g.u_minus, g.u_plus)))
        ]
        # field width -> (higher side degree, first divisor variable, move)
        self._packed: dict[int, list[tuple[int, int, _Move]]] = {}
        self._layers: dict[tuple[int, int], _Layer] = {}

    def _layer(self, cap: int, nvars: int) -> _Layer:
        """The trees of ``cap`` with their packing, built on first use."""
        layer = self._layers.get((cap, nvars))
        if layer is None:
            width = max(cap, self._bound).bit_length() + 1
            packed = self._packed.get(width)
            if packed is None:
                packed = self._packed[width] = []
                for a, b, move in self._sides:
                    da, db = sum(a), sum(b)
                    step = db - da
                    divisor = _pack(a, max(step, 0), width)
                    change = _pack(b, max(-step, 0), width) - divisor
                    first = next((i for i, x in enumerate(a) if x), len(a))
                    packed.append((max(da, db), first, (divisor, change, move)))
            by_var: dict[int, list[_Move]] = {}
            for top, first, move in packed:
                if top <= cap:
                    by_var.setdefault(first, []).append(move)
            field = (1 << width - 1) - 1
            buckets = [(field << width * i if i < nvars else -1, moves)
                       for i, moves in sorted(by_var.items())]
            guard = _pack((1 << width - 1,) * nvars, 1 << width - 1, width)
            layer = self._layers[cap, nvars] = ({}, width, guard, buckets)
        return layer

    def check_variables(self, nvars: int) -> None:
        """Raise ValueError unless every nonzero generator has ``nvars`` variables."""
        if self._nvars - {nvars}:
            raise ValueError("generators and binomial are over different variable sets")

    def chain(self, b: Binomial) -> Optional[list[tuple[int, int]]]:
        """(generator index, direction) steps from ``b.u_plus`` to ``b.u_minus``.

        None when the two sides lie in different components under the cap.
        """
        self.check_variables(b.nvars)
        if b.is_zero:
            return []
        return self.chains(b.degree, b.nvars)(b)

    def chains(self, degree: int, nvars: int) -> Callable[[Binomial], Optional[_Chain]]:
        """:meth:`chain` for nonzero binomials of ``degree`` over ``nvars`` variables.

        The cap's trees and packing are fetched once, for every query of
        that degree; the variable count is the caller's to check.
        """
        cap = degree + self._slack
        tree, width, guard, buckets = self._layer(cap, nvars)
        explore, path_to_root = self._explore, self._path_to_root
        # _pack(mono, cap - deg mono, width), one shift per field
        shifts = range(0, width * nvars, width)
        room = width * nvars

        def chain(b: Binomial) -> Optional[_Chain]:
            plus, minus = b.u_plus, b.u_minus
            start = sum(map(lshift, plus, shifts)) + ((cap - sum(plus)) << room)
            target = sum(map(lshift, minus, shifts)) + ((cap - sum(minus)) << room)
            if start not in tree:
                explore(start, tree, guard, buckets)
            root = tree[start][0]
            if target not in tree or tree[target][0] != root:
                return None
            up = [(k, -direction) for k, direction in path_to_root(start, tree)]
            down = path_to_root(target, tree)
            down.reverse()
            return up + down

        return chain

    @staticmethod
    def _explore(root: int, tree: dict[int, _TreeEntry], guard: int,
                 buckets: list[tuple[int, list[_Move]]]) -> None:
        tree[root] = (root, None, -1)
        queue: deque[tuple[int, int]] = deque([(root, -1)])
        while queue:
            mono, back = queue.popleft()
            high = mono | guard
            # mask -1 matches every monomial: a nonzero query has cap >= 1,
            # so a packed monomial's room or one of its exponents is positive
            for mask, moves in buckets:
                if mono & mask:
                    for divisor, change, move in moves:
                        if move != back and (high - divisor) & guard == guard:
                            image = mono + change
                            if image not in tree:
                                tree[image] = (root, mono, move)
                                queue.append((image, move ^ 1))

    @staticmethod
    def _path_to_root(node: int, tree: dict[int, _TreeEntry]) -> list[tuple[int, int]]:
        """The moves into ``node``, ``node``'s parent, ... up to the root."""
        steps = []
        _, prev, move = tree[node]
        while prev is not None:
            steps.append((move >> 1, -1 if move & 1 else 1))
            _, prev, move = tree[prev]
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
        for i, x in take:
            if mono[i] < x:
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
    than from the forest's move index.  Kernel binomials are checked one
    degree at a time, in the order of :func:`enumerate_kernel_binomials`,
    so the witness is the first binomial of that list outside the ideal,
    and a failure at degree e stops the check before degree e + 1 is
    enumerated.  This is the one-part case of :func:`_certify_parts`.
    """
    return _certify_parts([(p, gens)], d)[0]


def _certify_parts(
    parts: Sequence[tuple[Parametrization, Sequence[Binomial]]], d: DegreeBound
) -> tuple[CertificationVerdict, Optional[int]]:
    """:func:`certify_presentation` of several parts, with the failing part's index.

    Each part is a parametrization and generators over its variables.
    Every part's generators are tested against its own kernel first, in
    order, and only then is any kernel enumerated: part by part, each
    kernel binomial up to the degree bound must rewrite to zero modulo
    its part's generators, through one rewrite forest per part, and every
    chain is replayed.  The first failure is returned with the index of
    its part; a pass has index None.

    A part's kernel binomials are read from
    :func:`_kernel_binomials_by_degree`, one degree e at a time.  The
    variable count is checked once per part, and cap e + slack's trees and
    packing are fetched once per degree, for all of its binomials.  The
    stream yields the list of :func:`enumerate_kernel_binomials` in its
    order, and whether a binomial has a chain depends only on whether its
    two sides share a component under its cap, not on the queries before
    it; the queries even come in the same order, so the trees and chains
    are those of checking the whole list.  So the first failure is that
    list's first binomial outside the ideal, and returning there leaves
    every later degree unbuilt.
    """
    parts = [(p, tuple(gens)) for p, gens in parts]
    for index, (p, gens) in enumerate(parts):
        for g in gens:
            if not contains_binomial(p, g):
                return CertificationVerdict(MISSING_IN_KERNEL, g, d.max_degree), index
    for index, (p, gens) in enumerate(parts):
        forest = _RewriteForest(gens, d)
        forest.check_variables(len(p.vars))
        sides = _sparse_sides(gens)
        for degree, binomials in _kernel_binomials_by_degree(p, d):
            chain = forest.chains(degree, len(p.vars))
            for b in binomials:
                steps = chain(b)
                if steps is None:
                    return CertificationVerdict(MISSING_IN_SUM, b, d.max_degree), index
                _replay_chain(b, sides, steps)
    return CertificationVerdict(EQUAL_UP_TO_DEGREE, None, d.max_degree), None
