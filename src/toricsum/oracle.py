"""Brute-force certification of kernel presentations at desk scale.

Three independent routes into the same questions:

* enumerate kernel binomials that generate every fiber of monomials up
  to a degree bound, homogeneous or not.  One routine grows the
  monomials degree by degree as sorted variable indices, each image its
  parent's image plus one column, packed into one int, so no matrix
  product and no tuple is built per image.  The public list puts every
  degree in one map of buckets by image and pairs each member of a
  bucket with the bucket's minimum, reduced to disjoint supports,
  building exponent tuples only for buckets of two or more.
  Certification reads the binomials one degree at a time: on a graded
  matrix each degree gets its own buckets, dropped once its binomials
  are out, so no degree past the first failing one is built;
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
  the cap.  One query answers every membership, public or in a
  certification, and it proves each True: the tree edges it relies on
  are replayed against the generators, from both sides to one root, and
  :func:`rewrite_chain` reads its chain from the parent pointers only
  after that;
* cross-check a parametrization against a generator list in both
  inclusion directions, returning a verdict with a concrete witness on
  failure.  A family is certified input by input in one loop
  (:func:`certify_family`), every input's generators before any kernel.
  One forest per input serves its whole certification, and each
  degree's trees are fetched once for all of that degree's binomials,
  which stay pairs of variable-index tuples until one is a witness.
  Every tree edge a query relies on is replayed once, against the
  generators: each side walks up to the first node already verified,
  and both sides must reach the same root.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from operator import attrgetter
from typing import Callable, Iterator, Optional, Sequence

from .binomials import Binomial, Monomial
from .parametrization import Parametrization, _is_graded, contains_binomial

EQUAL_UP_TO_DEGREE = "equal-up-to-degree"
MISSING_IN_SUM = "missing-in-sum"
MISSING_IN_KERNEL = "missing-in-kernel"

# A monomial of the kernel enumeration: (variable indices in increasing
# order, image key).
_Compact = tuple[tuple[int, ...], int]


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
    packed image (:func:`_packed_columns`).  It is grown from a parent of
    degree e - 1 by a variable j no smaller than the parent's last one,
    and its image is the parent's plus column j, so no matrix product is
    taken.  Children of earlier parents come first and
    each parent's children by increasing j, which is index-lex order.  A
    reader that stops after degree e never has degree e + 1 built.
    """
    columns = _packed_columns(p, d)
    n = len(columns)
    layer = [((j,), columns[j]) for j in range(n)]
    yield layer
    for _ in range(1, d.max_degree):
        layer = [(indices + (j,), image + columns[j])
                 for indices, image in layer for j in range(indices[-1], n)]
        yield layer


def _by_image(
    layer: list[_Compact], buckets: dict[int, list[_Compact]]
) -> dict[int, list[_Compact]]:
    """``buckets`` with each monomial of ``layer`` appended to the bucket of its image."""
    for member in layer:
        bucket = buckets.get(member[1])
        if bucket is None:
            buckets[member[1]] = [member]
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
    pairs.  With g = min(m, rep), x^m - x^rep = x^g (x^(m-g) - x^(rep-g)),
    so each pair is reduced to disjoint supports, the binomial of
    ((m - rep)+, (m - rep)-), canonical as m > rep.  A set keeps each
    reduced binomial once, and the output is sorted.

    When every bucket holds one degree (always when ``p`` is homogeneous)
    a pair with g != 0 adds nothing: m - g and rep - g lie in the bucket
    of image A rep - A g, and lex order is invariant under translation, so
    a member x < rep - g there would give x + g < rep in rep's bucket, of
    degree deg rep <= d.  So rep - g is that bucket's minimum, and the
    bucket emits the same binomial from its disjoint pair.  Where buckets
    mix degrees x + g may pass the bound, and a reduced pair can be new.

    This is the whole list at once.  Certification reads the same
    binomials one degree at a time from :func:`_kernel_binomials_by_degree`.
    """
    n = len(p.vars)
    # the degree-0 monomial shares its bucket with every monomial mapped to 0
    buckets: dict[int, list[_Compact]] = {0: [((), 0)]}
    for layer in _layers(p, d):
        _by_image(layer, buckets)
    found: set[tuple[int, Monomial, Monomial]] = set()
    for members in buckets.values():
        if len(members) > 1:
            dense = [_exponents(indices, n) for indices, _ in members]
            rep = min(dense)
            for m in dense:
                if m is not rep:
                    plus = tuple(a - r if a > r else 0 for a, r in zip(m, rep))
                    minus = tuple(r - a if r > a else 0 for a, r in zip(m, rep))
                    found.add((max(sum(plus), sum(minus)), plus, minus))
    return [Binomial(plus, minus) for _, plus, minus in sorted(found)]


def _exponents(indices: Sequence[int], nvars: int) -> Monomial:
    """The exponent tuple of the monomial with variable indices ``indices``."""
    mono = [0] * nvars
    for i in indices:
        mono[i] += 1
    return tuple(mono)


# A kernel pair of the degree stream: the two sides' variable indices, in
# increasing order.
_Pair = tuple[tuple[int, ...], tuple[int, ...]]


def _indices(mono: Monomial) -> tuple[int, ...]:
    """The variable indices of ``mono``, each repeated by its exponent, in increasing order."""
    return tuple(i for i, x in enumerate(mono) for _ in range(x))


def _kernel_binomials_by_degree(
    p: Parametrization, d: DegreeBound
) -> Iterator[tuple[int, list[_Pair]]]:
    """:func:`enumerate_kernel_binomials` as (e, its binomials of degree e), e = 1..d.

    A binomial x^u - x^v is yielded as the pair of the variable indices
    of u and of v, each in increasing order (:data:`_Pair`).  A degree
    with no binomial is skipped.  Concatenated, the
    lists are that function's output, in its order.  A matrix without a
    grading vector (one forward elimination decides whether there is one,
    :func:`~toricsum.parametrization._is_graded`) may have buckets of mixed
    degrees, so its whole list is built at once, as there, split by
    degree, and each binomial turned into its pair.  With a grading omega
    a monomial's degree is omega . A u, a function of its image, so every
    bucket holds one degree and each degree's buckets are complete once
    that degree's monomials are grown.  Each degree's layer from
    :func:`_layers` is then put in buckets by image, read, emitted and
    dropped before the next degree is grown, keeping only the layer the
    next one grows from, and a reader that stops after degree e never
    builds degree e + 1.  The pairs are the monomials' own index tuples,
    so no exponent tuple is built, and a bucket's pairs share one tuple
    for its representative.

    Within one degree, exponent-lex order is the reverse of index-lex
    order.  Take u != v of degree e and let j be the first variable where
    their exponents differ, say u_j > v_j.  Both index tuples start with
    the same c indices below j, and u's holds j at position c + v_j.  v's
    holds a larger index there: it has only c + v_j < c + u_j <= e indices
    up to j.  So u is exponent-larger and index-smaller.  The bucket's
    exponent-lex minimum, its star representative, is therefore its last
    member, and sorting a degree's binomials x^m - x^rep by m is sorting
    m's index tuples in reverse.  A graded bucket holds one degree, so a
    pair sharing a variable reduces to a lower bucket's disjoint pair (see
    :func:`enumerate_kernel_binomials`), and only disjoint pairs are kept.
    """
    if not _is_graded(p):
        for degree, group in groupby(enumerate_kernel_binomials(p, d), attrgetter("degree")):
            yield degree, [(_indices(b.u_plus), _indices(b.u_minus)) for b in group]
        return
    for degree, layer in enumerate(_layers(p, d), 1):
        found: list[_Pair] = []
        for members in _by_image(layer, {}).values():
            if len(members) > 1:
                # the last member is the exponent-lex minimum
                rep, _ = members.pop()
                rep_vars = set(rep)
                for indices, _ in members:
                    if rep_vars.isdisjoint(indices):
                        found.append((indices, rep))
        if found:
            found.sort(reverse=True)
            yield degree, found


# (root, previous monomial, move), monomials packed; the root's own entry
# has no previous monomial and move -1.  Move 2k replaces generator k's
# u_plus by its u_minus, and move 2k + 1 is its reverse.
_TreeEntry = tuple[int, Optional[int], int]
# (packed divisor, packed change, move)
_Move = tuple[int, int, int]
# each generator's (u_plus, u_minus) as (variable, exponent) pairs
_Sides = Sequence[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]]
# one degree cap's trees, with its field width, guard mask and moves: one
# (support mask, moves) bucket per first divisor variable, then the moves
# with a constant divisor under mask -1
_Layer = tuple[dict[int, _TreeEntry], int, int, list[tuple[int, list[_Move]]]]


def _sparse_sides(gens: Sequence[Binomial]) -> _Sides:
    """Each generator's ``u_plus`` and ``u_minus`` as (variable, exponent) pairs."""
    return [(tuple([(i, x) for i, x in enumerate(g.u_plus) if x]),
             tuple([(i, x) for i, x in enumerate(g.u_minus) if x])) for g in gens]


class _RewriteForest:
    """Breadth-first trees over the rewrite graph of ``gens``, one per component.

    Moves replace a divisor equal to one side of a generator by the other
    side, in either orientation, and never leave the degree cap.  Every
    move can be undone, so the monomials reachable from one another
    under a cap form connected components.  A query explores the
    component of its first side once, as a tree rooted there, and keeps
    it for every later query under the same cap.  With degree-balanced
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
    The moves are packed from the generators' (variable, exponent) sides,
    built once, so packing a move costs one shift per variable of its
    sides, not one per variable of the ring.

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
    trees, and the chains :meth:`path` reads from them, are those of
    trying every indexed move in the same order.
    """

    def __init__(self, gens: Sequence[Binomial], d: DegreeBound) -> None:
        active = [(k, g) for k, g in enumerate(gens) if not g.is_zero]
        self._nvars = {g.nvars for _, g in active}
        self._slack = 0 if all(g.is_balanced for _, g in active) else d.search_slack
        # no query of a certification under ``d`` has a higher cap, so one
        # packing of the moves serves all of its caps
        self._bound = d.max_degree + self._slack
        sides = _sparse_sides(gens)
        # (higher side degree, degree change, divisor side, image side, move)
        self._moves: list[tuple[int, int, tuple, tuple, int]] = []
        for k, g in active:
            plus, minus = sides[k]
            up, down = sum(g.u_plus), sum(g.u_minus)
            top = max(up, down)
            self._moves += ((top, down - up, plus, minus, 2 * k),
                            (top, up - down, minus, plus, 2 * k + 1))
        # (field width, variable count) -> (higher side degree, first divisor variable, move)
        self._packed: dict[tuple[int, int], list[tuple[int, int, _Move]]] = {}
        self._layers: dict[tuple[int, int], _Layer] = {}

    def _layer(self, cap: int, nvars: int) -> _Layer:
        """The trees of ``cap`` with their packing, built on first use."""
        layer = self._layers.get((cap, nvars))
        if layer is None:
            width = max(cap, self._bound).bit_length() + 1
            packed = self._packed.get((width, nvars))
            if packed is None:
                room = width * nvars
                packed = self._packed[width, nvars] = []
                for top, step, a, b, move in self._moves:
                    taken = given = 0
                    for i, x in a:
                        taken += x << width * i
                    for i, x in b:
                        given += x << width * i
                    divisor = taken + (max(step, 0) << room)
                    change = given - taken - (step << room)
                    packed.append((top, a[0][0] if a else nvars, (divisor, change, move)))
            by_var: dict[int, list[_Move]] = {}
            for top, first, move in packed:
                if top <= cap:
                    by_var.setdefault(first, []).append(move)
            field = (1 << width - 1) - 1
            buckets = [(field << width * i if i < nvars else -1, moves)
                       for i, moves in sorted(by_var.items())]
            guard = sum(1 << width * i for i in range(nvars + 1)) << width - 1
            layer = self._layers[cap, nvars] = ({}, width, guard, buckets)
        return layer

    def check_variables(self, nvars: int) -> None:
        """Raise ValueError unless every nonzero generator has ``nvars`` variables."""
        if self._nvars - {nvars}:
            raise ValueError("generators and binomial are over different variable sets")

    def members(self, degree: int, nvars: int, sides: _Sides
                ) -> Callable[[tuple[int, ...], tuple[int, ...]], Optional[tuple[int, int]]]:
        """Membership of the kernel pairs of ``degree`` over ``nvars`` variables.

        The returned query takes a pair of the degree stream (each side's
        variable indices, :data:`_Pair`) with ``degree`` its larger side's
        degree.  It returns the two sides' tree nodes when both lie in one
        tree under cap ``degree`` + slack, for :meth:`path`, and None
        otherwise.  The cap's trees and packing are fetched once, and a
        side is packed from its indices; a bucket representative, shared
        by many pairs, once.  The variable count is the caller's to check.

        An answer of nodes is proved, not read off the trees.  ``sides`` is
        :func:`_sparse_sides` of the generators, not the forest's move
        table.  From each side of a pair the query walks up the parent
        pointers to the first node already verified, undoing on the way
        each move that reached a node, as the move's generator in ``sides``
        says, and then checks that the exponents reached are those
        recorded for that node; a walk that reaches a node without a
        parent records it as its root.  Every node passed is recorded with
        the exponents reached there and the walk's root.  By induction each
        recorded node's exponents are joined to its root's by replayed
        moves, so when both walks end at the same root node, reached by
        the parent pointers and not by the root tags, the two sides are
        joined through it and the binomial lies in the ideal of the
        generators.  Each tree edge is replayed at most once per call of
        this method; a certification calls it once per degree, so once per
        cap.  A move that does not apply, exponents that differ from the
        record, a walk longer than the tree or two different roots raise
        RuntimeError.
        """
        cap = degree + self._slack
        tree, width, guard, buckets = self._layer(cap, nvars)
        explore = self._explore
        # a monomial packs as the empty monomial's cap << room plus, per
        # index i, one in field i and minus one in the room field
        room = width * nvars
        empty = cap << room
        terms = [(1 << width * i) - (1 << room) for i in range(nvars)]
        # move 2k replaces generator k's u_plus by its u_minus, and move
        # 2k + 1 is its reverse: undoing a move loses the side it gave
        undoes = {2 * k + reverse: (give, take)
                  for k, pair in enumerate(sides)
                  for reverse, (take, give) in enumerate((pair, pair[::-1]))}
        targets: dict[tuple[int, ...], tuple[int, Monomial]] = {}
        # node -> (exponents replayed to it, its root)
        verified: dict[int, tuple[Monomial, int]] = {}

        def walk(node: int, mono: Monomial) -> int:
            """The root of ``node``, replaying every unverified edge on the way up."""
            path = []
            current = list(mono)
            known = verified.get(node)
            while known is None:
                path.append((node, mono))
                _, prev, move = tree[node]
                if prev is None:
                    break
                if len(path) > len(tree):
                    raise RuntimeError("rewrite chain walks a cycle of parent pointers")
                undo = undoes.get(move)
                if undo is None:
                    raise RuntimeError(f"rewrite chain move {move} names no generator")
                lose, gain = undo
                for i, x in lose:
                    if current[i] < x:
                        raise RuntimeError(
                            f"rewrite chain step does not apply to {tuple(current)}")
                for i, x in lose:
                    current[i] -= x
                for i, x in gain:
                    current[i] += x
                node, mono = prev, tuple(current)
                known = verified.get(node)
            if known is None:
                root = node
            else:
                recorded, root = known
                if recorded != mono:
                    raise RuntimeError(f"rewrite chain reaches {mono}, not {recorded}")
            for entry in path:
                verified[entry[0]] = (entry[1], root)
            return root

        def member(plus: tuple[int, ...], minus: tuple[int, ...]) -> Optional[tuple[int, int]]:
            start = empty + sum(map(terms.__getitem__, plus))
            cached = targets.get(minus)
            if cached is None:
                cached = targets[minus] = (empty + sum(map(terms.__getitem__, minus)),
                                           _exponents(minus, nvars))
            target = cached[0]
            if start not in tree:
                explore(start, tree, guard, buckets)
            entry = tree.get(target)
            if entry is None or entry[0] != tree[start][0]:
                return None
            if walk(start, _exponents(plus, nvars)) != walk(target, cached[1]):
                raise RuntimeError("rewrite chain sides reach different roots")
            return start, target

        return member

    def path(self, degree: int, nvars: int, start: int, target: int) -> list[tuple[int, int]]:
        """(generator index, direction) steps from node ``start`` to node ``target``.

        The nodes are a pair that :meth:`members` proved for ``degree``
        over ``nvars`` variables, so both parent-pointer paths end at one
        root: the steps climb from ``start`` to it and descend to ``target``.
        """
        tree = self._layer(degree + self._slack, nvars)[0]
        up: list[tuple[int, int]] = []
        down: list[tuple[int, int]] = []
        for node, steps, sign in ((start, up, -1), (target, down, 1)):
            _, prev, move = tree[node]
            while prev is not None:
                steps.append((move >> 1, -sign if move & 1 else sign))
                _, prev, move = tree[prev]
        down.reverse()
        return up + down

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


def rewrite_chain(
    b: Binomial, gens: Sequence[Binomial], d: DegreeBound
) -> Optional[list[tuple[int, int]]]:
    """Breadth-first rewrite of one side of ``b`` into the other.

    Moves replace a divisor equal to one side of a generator by the other
    side, in either orientation.  Returns the chain as (generator index,
    direction) steps, or None when the target is unreachable within the
    degree cap.  With degree-balanced generators the cap is tight and the
    search is exact for the graded piece.  This is one membership query
    (:meth:`_RewriteForest.members`) on a fresh rewrite forest: the
    component of ``b.u_plus`` under the query's degree cap is explored as
    one tree rooted at ``b.u_plus``, so the chain is a shortest one, and
    it is read from the parent pointers only after the query has replayed
    every one of its moves against ``gens``.
    """
    forest = _RewriteForest(gens, d)
    forest.check_variables(b.nvars)
    if b.is_zero:
        return []
    member = forest.members(b.degree, b.nvars, _sparse_sides(gens))
    nodes = member(_indices(b.u_plus), _indices(b.u_minus))
    return None if nodes is None else forest.path(b.degree, b.nvars, *nodes)


def reduces_to_zero(b: Binomial, gens: Sequence[Binomial], d: DegreeBound) -> bool:
    """Membership of ``b`` in the binomial ideal of ``gens``, by rewriting.

    True iff :func:`rewrite_chain` returns a chain, which it does only
    after replaying each of its moves against ``gens``, so every True is
    backed by a concrete rewrite chain.  On generators that are not
    degree-balanced a False only means "not found within bound".
    """
    return rewrite_chain(b, gens, d) is not None


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
    each cap is searched once; every tree edge a query relies on is
    replayed once before it counts, on sparse sides built once from
    ``gens`` rather than from the forest's move index
    (:meth:`_RewriteForest.members`).  Kernel binomials are checked one
    degree at a time, in the order of :func:`enumerate_kernel_binomials`,
    so the witness is the first binomial of that list outside the ideal,
    and a failure at degree e stops the check before degree e + 1 is
    enumerated.  This is the one-input case of :func:`certify_family`.
    """
    return certify_family([(p, gens)], d)[0]


def certify_family(
    inputs: Sequence[tuple[Parametrization, Sequence[Binomial]]], d: DegreeBound
) -> tuple[CertificationVerdict, Optional[int]]:
    """Certify the sum of a family input by input, with the failing input's index.

    Each input is a parametrization with generators over its own
    variables.  The premise is that ``inputs`` are those of a
    :func:`~toricsum.sums.sum_family` call that succeeded: the sharing
    graph is a forest, each edge shares one variable, and every input of a
    component of two or more is homogeneous.  The verdict is then one on
    the sum of the inputs against the union of their generators, renamed
    into the sum's variables, at the same bound, as proved below.

    The parts are the distinct inputs, by (matrix entries, generators) in
    first-occurrence order, so a family of copies of one block certifies
    it once.  A lone input is its own whole sum, as ``sum_family`` returns
    it unchanged, and an empty sum has no kernel binomial.  Every part's
    generators are tested against its own kernel first, in order, and only
    then is any kernel enumerated: part by part, each kernel binomial up
    to the degree bound must rewrite to zero modulo its part's generators,
    through one rewrite forest per part, and every tree edge a query relies
    on is replayed once, against the generators.  The
    first failure is returned with the index in ``inputs`` of its part's
    first occurrence, over whose variables the witness is written; a pass
    has index None.

    A part's kernel binomials are read from
    :func:`_kernel_binomials_by_degree`, one degree e at a time, as pairs
    of variable-index tuples; only a witness becomes a
    :class:`~toricsum.binomials.Binomial`.  The variable count is checked
    once per part, and cap e + slack's trees and packing are fetched once
    per degree, for all of its pairs (:meth:`_RewriteForest.members`).
    The stream yields the list of :func:`enumerate_kernel_binomials` in
    its order, and whether a binomial has a chain depends only on whether
    its two sides share a component under its cap, not on the queries
    before it; the queries even come in the same order, so the trees are
    those of checking the whole list.  So the first failure is that list's
    first binomial outside the ideal, and returning there leaves every
    later degree unbuilt.  A pass rests on moves of the generators
    replayed from both sides to one root, each tree edge once.

    A pass means every kernel binomial of the sum up to degree d lies in
    the ideal of the union of the generators: the whole-sum check's
    claim, at the same bound.  The components of the sharing graph have
    disjoint variables, and a kernel binomial of the sum over two of them,
    X and Y, splits as x^a y^b - x^c y^d = y^b (x^a - x^c) + x^c (y^b - y^d).
    Both x^a - x^c and y^b - y^d are kernel binomials of one side (or
    zero), of degree no higher than the sum binomial's, so it is enough
    that each component's kernel binomials up to degree d lie in the ideal
    of its inputs' generators.  An isolated input, graded or not, is its
    own part, whose pass says exactly that: its enumerated binomials
    generate every fiber up to degree d, and each is joined by replayed
    moves.

    A component of two or more inputs holds only homogeneous ones, or
    ``sum_family`` refuses them.  Take one edge, R_i = k[S_i] glued along
    s, with s -> a_i, a nonzero column.  Each R_i is a domain containing
    k[s], so it is torsion-free, hence flat, over the PID k[s].  So s is a
    non-zerodivisor on R_1 (x)_{k[s]} R_2, which therefore embeds in its
    localization at s.  After inverting s, the pushout monoid embeds in
    the group (G_1 + G_2) / Z(a_1, -a_2), where G_i is the group of S_i.
    That group is torsion-free: homogeneity gives every column degree 1,
    so m*g = k*a_1 in G_1 forces m | k, and then g = (k/m)*a_1.  So the
    tensor product embeds in a Laurent ring, and I_1 + I_2 is prime, with
    lattice L_1 + L_2 (a direct sum, as the shared column is nonzero).
    Its rank is (n_1 - r_1) + (n_2 - r_2), which is the corank of A_sum,
    of rank r_1 + r_2 - 1; a saturated sublattice of ker A_sum of full
    rank is ker A_sum.  So I_1 + I_2 is the toric ideal of the glued
    matrix (Rosales's gluing, Semigroup Forum 1997).  The glued ideal is
    homogeneous again, so induct along the tree by leaf peeling.  Every
    variable has degree 1 under the grading, so (I_1 + ... + I_k)_e =
    sum_i (I_i)_e for each degree e, and each input that certifies up to
    degree d has (I_i)_e inside the ideal of its generators for e <= d.
    Disjoint components give a monoid algebra over a product of monoids,
    again a domain, so I_sum = I_1 + ... + I_k over the whole forest.

    A failure is the sum's failure too.  Define phi: k[X] -> k[X_i]: it
    fixes X_i, sends every variable of the subtree hanging off block i at
    shared variable s to s, and every variable of another component to 1.
    A binomial of another input of i's component is balanced, as that
    input is homogeneous, and goes to s^e - s^e = 0; any binomial of
    another component goes to 1 - 1 = 0.  So phi kills every I_j with
    j != i, hence every other input's generator once each is known to lie
    in its kernel, and maps I_sum = I_1 + ... + I_k onto I_i, which it
    fixes.  Hence I_sum meets k[X_i] in I_i: a generator outside its
    input's kernel is outside the sum's.  The whole-sum check tests the
    generators first, in input order, so they are tested here first too,
    and the first one outside its kernel is reported.  Otherwise part i
    has a kernel binomial w that its search does not reach from G_i.  phi
    sends a variable to a variable or to 1, so it maps a monomial to one
    of no higher degree, a move by G_i to itself and a move by any other
    generator to standing still: a whole-sum chain joining w's sides
    under a cap maps to a chain of G_i's moves under the same cap.  If G_i
    is balanced its moves keep the degree, so that chain never leaves
    deg w, and otherwise part i's cap has the whole sum's slack.  So the
    whole-sum search misses w too, and w, of degree <= d and in I_sum, is
    a witness for the sum.  It is the first failing input's witness,
    which need not be the first the whole-sum enumeration meets.
    """
    parts: dict[tuple, tuple[int, Parametrization]] = {}
    for index, (p, gens) in enumerate(inputs):
        parts.setdefault((p.matrix.entries, tuple(gens)), (index, p))
    for (_, gens), (index, p) in parts.items():
        for g in gens:
            if not contains_binomial(p, g):
                return CertificationVerdict(MISSING_IN_KERNEL, g, d.max_degree), index
    for (_, gens), (index, p) in parts.items():
        n = len(p.vars)
        forest = _RewriteForest(gens, d)
        forest.check_variables(n)
        sides = _sparse_sides(gens)
        for degree, pairs in _kernel_binomials_by_degree(p, d):
            member = forest.members(degree, n, sides)
            for plus, minus in pairs:
                if member(plus, minus) is None:
                    witness = Binomial(_exponents(plus, n), _exponents(minus, n))
                    return CertificationVerdict(MISSING_IN_SUM, witness, d.max_degree), index
    return CertificationVerdict(EQUAL_UP_TO_DEGREE, None, d.max_degree), None
