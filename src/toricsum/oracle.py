"""Brute-force certification of kernel presentations at desk scale.

Three independent routes into the same questions:

* enumerate kernel binomials that generate every fiber of monomials up
  to a degree bound, homogeneous or not.  One routine grows the
  monomials degree by degree as sorted variable indices, each image its
  parent's image plus one column, packed into one int, so no matrix
  product and no tuple is built per image.  The public list puts every
  degree in one map of buckets by image and pairs each member of a
  bucket with the bucket's minimum, reduced to disjoint supports,
  building exponent tuples only for buckets of two or more;
* decide binomial-ideal membership by breadth-first monomial rewriting,
  exact on degree-balanced generators and degree-capped otherwise.  Moves
  are reversible, so the monomials reachable from one another within a
  degree cap form connected components; a rewrite forest explores each
  component once, as one breadth-first tree of exponent tuples, and
  answers every query on it by comparing roots.  A monomial tries only
  the moves indexed under its own variables, then those with a constant
  divisor, and a move applies iff its divisor divides the monomial and
  its image stays under the cap.  One query answers every membership on
  the forest, public or in the certification of an input without a
  grading, and it proves each True: the tree edges it relies on are
  replayed against the generators, from both sides to one root, and
  :func:`rewrite_chain` reads its chain from the parent pointers only
  after that;
* cross-check a parametrization against a generator list in both
  inclusion directions, returning a verdict with a concrete witness on
  failure.  A family is certified input by input in one loop
  (:func:`certify_family`), every input's generators before any kernel,
  each of degree at most the bound by one comparison of its sides'
  packed images.  An input with a grading is certified one degree at a
  time by fiber components, with no search: the monomials of each fiber
  are joined by shared variables and by that degree's generators, on
  integer bitmasks of variables, and a degree with a split fiber stops
  the check before the next degree is grown (:func:`_fiber_failure`).  Any other input gets one rewrite forest
  for its whole certification: its kernel list is built up to the bound
  first, as a bucket of mixed degrees may reduce to a lower degree, then
  each degree's trees are fetched once for all of that degree's
  binomials, and every tree edge a query relies on is replayed once,
  against the generators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from operator import add, attrgetter, mul, sub
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


# A monomial of the fiber route: a _Compact with its variable bitmask, bit
# i set iff x_i divides it.
_Masked = tuple[tuple[int, ...], int, int]


def _masked_layers(p: Parametrization, d: DegreeBound) -> Iterator[list[_Masked]]:
    """:func:`_layers` with each monomial's variable bitmask as a third field.

    The mask is grown with the indices, the parent's mask or bit j, so no
    monomial's variables are read twice.  The monomials and their order are
    those of :func:`_layers`, and a reader that stops after degree e never
    has degree e + 1 built.
    """
    columns = _packed_columns(p, d)
    n = len(columns)
    bits = [1 << j for j in range(n)]
    layer = [((j,), columns[j], bits[j]) for j in range(n)]
    yield layer
    for _ in range(1, d.max_degree):
        layer = [(indices + (j,), image + columns[j], mask | bits[j])
                 for indices, image, mask in layer for j in range(indices[-1], n)]
        yield layer


def _by_image(layer: Sequence[tuple], buckets: dict[int, list[tuple]]
              ) -> dict[int, list[tuple]]:
    """``buckets`` with each monomial of ``layer`` appended to the bucket of its image.

    A monomial is a :data:`_Compact` or a :data:`_Masked`; its image is its
    second field.
    """
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
    binomials one degree at a time: from
    :func:`_kernel_binomials_by_degree` on a matrix without a grading, and
    as the pairs of each degree's buckets on a graded one
    (:func:`_fiber_failure`).
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


# A kernel pair of the fiber route: the two sides' variable indices, in
# increasing order.
_Pair = tuple[tuple[int, ...], tuple[int, ...]]


def _kernel_binomials_by_degree(
    p: Parametrization, d: DegreeBound
) -> Iterator[tuple[int, list[Binomial]]]:
    """:func:`enumerate_kernel_binomials` as (e, its binomials of degree e), e = 1..d.

    A degree with no binomial is skipped.  Concatenated, the lists are
    that function's output, in its order.  The whole list is built at
    once, as there, before the first degree is yielded: a bucket of mixed
    degrees may pair a member of degree up to d with its minimum and
    reduce the pair to a lower degree, so no degree's list is known until
    every layer up to d is bucketed.  A matrix without a grading vector
    may have such buckets, so certification reads its kernel from here; a
    graded one is certified by fibers instead (:func:`_fiber_failure`),
    whose buckets each hold one degree.
    """
    for degree, group in groupby(enumerate_kernel_binomials(p, d), attrgetter("degree")):
        yield degree, list(group)


def _check_variables(gens: Sequence[Binomial], nvars: int) -> None:
    """Raise ValueError unless every nonzero generator has ``nvars`` variables."""
    if any(g.nvars != nvars for g in gens if not g.is_zero):
        raise ValueError("generators and binomial are over different variable sets")


def _packed_images(g: Binomial, columns: list[int], d: DegreeBound
                   ) -> Optional[tuple[int, int]]:
    """The packed images of ``g``'s two sides under ``columns``, :func:`_packed_columns` at d.

    None unless ``g`` is over the columns' variables and of degree at most
    d, where packing is exact (:func:`_fiber_failure`).
    """
    if g.nvars != len(columns) or g.degree > d.max_degree:
        return None
    return sum(map(mul, columns, g.u_plus)), sum(map(mul, columns, g.u_minus))


def _in_kernel(p: Parametrization, g: Binomial, images: Optional[tuple[int, int]]) -> bool:
    """Kernel membership of the generator ``g``, from its :func:`_packed_images` if any.

    Two packed images of degree at most d are equal iff the images are, so
    one int comparison decides.  Without them, :func:`contains_binomial`
    does, which raises ValueError for ``g`` over another variable set.
    """
    return contains_binomial(p, g) if images is None else images[0] == images[1]


def _fiber_failure(p: Parametrization, gens: Sequence[Binomial], d: DegreeBound,
                   images: Sequence[Optional[tuple[int, int]]]) -> Optional[_Pair]:
    """The first kernel pair of a graded ``p`` outside the ideal of ``gens``, or None.

    ``images`` are the generators' :func:`_packed_images`, as the kernel
    premise of :func:`certify_family` read them.  Packing is exact up to
    degree d for any matrix: column j packs to sum_r a_rj * B^r with
    B = 2 * d * max|a| + 1, and every coordinate of the image of a monomial
    of degree at most d has absolute value at most d * max|a| < B / 2, a
    balanced digit, so distinct images of such monomials have distinct
    keys.  Both sides of a generator of degree at most d are such
    monomials, so equal packed images mean equal images.

    ``p`` has a grading vector (:func:`~toricsum.parametrization._is_graded`),
    so a monomial's degree is omega . A u, a function of its image: every
    fiber, the monomials of one image, holds one degree, and is complete
    once that degree's layer is grown.  Every generator lies in the kernel,
    so both of its sides lie in one fiber and it is balanced.  A generator
    whose sides differ in degree, or one of degree at most d whose sides
    differ in packed image, breaks that premise and raises RuntimeError.
    Degree by degree, the layer is put in buckets by image
    (:func:`_masked_layers`).  In a bucket of two or more, the member
    variable sets and, for each generator of that image, one variable of
    each side are merged into disjoint sets of variable indices, and the
    set holding the representative's variables is grown until no member or
    generator edge meets it without lying inside it.  A pair fails iff its
    first side's variables miss that set.  A degree with a failing pair
    returns its first one, so degree e + 1 is never grown.

    A set of variable indices is an int, bit i for x_i.  Each member
    carries its variables' mask, and a generator edge is the two bits of
    the first variable of each side.  "Meets" is a nonzero ``&``, a merge
    is ``|``, and the set is grown by passes over the edges until a pass
    adds no bit.  It starts at the representative's mask and only grows,
    so a member whose mask meets the representative's meets the final set
    too: a bucket where every member does has no failing pair, and skips
    the passes.

    The pairs and their order are those of :func:`_kernel_binomials_by_degree`.
    Within one degree, exponent-lex order is the reverse of index-lex
    order.  Take u != v of degree e and let j be the first variable where
    their exponents differ, say u_j > v_j.  Both index tuples start with
    the same c indices below j, and u's holds j at position c + v_j.  v's
    holds a larger index there: it has only c + v_j < c + u_j <= e indices
    up to j.  So u is exponent-larger and index-smaller.  The bucket's
    exponent-lex minimum, its star representative rep, is therefore its
    last member, and the list sorts a degree's pairs (m, rep) by m's index
    tuple in reverse, so the first failing pair is the largest.  A pair
    sharing a variable with rep reduces to a lower degree's disjoint pair
    (see :func:`enumerate_kernel_binomials`) and is not listed; it never
    fails here either, as its sides share a set.

    Let G be the generators.  Each x^a - x^b of a fiber of degree e is
    checked only after every kernel binomial of degree below e is known to
    lie in <G> (the pairs of those degrees generate their fibers).  Pass:
    the classes of the fiber's monomials modulo <G> are joined by shared
    variables and by degree-e generators.  If x^a = x_i x^a' and x^b = x_i
    x^b', then x^a' - x^b' is a kernel binomial of degree e - 1, so
    x_i (x^a' - x^b') lies in <G>; and g = x^u - x^v of degree e, with u and
    v in the fiber, lies in <G> itself.  So monomials whose variables meet
    one set are joined, by induction along the merges, and a passing pair
    lies in <G>.  Fail: <G> in multidegree b, the fiber's image, is
    spanned by the binomials x^c g with g = x^u - x^v in G and x^c x^u in
    the fiber, since every x^c g is homogeneous for the grading by images.
    With c != 1 both monomials of x^c g share c's variables; with c = 1, g
    has degree e and is an edge of the bucket.  Either way both lie in one
    set, so every element of <G> in that fiber has coefficients summing to
    zero on the monomials of each set.  x^m - x^rep with m's variables
    outside rep's set sums to 1 on m's set, so it is not in <G>.  Without
    a search, each answer is that of the rewrite forest's search (exact
    on balanced generators, with slack 0), and pairs come in its order, so
    the witness is the same.
    """
    joins: dict[int, list[int]] = {}
    for g, pair in zip(gens, images):
        if g.is_zero:
            continue
        if not g.is_balanced or pair is not None and pair[0] != pair[1]:
            raise RuntimeError(f"generator {g} has sides of different images")
        if pair is not None:
            plus, minus = g.u_plus, g.u_minus
            joins.setdefault(pair[0], []).append(1 << plus.index(next(filter(None, plus)))
                                                 | 1 << minus.index(next(filter(None, minus))))
    for layer in _masked_layers(p, d):
        failing: list[_Pair] = []
        for image, members in _by_image(layer, {}).items():
            if len(members) > 1:
                # the last member is the exponent-lex minimum
                rep, _, reach = members[-1]
                for _, _, mask in members:
                    if not mask & reach:
                        break
                else:
                    continue
                edges = [mask for _, _, mask in members] + joins.get(image, [])
                grown = 0
                while grown != reach:
                    grown = reach
                    for edge in edges:
                        if edge & reach:
                            reach |= edge
                failing += [(indices, rep) for indices, _, mask in members if not mask & reach]
        if failing:
            return max(failing)
    return None


# (root, parent, move) of a tree node; the root's own entry has no parent
# and move -1.  Move 2k replaces generator k's u_plus by its u_minus, and
# move 2k + 1 is its reverse.
_TreeEntry = tuple[Monomial, Optional[Monomial], int]
# each generator's (u_plus, u_minus) as (variable, exponent) pairs
_Sides = Sequence[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]]


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

    A node is a monomial's exponent tuple.  Moves are bucketed by the
    first variable of their divisor, in variable order, each bucket in
    move order, and the moves with a constant divisor come last.  A node
    tries the buckets of the variables in its support, in that order, then
    the constant-divisor moves; a move applies iff its divisor divides
    the node and its image stays under the cap, and an image not yet in
    the tree joins it with the node as its parent.  A move of a bucket the
    node skips has a divisor the node does not have, so each tree is the
    breadth-first tree of trying every move in bucket order, and the
    chains :meth:`path` reads from it are determined by that order.
    """

    def __init__(self, gens: Sequence[Binomial], d: DegreeBound) -> None:
        active = [(k, g) for k, g in enumerate(gens) if not g.is_zero]
        self._slack = 0 if all(g.is_balanced for _, g in active) else d.search_slack
        sides = _sparse_sides(gens)
        # first divisor variable, or the variable count for a constant
        # divisor -> (divisor, degree change, exponent change, move) per move
        buckets: dict[int, list[tuple[tuple[tuple[int, int], ...], int, Monomial, int]]] = {}
        for k, g in active:
            for move, a, b, divisor in ((2 * k, g.u_plus, g.u_minus, sides[k][0]),
                                        (2 * k + 1, g.u_minus, g.u_plus, sides[k][1])):
                change = tuple(map(sub, b, a))
                buckets.setdefault(divisor[0][0] if divisor else g.nvars, []).append(
                    (divisor, sum(change), change, move))
        self._buckets = sorted(buckets.items())
        # cap -> the trees of that cap
        self._trees: dict[int, dict[Monomial, _TreeEntry]] = {}

    def members(self, degree: int, sides: _Sides) -> Callable[[Monomial, Monomial], bool]:
        """Membership of the kernel binomials of ``degree``, given by their two sides.

        The returned query takes the exponents of a binomial's two sides,
        ``degree`` its larger side's degree.  It answers True when both lie
        in one tree under cap ``degree`` + slack, so :meth:`path` can read a
        chain between them, and False otherwise.  The variable count is the
        caller's to check.

        A True is proved, not read off the trees.  ``sides`` is
        :func:`_sparse_sides` of the generators, not the forest's move
        table.  From each side of a binomial the query walks up the parent
        pointers to the first node already verified or to a node without a
        parent, its root.  On every edge it undoes the move that reached
        the node, as the move's generator in ``sides`` says, and checks
        that the exponents reached are the parent's.  Every node passed is
        recorded with the walk's root.  By induction each recorded node is
        joined to its root by replayed moves, so when both walks end at the
        same root, reached by the parent pointers and not by the root tags,
        the two sides are joined through it and the binomial lies in the
        ideal of the generators.  Each tree edge is replayed at most once
        per call of this method; a certification calls it once per degree,
        so once per cap.  A move that does not apply, exponents that differ
        from the parent, a walk longer than the tree or two different roots
        raise RuntimeError.
        """
        cap = degree + self._slack
        tree = self._trees.setdefault(cap, {})
        # move 2k replaces generator k's u_plus by its u_minus, and move
        # 2k + 1 is its reverse: undoing a move loses the side it gave
        undoes = {2 * k + reverse: (give, take)
                  for k, pair in enumerate(sides)
                  for reverse, (take, give) in enumerate((pair, pair[::-1]))}
        # node -> its root, once every edge between them is replayed
        verified: dict[Monomial, Monomial] = {}

        def walk(node: Monomial) -> Monomial:
            """The root of ``node``, replaying every unverified edge on the way up."""
            path = []
            root = verified.get(node)
            while root is None:
                path.append(node)
                _, prev, move = tree[node]
                if prev is None:
                    root = node
                    break
                if len(path) > len(tree):
                    raise RuntimeError("rewrite chain walks a cycle of parent pointers")
                undo = undoes.get(move)
                if undo is None:
                    raise RuntimeError(f"rewrite chain move {move} names no generator")
                lose, gain = undo
                current = list(node)
                for i, x in lose:
                    if current[i] < x:
                        raise RuntimeError(f"rewrite chain step does not apply to {node}")
                    current[i] -= x
                for i, x in gain:
                    current[i] += x
                if tuple(current) != prev:
                    raise RuntimeError(f"rewrite chain reaches {tuple(current)}, not {prev}")
                node = prev
                root = verified.get(node)
            for passed in path:
                verified[passed] = root
            return root

        def member(plus: Monomial, minus: Monomial) -> bool:
            if plus not in tree:
                self._explore(plus, tree, cap)
            entry = tree.get(minus)
            if entry is None or entry[0] != tree[plus][0]:
                return False
            if walk(plus) != walk(minus):
                raise RuntimeError("rewrite chain sides reach different roots")
            return True

        return member

    def path(self, degree: int, start: Monomial, target: Monomial) -> list[tuple[int, int]]:
        """(generator index, direction) steps from ``start`` to ``target``.

        The two are a binomial's sides that :meth:`members` proved for
        ``degree``, so both parent-pointer paths end at one root: the steps
        climb from ``start`` to it and descend to ``target``.
        """
        tree = self._trees[degree + self._slack]
        up: list[tuple[int, int]] = []
        down: list[tuple[int, int]] = []
        for node, steps, sign in ((start, up, -1), (target, down, 1)):
            _, prev, move = tree[node]
            while prev is not None:
                steps.append((move >> 1, -sign if move & 1 else sign))
                _, prev, move = tree[prev]
        down.reverse()
        return up + down

    def _explore(self, root: Monomial, tree: dict[Monomial, _TreeEntry], cap: int) -> None:
        """Grow the tree of ``root``'s component under ``cap`` into ``tree``."""
        n = len(root)
        tree[root] = (root, None, -1)
        queue = deque([root])
        while queue:
            mono = queue.popleft()
            room = cap - sum(mono)
            for first, moves in self._buckets:
                if first == n or mono[first]:
                    for divisor, step, change, move in moves:
                        if step <= room:
                            # the else branch runs iff the divisor divides mono
                            for i, x in divisor:
                                if mono[i] < x:
                                    break
                            else:
                                image = tuple(map(add, mono, change))
                                if image not in tree:
                                    tree[image] = (root, mono, move)
                                    queue.append(image)


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
    _check_variables(gens, b.nvars)
    if b.is_zero:
        return []
    forest = _RewriteForest(gens, d)
    if not forest.members(b.degree, _sparse_sides(gens))(b.u_plus, b.u_minus):
        return None
    return forest.path(b.degree, b.u_plus, b.u_minus)


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
    enumerated kernel binomial up to the degree bound must lie in the
    ideal of the generators.  The first failure is returned as a witness.
    A ``p`` with a grading is checked by fiber components
    (:func:`_fiber_failure`), any other through one rewrite forest, whose
    every tree edge a query relies on is replayed once before it counts
    (:func:`_forest_failure`).  Either way kernel binomials are checked
    one degree at a time, in the order of
    :func:`enumerate_kernel_binomials`, so the witness is the first
    binomial of that list outside the ideal, and a failure at degree e
    stops the check before any binomial of degree e + 1 is queried.  On
    the fiber route it also stops before degree e + 1 is built; the
    forest route builds every degree up to d first (see
    :func:`_kernel_binomials_by_degree`).  This is the one-input case of
    :func:`certify_family`.
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
    then is any kernel read (:func:`_in_kernel`: a generator of degree at
    most d by comparing its sides' packed images, which the fiber route
    reuses, any other by evaluating both sides): part by part, each kernel binomial up to the
    degree bound must lie in the ideal of its part's generators.  The
    first failure is returned with the index in ``inputs`` of its part's
    first occurrence, over whose variables the witness is written; a pass
    has index None.

    A part's kernel binomials are read one degree e at a time, and the
    variable count is checked once per part.  A part with a grading
    (:func:`~toricsum.parametrization._is_graded`, one forward
    elimination) is checked by fiber components, with no search and no
    forest (:func:`_fiber_failure`, which proves that its answers are
    exact); its binomials are pairs of variable-index tuples, and only a
    witness becomes a :class:`~toricsum.binomials.Binomial`.  Any other
    part is checked through one rewrite forest (:func:`_forest_failure`):
    it reads :func:`_kernel_binomials_by_degree`, and cap e + slack's
    trees are fetched once per degree, for all of its binomials
    (:meth:`_RewriteForest.members`).  Whether a binomial has a chain
    depends only on whether its two sides share a component under its
    cap, not on the queries before it; the queries even come in the same
    order, so the trees are those of checking the whole list.  A pass
    there rests on moves of the generators replayed from both sides to
    one root, each tree edge once.  Both routes take the binomials of
    :func:`enumerate_kernel_binomials` in its order, so the first failure
    is that list's first binomial outside the ideal, and returning there
    queries no binomial of a later degree.  The fiber route has not built
    a later degree either; the forest route has built them all, since
    without a grading a bucket of mixed degrees can reduce a pair with a
    member of degree up to d to a lower degree, so no degree's list is
    complete before the last layer is bucketed.

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
    generate every fiber up to degree d, and each lies in the ideal of its
    generators, by the fiber argument or by replayed moves.

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
    has a kernel binomial w with no chain of G_i's moves under its cap: a
    graded part's w lies outside the ideal of G_i, so no chain at all
    joins its sides, and any other part's search does not reach it.  phi
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
    premises = []
    for (_, gens), (index, p) in parts.items():
        columns = _packed_columns(p, d)
        images = [_packed_images(g, columns, d) for g in gens]
        for g, pair in zip(gens, images):
            if not _in_kernel(p, g, pair):
                return CertificationVerdict(MISSING_IN_KERNEL, g, d.max_degree), index
        premises.append(images)
    for ((_, gens), (index, p)), images in zip(parts.items(), premises):
        n = len(p.vars)
        _check_variables(gens, n)
        if _is_graded(p):
            failing = _fiber_failure(p, gens, d, images)
            witness = failing and Binomial(*(_exponents(side, n) for side in failing))
        else:
            witness = _forest_failure(p, gens, d)
        if witness is not None:
            return CertificationVerdict(MISSING_IN_SUM, witness, d.max_degree), index
    return CertificationVerdict(EQUAL_UP_TO_DEGREE, None, d.max_degree), None


def _forest_failure(p: Parametrization, gens: Sequence[Binomial], d: DegreeBound
                    ) -> Optional[Binomial]:
    """The first kernel binomial of ``p`` with no rewrite chain modulo ``gens``, or None.

    The binomials are read from :func:`_kernel_binomials_by_degree`, one
    degree at a time, through one rewrite forest; cap e + slack's trees
    are fetched once per degree, for all of its binomials
    (:meth:`_RewriteForest.members`), and every tree edge a query relies
    on is replayed once, against the generators.
    """
    forest, sides = _RewriteForest(gens, d), _sparse_sides(gens)
    for degree, binomials in _kernel_binomials_by_degree(p, d):
        member = forest.members(degree, sides)
        for b in binomials:
            if not member(b.u_plus, b.u_minus):
                return b
    return None
