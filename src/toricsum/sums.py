"""Sums of toric ideals over disjoint or single shared variables.

Two kernels sharing exactly one variable combine into a block matrix

    [[A1',     0,       0],
     [0,       A2',     0],
     [s1*a1,   s2*a2,   g]]

after each side is pinned so the shared variable maps to a single
parameter power g_i on one row a_i (the semigroup gluing of Rosales,
Semigroup Forum 1997).  Ai' is the rest of side i; every block drops the
shared column, and the matrix is written row by row in one pass.  ``g``
is lcm(g1, g2) and s_i = g / g_i is negative when g_i is, which negates
that row and so keeps the kernel.  A family of ideals combines the same
way along the edges of its sharing graph, provided every connected
component is a tree; components are then joined block-diagonally.  Both
sums write their rows through one block-diagonal writer, and every
parametrization assembled here names its parameters ``t1, t2, ...`` by
row, never reading the inputs' parameter names, so the printed names
stay short and parse back however deep the tree.

A merge reads one summand shape, :class:`SumConstruction`, of maximal
rank.  A plain input is lifted into one when it enters: one elimination
of ``[A^T | 1]`` cuts its rows to a greedy row basis, which keeps the row
space and so the kernel, and refuses a non-homogeneous input; gamma is 1.
Pinning a side is one elimination step against the first row j of the
support S of its shared column (the rows where that column is nonzero):
every other row of S is recombined with row j so that the column
vanishes there (see :func:`_pinned`).  Row j and the rows outside S stay
as they are, and S stays a few rows however large the accumulated side
grows (never more than two on paths, stars and caterpillars of two-row
blocks).

Rank and grading hold by construction (the proof is in :func:`_pinned`
and :func:`sum_shared`), so neither is computed or checked on the
assembled matrix.  The pinned sides have maximal rank, so the assembled
matrix does too and its rank, the reported dimension, is its row count,
which is the paper's dim(I1) + dim(I2) - 1.  The variables that occur in
low-degree kernel binomials of each input ideal are found at its first
merge and carried along for the shared-variable usage check.  Only
constructions built here carry that set: any other summand is lifted
from its matrix, whatever it claims.  A family is often many copies of
one block on different variables, so :func:`sum_family` solves and
searches each distinct input matrix once and only relabels the facts for
its copies.  A family report stores the input dimensions and the rank and
derives the paper's two closed forms from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .binomials import VariableSet
from .exact_linalg import IntegerMatrix, _solve_transposed
from .oracle import DegreeBound, enumerate_kernel_binomials
from .parametrization import (
    ConstructionError,
    Parametrization,
    _numbered,
    dimension,
)

# Degree bound of the search for a kernel binomial involving a shared variable.
_USAGE_DEGREE = 2


@dataclass(frozen=True)
class SumConstruction:
    """Assembled sum and its glue exponent, as :func:`sum_shared` returns it.

    ``result`` has maximal rank, so its rank is its row count,
    rows(A1) + rows(A2) - 1, where rows(Ai) counts the independent rows
    of side i, which is dim(Ii): each side keeps every row but its pinned
    one, and one glued row replaces the two pinned rows.  That is the
    paper's dim(I1) + dim(I2) - 1.  ``gamma`` is lcm(g1, g2), the entry of
    the shared column on the glued row.  ``result`` is homogeneous, and
    :func:`homogeneity_certificate` solves a grading vector for it.  Rank
    and grading hold by construction and are not checked.

    A construction can be passed back to :func:`sum_shared` in place of a
    parametrization.  One that :func:`sum_shared` returned has its usage
    facts reused; any other stands for its ``result`` alone and is lifted
    like a plain input.
    """

    result: Parametrization
    gamma: int


Summand = Union[Parametrization, SumConstruction]


@dataclass(frozen=True)
class GraphComponent:
    """Connected component of a sharing graph, vertices ascending.

    ``is_tree`` holds when it has one edge fewer than vertices.
    """

    vertices: tuple[int, ...]
    is_tree: bool


@dataclass(frozen=True)
class IdealFamilyGraph:
    """Sharing graph: one vertex per ideal, an edge per shared variable.

    ``ids[v]`` names vertex ``v``; an edge ``(i, j, var)`` with ``i < j``
    says ideals ``i`` and ``j`` share exactly the variable ``var``.
    """

    ids: tuple[str, ...]
    edges: tuple[tuple[int, int, str], ...]
    components: tuple[GraphComponent, ...]

    @property
    def k(self) -> int:
        return len(self.ids)

    @property
    def r(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class FamilyReport:
    """Dimension accounting for a family sum.

    ``rank_dimension`` is the rank of the family sum, added up from the
    components: a merged component contributes the row count of its last
    construction, an isolated ideal its own rank.  It always equals
    ``iterated_prediction``; the paper's ``global_formula`` is always one
    more.
    """

    graph: IdealFamilyGraph
    input_dimensions: tuple[int, ...]
    rank_dimension: int
    merges: tuple[tuple[str, str, str], ...]

    @property
    def iterated_prediction(self) -> int:
        """sum(dims) - (k - r): the two-ideal formula iterated along the trees."""
        return sum(self.input_dimensions) - (self.graph.k - self.graph.r)

    @property
    def global_formula(self) -> int:
        """sum(dims) + r - k + 1, the paper's closed form for the whole family."""
        return sum(self.input_dimensions) + self.graph.r - self.graph.k + 1


def sum_disjoint(ps: Sequence[Parametrization]) -> Parametrization:
    """Block-diagonal sum of parametrizations on disjoint variables.

    The parameters are named ``t1, t2, ...`` by row, whatever the inputs
    call theirs.  A single input is returned unchanged; an empty input gives
    the empty parametrization.
    """
    ps = list(ps)
    if len(ps) == 1:
        return ps[0]
    seen: dict[str, int] = {}
    for k, p in enumerate(ps):
        for name in p.vars:
            if name in seen:
                raise ConstructionError(
                    f"variable {name!r} appears in inputs {seen[name] + 1} and {k + 1}; "
                    "disjoint sums require disjoint variable sets"
                )
            seen[name] = k
    rows = _block_diagonal([(p.matrix.cols, p.matrix.entries) for p in ps])
    matrix = IntegerMatrix(len(rows), len(seen), tuple(rows))
    return Parametrization(_numbered(len(rows)), VariableSet(tuple(seen)), matrix)


def _block_diagonal(
    blocks: Sequence[tuple[int, Iterable[tuple[int, ...]]]]
) -> list[tuple[int, ...]]:
    """Rows of the block-diagonal matrix of ``(width, rows)`` blocks, in order.

    Each row is padded with zeros around its block as it is read, so a
    block's rows can be streamed.
    """
    total = sum(width for width, _ in blocks)
    out: list[tuple[int, ...]] = []
    before = 0
    for width, rows in blocks:
        left, right = (0,) * before, (0,) * (total - before - width)
        for row in rows:
            out.append(left + row + right)
        before += width
    return out


def _used_columns(p: Parametrization) -> tuple[int, ...]:
    """Columns occurring in a kernel binomial of degree <= ``_USAGE_DEGREE``, ascending."""
    used: set[int] = set()
    for b in enumerate_kernel_binomials(p, DegreeBound(_USAGE_DEGREE)):
        used.update(i for i, (x, y) in enumerate(zip(b.u_plus, b.u_minus)) if x or y)
    return tuple(sorted(used))


@dataclass
class _Block:
    """Facts of one input matrix, shared by every input of a family that has it.

    ``matrix`` holds the rows of its greedy row basis.  ``used`` lists the
    columns that occur in a kernel binomial of degree at most
    ``_USAGE_DEGREE``, or is None until the first merge of an input with
    this matrix searches them.
    """

    matrix: IntegerMatrix
    used: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class _Carried(SumConstruction):
    """A construction whose facts hold by construction: a lifted input or a merge.

    ``used_variables`` holds the variables that occur in some kernel
    binomial of degree at most 2 of one of the input ideals (each searched
    on its own).  A lifted input points at its matrix's facts instead and
    leaves its usage set to its first merge, which fills ``block.used``
    once for every input sharing the block (see :func:`_used_variables`).
    """

    used_variables: frozenset[str] = frozenset()
    block: Optional[_Block] = None


def _solve_block(a: IntegerMatrix, refusal: str) -> _Block:
    """The greedy row basis of ``a``, which must be homogeneous.

    One reduction of ``[A^T | 1]`` gives the basis, its pivots, and is
    consistent exactly when a grading vector exists.  Raises
    ConstructionError with ``refusal`` when none does, as for any matrix
    with a zero column.  The solution itself is never built.
    """
    keep, reduced, _ = _solve_transposed(a, [1] * a.cols)
    if reduced is None:
        raise ConstructionError(refusal)
    return _Block(a if len(keep) == a.rows else a.take(keep, range(a.cols)))


def _lift(
    p: Parametrization, refusal: str, known: Optional[dict[IntegerMatrix, _Block]] = None
) -> _Carried:
    """A plain input as a single summand of maximal rank: gamma = lcm() = 1.

    Keeps the greedy row basis of the matrix, its parameters renamed
    ``t1, t2, ...`` when a row is cut; the row space, and so the kernel and
    the homogeneity, is unchanged.  Raises ConstructionError with
    ``refusal`` when the input is not homogeneous.  ``known`` maps each
    matrix already solved to its facts, so an input repeating a matrix is
    only relabelled.
    """
    known = {} if known is None else known
    block = known.get(p.matrix)
    if block is None:
        block = known[p.matrix] = _solve_block(p.matrix, refusal)
    if block.matrix.rows < p.matrix.rows:
        p = Parametrization(_numbered(block.matrix.rows), p.vars, block.matrix)
    return _Carried(p, 1, block=block)


def _pinned(p: Parametrization, shared: str) -> tuple[list[tuple[int, ...]], int, int]:
    """A side's pinned rows, its shared column ``idx`` and pinned row ``j``.

    ``j`` is the first row of the support S of column ``idx`` (the rows
    where it is nonzero) and ``c = A[j][idx]``.  One elimination step
    clears the column below it: every other row ``s`` in S becomes
    ``(c * row_s - c_s * row_j) / g_s``, ``c_s = A[s][idx]`` and ``g_s`` the
    gcd of the new row.  Row ``j`` and the rows outside S stay as they are.
    The step recombines the rows of S triangularly with diagonal entries 1
    and ``c / g_s``, all nonzero since ``c`` is, so it is invertible on
    their span: the row space, and so the kernel, is kept, and rows of
    maximal rank stay independent.  The side is homogeneous, and a grading
    vector of its rows times the inverse of that step grades the pinned
    rows; on the shared column, now ``c`` on row ``j`` alone, every such
    vector has ``omega_j = 1 / c``.  The side's maximal rank and homogeneity
    are trusted, as they hold for every construction :func:`sum_shared`
    builds.
    """
    idx = p.vars.index(shared)
    rows = list(p.matrix.entries)
    j, *others = (r for r, row in enumerate(rows) if row[idx])
    pinned, c = rows[j], rows[j][idx]
    for s in others:
        cs = rows[s][idx]
        row = [c * a - cs * b for a, b in zip(rows[s], pinned)]
        g = gcd(*row)  # nonzero: rows s and j are independent
        rows[s] = tuple(x // g for x in row)
    return rows, idx, j


def _cut(rows: Sequence[tuple[int, ...]], idx: int, j: int) -> Iterable[tuple[int, ...]]:
    """``rows`` without row ``j`` and column ``idx``, streamed.

    The arguments are bound at the call, so generators made in a loop over
    the sides each keep their own ``idx`` and ``j``.
    """
    return (row[:idx] + row[idx + 1 :] for r, row in enumerate(rows) if r != j)


def _used_variables(side: _Carried) -> frozenset[str]:
    """Variables occurring in a kernel binomial of degree <= ``_USAGE_DEGREE``.

    A merge answers from its carried set.  A lifted input has its result
    searched once per block, the copies reading the columns found; its kept
    rows have the input's kernel, so the search finds the input ideal's
    binomials.
    """
    block = side.block
    if block is None:
        return side.used_variables
    if block.used is None:
        block.used = _used_columns(side.result)
    return frozenset(side.result.vars.names[j] for j in block.used)


def _enter(p1: Summand, p2: Summand, shared: str) -> tuple[_Carried, _Carried]:
    """Check the shared variable, then lift each side not built here (see :func:`_lift`).

    A construction that :func:`sum_shared` did not build is lifted from its
    ``result``, ignoring the facts it claims.  The checks keep their order:
    the shared-variable set first, then per side its shared column and, for
    a lifted side, its homogeneity.
    """
    results = [p.result if isinstance(p, SumConstruction) else p for p in (p1, p2)]
    shared_set = set(results[0].vars.names) & set(results[1].vars.names)
    if shared_set != {shared}:
        raise ConstructionError(
            f"variable sets share {sorted(shared_set)}, expected exactly [{shared!r}]"
        )
    sides = []
    for side, p, which in zip((p1, p2), results, ("first", "second")):
        if not any(p.column(p.vars.index(shared))):
            raise ConstructionError(f"shared variable {shared!r} maps to 1 and cannot be pinned")
        if not isinstance(side, _Carried):
            side = _lift(p, f"{which} input is not homogeneous (no grading vector)")
        sides.append(side)
    return sides[0], sides[1]


def sum_shared(p1: Summand, p2: Summand, shared: str) -> SumConstruction:
    """Sum of two homogeneous kernels sharing exactly one variable.

    Both inputs are pinned automatically so the shared variable maps to a
    single parameter power g_i on one row of side i, by one elimination
    step against the first row where it occurs (see :func:`_pinned`);
    g_i is that row's entry, sign and all.  The matrix is written in one
    pass, with its parameters named ``t1, t2, ...`` by row: each other row
    of a side once, without the shared column and padded with zeros around
    its block (the shared column is a last block of width 1), and last the
    row sum_i (gamma / g_i) * (pinned row i without the shared column),
    ending in gamma = lcm(g1, g2).  A negative g_i gives a negative scale.

    Rank and grading hold by construction and are not checked.  The
    pinned sides have maximal rank.  Their other rows sit on disjoint
    column blocks, and only the last row has a nonzero shared entry, so
    the glued rows are independent: the rank is the row count.  A grading
    vector exists: take each pinned side's (see :func:`_pinned`) on its
    other rows and 1 / gamma on the last row.  A side's pinned row is
    scaled by gamma / g_i, and its own entry there is omega_j = 1 / g_i, so
    every result column pairs with that vector as it did in its side, to
    1, and the shared column, gamma on the last row alone, does too.

    Every input is handled as a :class:`SumConstruction`.  One returned by
    this function stands for its ``result`` with its usage facts reused;
    any other input, a parametrization or a construction built by hand, is
    lifted into a single-summand construction on entry, which cuts it to
    its independent rows and refuses it if it is not homogeneous.  Folding
    this function over a tree that passes each construction on thus pays
    for each input ideal's facts once.

    Each side is also searched for a kernel binomial of degree at most 2
    that involves the shared variable; a miss is a warning, not an error.
    The search runs on each input ideal, once: a construction answers for
    the input ideals it was built from, so it can warn where a search of
    the assembled matrix would not.
    """
    c1, c2 = _enter(p1, p2, shared)
    sides = [(c.result, *_pinned(c.result, shared)) for c in (c1, c2)]

    used: frozenset[str] = frozenset()
    for c, which in ((c1, "first"), (c2, "second")):
        found = _used_variables(c)
        if shared not in found:
            warnings.warn(
                f"no kernel binomial of the {which} ideal involves {shared!r} up to "
                f"degree {_USAGE_DEGREE}; the shared variable may not occur in any generator",
                stacklevel=2,
            )
        used |= found

    # Row j of each side is its pinned row, with g_i = entries[j][idx] in the
    # shared column; scaling it by gamma / g_i (negative when g_i is) puts
    # gamma there.
    gamma = lcm(*(entries[j][idx] for _, entries, idx, j in sides))
    blocks = [(len(p.vars) - 1, _cut(entries, idx, j)) for p, entries, idx, j in sides]
    rows = _block_diagonal(blocks + [(1, ())])
    var_names: list[str] = []
    last: list[int] = []
    for p, entries, idx, j in sides:
        pinned = entries[j]
        last += [gamma // pinned[idx] * x for x in pinned[:idx] + pinned[idx + 1 :]]
        var_names += p.vars.names[:idx] + p.vars.names[idx + 1 :]
    rows.append(tuple(last) + (gamma,))
    result = Parametrization(
        _numbered(len(rows)),
        VariableSet(tuple(var_names) + (shared,)),
        IntegerMatrix(len(rows), len(var_names) + 1, tuple(rows)),
    )
    return _Carried(result, gamma, used)


def build_family_graph(ideals: Sequence[tuple[str, VariableSet]]) -> IdealFamilyGraph:
    """Sharing graph of a family, rejecting pairs with two or more shared variables.

    The ideals are indexed by variable, so only pairs that share one are
    visited, in (i, j) order; that order fixes the edges and the pair
    reported.  Each component's edges are counted while it is traversed.
    """
    ids = [name for name, _ in ideals]
    if len(set(ids)) != len(ids):
        dup = next(n for i, n in enumerate(ids) if n in ids[:i])
        raise ValueError(f"duplicate ideal identifier {dup!r}")
    holders: dict[str, list[int]] = {}
    for i, (_, vs) in enumerate(ideals):
        for n in vs.names:
            holders.setdefault(n, []).append(i)

    edges: list[tuple[int, int, str]] = []
    adjacency: list[list[int]] = [[] for _ in ids]
    for i, (_, vs) in enumerate(ideals):
        # the variables ideal i shares with each later ideal, in i's order
        later: dict[int, list[str]] = {}
        for n in vs.names:
            for j in holders[n]:
                if j > i:
                    later.setdefault(j, []).append(n)
        for j in sorted(later):
            shared = later[j]
            if len(shared) >= 2:
                raise ConstructionError(
                    f"ideals {ids[i]!r} and {ids[j]!r} share {len(shared)} variables "
                    f"({', '.join(shared)}); at most one shared variable is allowed"
                )
            edges.append((i, j, shared[0]))
            adjacency[i].append(j)
            adjacency[j].append(i)

    seen = [False] * len(ids)
    components: list[GraphComponent] = []
    for start in range(len(ids)):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp, degrees = [start], [], 0
        while stack:
            v = stack.pop()
            comp.append(v)
            degrees += len(adjacency[v])
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        # every edge is counted at both ends
        components.append(GraphComponent(tuple(sorted(comp)), degrees == 2 * (len(comp) - 1)))

    return IdealFamilyGraph(tuple(ids), tuple(edges), tuple(components))


def sum_family(
    ps: Sequence[Parametrization],
    names: Optional[Sequence[str]] = None,
) -> tuple[Parametrization, FamilyReport]:
    """Sum a family of kernels along its sharing graph by leaf peeling.

    Every connected component must be a tree; within a component the
    lowest-indexed leaf is repeatedly merged into its neighbour with
    :func:`sum_shared`, and the component results are joined with
    :func:`sum_disjoint`.  Ideals that take part in a merge must be
    homogeneous; isolated vertices are exempt and stay plain.

    Each ideal of a merged component is lifted into a single-summand
    :class:`SumConstruction` up front, which cuts it to its independent rows
    and refuses it if it is not homogeneous, and each merge is passed
    constructions; an ideal's usage set is searched at its first merge.
    Those facts are paid once per distinct input matrix: a dict local to
    the call maps each matrix to its independent rows and used columns,
    and an ideal repeating a matrix only relabels them with its own names.
    The usage check runs per input ideal and incident edge, with the same
    warnings as a fold of :func:`sum_shared` over the plain inputs.  The
    report stores the input dimensions and the rank of the sum; the
    paper's closed forms are derived from them.
    """
    ps = list(ps)
    if names is None:
        names = [f"I{k + 1}" for k in range(len(ps))]
    names = list(names)
    if len(names) != len(ps):
        raise ValueError("one name per parametrization is required")

    graph = build_family_graph([(names[k], p.vars) for k, p in enumerate(ps)])
    for comp in graph.components:
        if not comp.is_tree:
            members = ",".join(names[v] for v in comp.vertices)
            raise ConstructionError(
                f"component {{{members}}} contains a cycle; the sharing graph must be a tree"
            )
    lifted: dict[int, SumConstruction] = {}
    known: dict[IntegerMatrix, _Block] = {}
    for comp in graph.components:
        if len(comp.vertices) > 1:
            for v in comp.vertices:
                lifted[v] = _lift(
                    ps[v],
                    f"ideal {names[v]!r} is not homogeneous (no grading vector) "
                    "and cannot enter a shared-variable sum",
                    known,
                )
    dims = tuple(len(lifted[v].result.params) if v in lifted else dimension(p)
                 for v, p in enumerate(ps))

    adj: dict[int, dict[int, str]] = {v: {} for v in range(len(ps))}
    for i, j, var in graph.edges:
        adj[i][j] = var
        adj[j][i] = var
    merges: list[tuple[str, str, str]] = []
    component_results: list[Parametrization] = []
    rank_dim = 0
    for comp in graph.components:
        if len(comp.vertices) == 1:
            (v,) = comp.vertices
            component_results.append(ps[v])
            rank_dim += dims[v]
            continue
        current = {v: lifted[v] for v in comp.vertices}
        while len(current) > 1:
            leaf = min(v for v in current if len(adj[v]) == 1)
            neighbour, var = next(iter(adj[leaf].items()))
            current[neighbour] = sum_shared(current[leaf], current[neighbour], var)
            merges.append((names[leaf], names[neighbour], var))
            del current[leaf]
            del adj[neighbour][leaf]
            del adj[leaf]
        (last,) = current.values()
        component_results.append(last.result)
        rank_dim += len(last.result.params)

    report = FamilyReport(graph, dims, rank_dim, tuple(merges))
    return sum_disjoint(component_results), report
