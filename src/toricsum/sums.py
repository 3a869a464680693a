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
component is a tree; components are then joined block-diagonally.

A merge reads one summand shape, :class:`SumConstruction`, of maximal
rank.  A plain input is lifted into one when it enters: one elimination
of ``[A^T | 1]`` cuts its rows to a greedy row basis, which keeps the row
space and so the kernel, and solves its grading vector (rejecting a
non-homogeneous input); gamma is 1.
Pinning a side keeps every row outside the support S of its shared
column (the rows where that column is nonzero); when |S| = 1 the side is
read as it is, and otherwise the rows in S alone are reduced and their
grading entries carried (see :func:`_pin_support`).  S stays a
few rows however large the accumulated side grows (never more than two on
paths, stars and caterpillars of two-row blocks).

Each merge carries its facts forward instead of recomputing them on the
assembled matrix.  The pinned sides have maximal rank, so the assembled
matrix does too and its rank, the reported dimension, is its row count,
which is the paper's dim(I1) + dim(I2) - 1; its grading vector is stitched
from the two sides' and checked against the whole assembled matrix on
every merge; and the variables that occur in low-degree kernel binomials
of each input ideal are found at its first merge and carried along for
the shared-variable usage check.  A family is often many copies of one
block on different variables, so :func:`sum_family` solves and searches
each distinct input matrix once and only relabels the facts for its
copies.  A family report stores the input dimensions and the rank and
derives the paper's two closed forms from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .binomials import VariableSet
from .exact_linalg import IntegerMatrix, _solve_transposed
from .oracle import DegreeBound, enumerate_kernel_binomials
from .parametrization import (
    ConstructionError,
    HomogeneityCertificate,
    Parametrization,
    _pin_rows,
    dimension,
)

# Degree bound of the search for a kernel binomial involving a shared variable.
_USAGE_DEGREE = 2


@dataclass(frozen=True)
class SumConstruction:
    """Assembled sum with its grading; the shape a merge reads.

    ``result`` has maximal rank by construction, so its rank is its row
    count, m1 + m2 + 1, which equals dim(I1) + dim(I2) - 1.
    ``certificate`` is a grading vector of ``result``, stitched from the two
    sides and checked.

    ``used_variables`` holds the variables that occur in some kernel
    binomial of degree at most 2 of one of the input ideals (each searched
    on its own), or None while no input has been searched.  A construction
    can be passed back to :func:`sum_shared` in place of a parametrization,
    which then reuses these facts.  Inside a merge a plain input becomes a
    single summand: its independent rows as ``result``, gamma 1, its solved
    grading vector, usage not yet searched.
    """

    result: Parametrization
    gamma: int
    certificate: HomogeneityCertificate
    used_variables: Optional[frozenset[str]] = None


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

    Parameters are renamed with per-block prefixes so the parameter sets
    are disjoint as well.  A single input is returned unchanged; an empty
    input gives the empty parametrization.
    """
    ps = list(ps)
    if not ps:
        return Parametrization(VariableSet(()), VariableSet(()), IntegerMatrix(0, 0, ()))
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

    var_names: list[str] = []
    param_names: list[str] = []
    for k, p in enumerate(ps):
        var_names.extend(p.vars)
        param_names.extend(f"t{k + 1}_{name}" for name in p.params)

    total_cols = sum(p.matrix.cols for p in ps)
    rows: list[list[int]] = []
    col_offset = 0
    for p in ps:
        for row in p.matrix.entries:
            padded = [0] * col_offset + list(row) + [0] * (total_cols - col_offset - p.matrix.cols)
            rows.append(padded)
        col_offset += p.matrix.cols
    return Parametrization(
        VariableSet(tuple(param_names)),
        VariableSet(tuple(var_names)),
        IntegerMatrix.from_rows(rows, cols=total_cols),
        any(p.allow_degenerate for p in ps),
    )


def _used_columns(p: Parametrization) -> tuple[int, ...]:
    """Columns occurring in a kernel binomial of degree <= ``_USAGE_DEGREE``, ascending."""
    used: set[int] = set()
    for b in enumerate_kernel_binomials(p, DegreeBound(_USAGE_DEGREE)):
        used.update(i for i, (x, y) in enumerate(zip(b.u_plus, b.u_minus)) if x or y)
    return tuple(sorted(used))


@dataclass
class _Block:
    """Facts of one input matrix, shared by every input of a family that has it.

    ``keep`` is the greedy row basis and ``matrix`` those rows;
    ``certificate`` grades them.  ``used`` lists the columns that occur in a
    kernel binomial of degree at most ``_USAGE_DEGREE``, or is None until
    the first merge of an input with this matrix searches them.
    """

    keep: tuple[int, ...]
    matrix: IntegerMatrix
    certificate: HomogeneityCertificate
    used: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class _Lifted(SumConstruction):
    """A plain input lifted to a single summand, pointing at its matrix's facts.

    Its usage set is left to its first merge, which fills ``block.used``
    once for every input sharing the block (see :func:`_used_variables`).
    """

    block: Optional[_Block] = None


def _solve_block(a: IntegerMatrix, refusal: str) -> _Block:
    """Row basis and grading vector of ``a`` in one elimination.

    One reduction of ``[A^T | 1]`` over the nonzero columns gives both: its
    pivots are the greedy row basis, and its solution, zero off the pivots,
    is the grading vector of the kept rows.  Raises ConstructionError with
    ``refusal`` when there is none.
    """
    mask = [j for j, col in enumerate(zip(*a.entries)) if any(col)]
    keep, omega = _solve_transposed(a, [1] * len(mask), mask)
    if omega is None:
        raise ConstructionError(refusal)
    matrix = a if len(keep) == a.rows else a.take(keep, range(a.cols))
    return _Block(tuple(keep), matrix, HomogeneityCertificate(tuple(omega[r] for r in keep)))


def _lift(
    p: Parametrization, refusal: str, known: Optional[dict[IntegerMatrix, _Block]] = None
) -> _Lifted:
    """A plain input as a single summand of maximal rank: gamma = lcm() = 1.

    Keeps the greedy row basis of the matrix with those rows' parameter
    names; the row space, and so the kernel and the homogeneity, is
    unchanged.  Carries the grading vector of the kept rows, raising
    ConstructionError with ``refusal`` when there is none.  ``known`` maps
    each matrix already solved to its facts, so an input repeating a
    matrix is only relabelled.
    """
    known = {} if known is None else known
    block = known.get(p.matrix)
    if block is None:
        block = known[p.matrix] = _solve_block(p.matrix, refusal)
    if len(block.keep) < len(p.params):
        p = Parametrization(
            VariableSet(tuple(p.params.names[r] for r in block.keep)),
            p.vars,
            block.matrix,
            p.allow_degenerate,
        )
    return _Lifted(p, 1, block.certificate, None, block)


def _pin_support(
    side: SumConstruction, idx: int, support: list[int]
) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """Pin column ``idx`` of a side by reducing its support rows only.

    The rows in ``support`` (the nonzero entries of the column) go through
    the pin core :func:`_pin_rows` and are replaced, in order, by its
    reduced rows: the first is the pinned row, with ``q > 0`` in column
    ``idx``, and the k-th has ``q`` alone in its pivot column ``c_k`` among
    the support rows.  Every other row, and its grading entry, stays.  The
    grading vector is carried along the row operations: the k-th new row
    gets ``omega'_k = sum(omega_s * A[s][c_k] for s in support) / q``.  So
    ``omega'`` pairs with each new column exactly as ``omega`` with the old
    one, and the stitched check of the sum still tests every entry of
    ``omega``, inside the support or not.  When the support is every row
    and ``omega`` grades A, each ``omega'_k`` is ``1 / q``.
    """
    p = side.result
    entries = p.matrix.entries
    old = [entries[s] for s in support]
    reduced, pivot_cols, q = _pin_rows(old, idx, p.vars.names[idx])
    if len(reduced) != len(support):
        raise RuntimeError(f"carried rank of a side pinned at {p.vars.names[idx]!r} is not maximal")
    rows = list(entries)
    omega = list(side.certificate.omega)
    # The weights over their common denominator L, so each sum is of integers.
    weights = [omega[s] for s in support]
    denom = lcm(*(w.denominator for w in weights))
    numerators = [w.numerator * (denom // w.denominator) for w in weights]
    for s, row, c in zip(support, reduced, pivot_cols):
        rows[s] = tuple(row)
        omega[s] = Fraction(sum(n * a[c] for n, a in zip(numerators, old)), q * denom)
    return rows, omega


def _pinned(
    side: SumConstruction, shared: str
) -> tuple[Sequence[tuple[int, ...]], Sequence[Fraction], int, int]:
    """A side's rows and grading vector, its shared column ``idx`` and pinned row ``j``.

    Row ``j`` is the one row where column ``idx`` is nonzero.  When the
    column has a single nonzero row the side comes back as it is; on more
    rows, those rows are first re-pinned by :func:`_pin_support`, and ``j``
    is the first of them.
    """
    p = side.result
    idx = p.vars.index(shared)
    entries, omega = p.matrix.entries, side.certificate.omega
    support = [r for r, row in enumerate(entries) if row[idx]]
    if len(support) > 1:
        entries, omega = _pin_support(side, idx, support)
    return entries, omega, idx, support[0]


def _used_variables(side: SumConstruction) -> frozenset[str]:
    """Variables occurring in a kernel binomial of degree <= ``_USAGE_DEGREE``.

    A construction answers from its carried set.  A lifted input has its
    result searched once per block, the copies reading the columns found;
    its kept rows have the input's kernel, so the search finds the input
    ideal's binomials.  A construction built by a caller without the set
    has its result searched.
    """
    if side.used_variables is not None:
        return side.used_variables
    block = side.block if isinstance(side, _Lifted) else None
    if block is None:
        used = _used_columns(side.result)
    else:
        if block.used is None:
            block.used = _used_columns(side.result)
        used = block.used
    return frozenset(side.result.vars.names[j] for j in used)


def _enter(p1: Summand, p2: Summand, shared: str) -> tuple[SumConstruction, SumConstruction]:
    """Check the shared variable, then lift each plain input (see :func:`_lift`).

    The checks keep their order: the shared-variable set first, then per
    side its shared column and, for a plain input, its homogeneity.
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
        if side is p:
            side = _lift(p, f"{which} input is not homogeneous (no grading vector)")
        sides.append(side)
    return sides[0], sides[1]


def sum_shared(p1: Summand, p2: Summand, shared: str) -> SumConstruction:
    """Sum of two homogeneous kernels sharing exactly one variable.

    Both inputs are pinned automatically so the shared variable maps to a
    single parameter power g_i on one row of side i, and the matrix is
    written in one pass over fresh disjoint parameters (prefixes ``t1_``
    and ``t2_``, shared parameter ``s``): each other row of a side once,
    without the shared column and padded with zeros around its block, and
    last the row sum_i (gamma / g_i) * (pinned row i without the shared
    column), ending in gamma = lcm(g1, g2).  A negative g_i gives a
    negative scale.  The result carries a homogeneity certificate stitched
    from the two sides; it is checked against the assembled matrix on
    every call, with each side's pinned row checked to be graded 1 / g_i,
    and a failure raises RuntimeError.

    Every input is handled as a :class:`SumConstruction`.  An earlier
    construction stands for its ``result`` and its certificate and usage
    facts are reused; a plain parametrization is lifted into a
    single-summand construction on entry, which cuts it to its independent
    rows and solves its grading vector once.  Folding this function over a
    tree that passes each construction on thus pays for each input ideal's
    facts once.

    Each side is also searched for a kernel binomial of degree at most 2
    that involves the shared variable; a miss is a warning, not an error.
    The search runs on each input ideal, once: a construction answers for
    the input ideals it was built from, so it can warn where a search of
    the assembled matrix would not.
    """
    c1, c2 = _enter(p1, p2, shared)
    sides = [(c, *_pinned(c, shared)) for c in (c1, c2)]

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
    # gamma there and divides its grading entry 1 / g_i down to 1 / gamma.
    gamma = lcm(*(entries[j][idx] for _, entries, _, idx, j in sides))
    n1, n2 = (len(c.result.vars) - 1 for c in (c1, c2))
    pads = (((), (0,) * (n2 + 1)), ((0,) * n1, (0,)))
    rows: list[tuple[int, ...]] = []
    params: list[str] = []
    var_names: list[str] = []
    omega: list[Fraction] = []
    last: list[int] = []
    for (c, entries, w, idx, j), (left, right), prefix in zip(sides, pads, ("t1_", "t2_")):
        for r, row in enumerate(entries):
            cut = row[:idx] + row[idx + 1 :]
            if r == j:
                last.extend(gamma // row[idx] * x for x in cut)
            else:
                rows.append(left + cut + right)
                params.append(prefix + c.result.params.names[r])
                omega.append(w[r])
        var_names += c.result.vars.names[:idx] + c.result.vars.names[idx + 1 :]
    rows.append(tuple(last) + (gamma,))
    result = Parametrization(
        VariableSet(tuple(params) + ("s",)),
        VariableSet(tuple(var_names) + (shared,)),
        IntegerMatrix(len(rows), len(var_names) + 1, tuple(rows)),
        c1.result.allow_degenerate or c2.result.allow_degenerate,
    )
    certificate = HomogeneityCertificate(tuple(omega) + (Fraction(1, gamma),))
    pinned_graded = all(w[j] * entries[j][idx] == 1 for _, entries, w, idx, j in sides)
    if not (pinned_graded and certificate.certifies(result)):
        raise RuntimeError(f"stitched grading vector does not certify the sum over {shared!r}")

    return SumConstruction(
        result=result,
        gamma=gamma,
        certificate=certificate,
        used_variables=used,
    )


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
    and solves its grading vector, and each merge is passed constructions;
    an ideal's usage set is searched at its first merge.  Those facts are
    paid once per distinct input matrix: a dict local to the call maps each
    matrix to its kept rows, lifted matrix, certificate and used columns,
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

    merges: list[tuple[str, str, str]] = []
    component_results: list[Parametrization] = []
    rank_dim = 0
    for comp in graph.components:
        if len(comp.vertices) == 1:
            (v,) = comp.vertices
            component_results.append(ps[v])
            rank_dim += dims[v]
            continue
        adj: dict[int, dict[int, str]] = {v: {} for v in comp.vertices}
        for i, j, var in graph.edges:
            if i in adj:
                adj[i][j] = var
                adj[j][i] = var
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
