"""Sums of toric ideals over disjoint or single shared variables.

Two kernels sharing exactly one variable combine into a block matrix

    [[A1', 0,   0],
     [0,   A2', 0],
     [a1,  a2,  g]]

after each side is pinned so the shared variable maps to a single
parameter power and the pinned exponents are rescaled to their lcm ``g``
(the semigroup gluing of Rosales, Semigroup Forum 1997).  A family of
ideals combines the same way along the edges of its sharing graph,
provided every connected component is a tree; components are then joined
block-diagonally.

Pinning a side touches as few rows as it can.  A side of maximal rank
keeps every row outside the support S of its shared column (the rows where
that column is nonzero); when |S| = 1 only rows and columns are permuted,
and otherwise the rows in S alone are reduced and their grading entries
carried (see :func:`_pin_support`).  A rank-deficient side goes through the
whole-matrix :func:`normalize_pin`.  The support stays a few rows however
large the accumulated side grows (on paths, stars and caterpillars of
two-row blocks it is never more than two), so a merge no longer
re-reduces the whole matrix built so far.

A merge reads one summand shape, :class:`SumConstruction`.  A plain
input is lifted into a single-summand construction when it enters, which
solves its grading vector (rejecting a non-homogeneous input) and its rank
once; gamma is 1.  Each merge then carries its facts forward instead of
recomputing them on the assembled matrix.  The pinned sides have maximal
rank, so the assembled matrix does too and its rank, the reported
dimension, is its row count, which is the paper's dim(I1) + dim(I2) - 1;
its grading vector is stitched from the two sides' and checked on every
merge; and the variables that occur in low-degree kernel binomials of each
input ideal are found once, at that ideal's first merge, and carried along
for the shared-variable usage check.  A family report stores the input
dimensions and the rank and derives the paper's two closed forms from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence, Union

from .binomials import VariableSet
from .exact_linalg import IntegerMatrix
from .oracle import DegreeBound, enumerate_kernel_binomials
from .parametrization import (
    ConstructionError,
    HomogeneityCertificate,
    Parametrization,
    _pin_rows,
    dimension,
    homogeneity_certificate,
    normalize_pin,
)

# Degree bound of the search for a kernel binomial involving a shared variable.
_USAGE_DEGREE = 2


@dataclass(frozen=True)
class SumConstruction:
    """Assembled sum with its rank and grading; the shape a merge reads.

    ``rank_dimension`` is the rank of ``result``.  The assembled matrix has
    maximal rank by construction, so this is its row count, m1 + m2 + 1,
    which equals dim(I1) + dim(I2) - 1.  ``certificate`` is a grading
    vector of ``result``, stitched from the two sides and checked.

    ``used_variables`` holds the variables that occur in some kernel
    binomial of degree at most 2 of one of the input ideals (each searched
    on its own), or None while no input has been searched.  A construction
    can be passed back to :func:`sum_shared` in place of a parametrization,
    which then reuses these facts.  Inside a merge a plain input becomes a
    single summand: its own ``result``, gamma 1, its rank, its solved
    grading vector, usage not yet searched.
    """

    result: Parametrization
    gamma: int
    rank_dimension: int
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
    components: a merged component contributes its last construction's
    ``rank_dimension``, an isolated ideal its own rank.  It always equals
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


class _PinnedSide(NamedTuple):
    """One side reshaped for assembly: rows, names, pinned exponent, grading.

    ``rows`` drop the shared column and end with the pinned row, whose
    shared entry is ``gamma``; ``params`` names the rows above it.
    ``omega`` grades all the rows, the pinned one last; a grading vector
    gives the pinned row 1 / gamma, since the shared column is gamma there.
    """

    rows: list[list[int]]
    params: tuple[str, ...]
    vars: tuple[str, ...]
    gamma: int
    omega: tuple[Fraction, ...]


def _lift(p: Parametrization, refusal: str) -> SumConstruction:
    """A plain input as a single summand: gamma = lcm() = 1.

    Solves the grading vector, raising ConstructionError with ``refusal``
    when there is none, and the rank; the usage search is left to the merge.
    """
    cert = homogeneity_certificate(p)
    if cert is None:
        raise ConstructionError(refusal)
    return SumConstruction(p, 1, dimension(p), cert)


def _pin_support(
    side: SumConstruction, idx: int, support: list[int]
) -> tuple[list[Sequence[int]], list[Fraction]]:
    """Pin column ``idx`` of a maximal-rank side by reducing its support rows only.

    The rows in ``support`` (the nonzero entries of the column) go through
    the pin core of :func:`normalize_pin` and are replaced, in order, by
    its reduced rows: the first is the pinned row, with ``q > 0`` in column
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
    rows: list[Sequence[int]] = list(entries)
    omega = list(side.certificate.omega)
    weights = [omega[s] for s in support]
    for s, row, c in zip(support, reduced, pivot_cols):
        rows[s] = row
        omega[s] = Fraction(sum(w * a[c] for w, a in zip(weights, old)), q)
    return rows, omega


def _pinned_last(side: SumConstruction, shared: str) -> _PinnedSide:
    """Reshape so the shared variable is pinned on the last row, then drop it.

    A side of maximal rank keeps its parameter names.  When its shared
    column is nonzero on a single row, only the row and column permutations
    are applied and the carried grading vector is permuted with the rows;
    on more rows, those rows are first re-pinned by :func:`_pin_support`.
    A rank-deficient side goes through :func:`normalize_pin`, whose pivot
    columns are q * e_i, so its grading vector is forced to (1/q, ..., 1/q)
    and its parameters are renamed t1, t2, ....
    """
    p = side.result
    idx = p.vars.index(shared)
    entries, params = p.matrix.entries, p.params.names
    support = [r for r, row in enumerate(entries) if row[idx]]
    if side.rank_dimension != len(params):
        pin = normalize_pin(p, idx)
        entries, params = pin.parametrization.matrix.entries, pin.parametrization.params.names
        j, omega = pin.pinned_param_index, (Fraction(1, pin.exponent),) * len(params)
    else:
        j, omega = support[0], side.certificate.omega
        if len(support) > 1:
            entries, omega = _pin_support(side, idx, support)

    row_order = [k for k in range(len(params)) if k != j] + [j]
    col_order = [c for c in range(len(p.vars)) if c != idx]
    rows = [[entries[r][c] for c in col_order] for r in row_order]
    omega = [omega[r] for r in row_order]
    gamma = entries[j][idx]
    if gamma < 0:
        # Row negation keeps the kernel; it only flips the parameter.
        rows[-1] = [-x for x in rows[-1]]
        omega[-1] = -omega[-1]
        gamma = -gamma
    return _PinnedSide(
        rows,
        tuple(params[r] for r in row_order[:-1]),
        tuple(p.vars.names[c] for c in col_order),
        gamma,
        tuple(omega),
    )


def _used_variables(side: SumConstruction) -> frozenset[str]:
    """Variables occurring in a kernel binomial of degree <= ``_USAGE_DEGREE``.

    A construction answers from its carried set; a single summand, which
    has none yet, has its result searched.
    """
    if side.used_variables is not None:
        return side.used_variables
    names = side.result.vars.names
    used: set[str] = set()
    for b in enumerate_kernel_binomials(side.result, DegreeBound(_USAGE_DEGREE)):
        used.update(names[i] for i, (a, c) in enumerate(zip(b.u_plus, b.u_minus)) if a or c)
    return frozenset(used)


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
    single parameter power, the pinned exponents are rescaled to their
    lcm, and the blocks are assembled over fresh disjoint parameters
    (prefixes ``t1_`` and ``t2_``, shared parameter ``s``).  The result
    carries a homogeneity certificate stitched from the two sides; it is
    checked against the assembled matrix, with each side's pinned row
    checked to be graded 1 / gamma_i, and a failure raises RuntimeError.

    Every input is handled as a :class:`SumConstruction`.  An earlier
    construction stands for its ``result`` and its certificate, rank and
    usage facts are reused; a plain parametrization is lifted into a
    single-summand construction on entry, which solves its grading vector
    and rank once.  Folding this function over a tree that passes each
    construction on thus pays for each input ideal's facts once.

    Each side is also searched for a kernel binomial of degree at most 2
    that involves the shared variable; a miss is a warning, not an error.
    The search runs on each input ideal, once: a construction answers for
    the input ideals it was built from, so it can warn where a search of
    the assembled matrix would not.
    """
    c1, c2 = _enter(p1, p2, shared)
    side1 = _pinned_last(c1, shared)
    side2 = _pinned_last(c2, shared)

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

    gamma = lcm(side1.gamma, side2.gamma)
    s1, s2 = gamma // side1.gamma, gamma // side2.gamma
    n1, n2 = len(side1.vars), len(side2.vars)
    rows = [row + [0] * (n2 + 1) for row in side1.rows[:-1]]
    rows += [[0] * n1 + row + [0] for row in side2.rows[:-1]]
    rows.append([s1 * x for x in side1.rows[-1]] + [s2 * x for x in side2.rows[-1]] + [gamma])
    result = Parametrization(
        VariableSet(
            tuple(f"t1_{name}" for name in side1.params)
            + tuple(f"t2_{name}" for name in side2.params)
            + ("s",)
        ),
        VariableSet(side1.vars + side2.vars + (shared,)),
        IntegerMatrix.from_rows(rows, cols=n1 + n2 + 1),
        c1.result.allow_degenerate or c2.result.allow_degenerate,
    )

    # Each side grades its pinned row 1 / gamma_i.  Scaling that row by
    # gamma / gamma_i divides its entry by the same factor, which leaves
    # 1 / gamma on both sides.
    certificate = HomogeneityCertificate(
        side1.omega[:-1] + side2.omega[:-1] + (Fraction(1, gamma),)
    )
    pinned_graded = all(side.omega[-1] * side.gamma == 1 for side in (side1, side2))
    if not (pinned_graded and certificate.certifies(result)):
        raise RuntimeError(f"stitched grading vector does not certify the sum over {shared!r}")

    return SumConstruction(
        result=result,
        gamma=gamma,
        rank_dimension=len(rows),
        certificate=certificate,
        used_variables=used,
    )


def build_family_graph(ideals: Sequence[tuple[str, VariableSet]]) -> IdealFamilyGraph:
    """Sharing graph of a family, rejecting pairs with two or more shared variables."""
    ids = [name for name, _ in ideals]
    if len(set(ids)) != len(ids):
        dup = next(n for i, n in enumerate(ids) if n in ids[:i])
        raise ValueError(f"duplicate ideal identifier {dup!r}")
    vsets = [vs for _, vs in ideals]
    k = len(ids)

    name_sets = [set(vs.names) for vs in vsets]
    edges: list[tuple[int, int, str]] = []
    for i in range(k):
        for j in range(i + 1, k):
            shared = [n for n in vsets[i].names if n in name_sets[j]]
            if len(shared) >= 2:
                raise ConstructionError(
                    f"ideals {ids[i]!r} and {ids[j]!r} share {len(shared)} variables "
                    f"({', '.join(shared)}); at most one shared variable is allowed"
                )
            if shared:
                edges.append((i, j, shared[0]))

    adjacency: dict[int, set[int]] = {v: set() for v in range(k)}
    for i, j, _ in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen: set[int] = set()
    components: list[GraphComponent] = []
    for start in range(k):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        is_tree = sum(1 for i, _, _ in edges if i in comp) == len(comp) - 1
        components.append(GraphComponent(tuple(sorted(comp)), is_tree))

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
    :class:`SumConstruction` up front, which solves its grading vector and
    rank, and each merge is passed constructions, so certificates, ranks
    and the usage search are paid once per input ideal; the usage check
    thus runs per input ideal and incident edge.  The report stores the
    input dimensions and the rank of the sum; the paper's closed forms are
    derived from them.
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
    for comp in graph.components:
        if len(comp.vertices) > 1:
            for v in comp.vertices:
                lifted[v] = _lift(
                    ps[v],
                    f"ideal {names[v]!r} is not homogeneous (no grading vector) "
                    "and cannot enter a shared-variable sum",
                )
    dims = tuple(lifted[v].rank_dimension if v in lifted else dimension(p)
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
        rank_dim += last.rank_dimension

    report = FamilyReport(graph, dims, rank_dim, tuple(merges))
    return sum_disjoint(component_results), report
