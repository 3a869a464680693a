"""Seeded input generation for the three workloads, as `.ideal` text.

Every workload has a fixed schedule of input *shapes* (family size, tree
kind, block kind, matrix shape); the seed only fills in the details (random
tree structure, random block entries, variable order, which generator is
dropped).  Two seeds therefore give different inputs of the same sizes,
which keeps the figures comparable from seed to seed.

Nothing here imports ``toricsum``: the program sees only the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

# Named blocks: (rows, generators).  A generator is a pair of column index
# lists, one per side: ((0, 1), (2, 2)) is v0*v1 - v2^2.
QUADRIC = ([[1, -1, 0], [1, 1, 1]], [((0, 1), (2, 2))])
CONIC = ([[1, 2, 0], [1, 0, 2]], [((1, 2), (0, 0))])
TWISTED_CUBIC = (
    [[3, 2, 1, 0], [0, 1, 2, 3]],
    [((0, 2), (1, 1)), ((1, 3), (2, 2)), ((0, 3), (1, 2))],
)
NAMED_BLOCKS = {"quadric": QUADRIC, "conic": CONIC, "twisted-cubic": TWISTED_CUBIC}

TREE_KINDS = ("path", "star", "caterpillar", "random")

# family-sum: every (k, tree kind) twice, once repeating a named block and
# once with distinct seeded 2x4 blocks.
FAMILY_KS = tuple(range(4, 15))
FAMILY_REPEATED = ("quadric", "conic", "twisted-cubic")

# certify: glued families of named blocks, and rational normal curves.
CERTIFY_GLUED_KS = (2, 3, 4, 5, 6)
# Certifying RNC(10) and RNC(11) in full takes seconds per op, so only the
# early-exit copies with a dropped generator go that far.
CERTIFY_RNC_NS = (6, 7, 8, 9)
CERTIFY_RNC_DROPPED_NS = (6, 7, 8, 9, 10, 11)
CERTIFY_DEGREE = 4

# lattice: fixed (rows, cols) shapes, an odd number of them so the median op
# falls inside one shape rather than in the gap between two.
LATTICE_SHAPES = ((4, 8), (5, 9), (6, 10), (7, 11), (8, 12), (9, 13), (10, 14), (10, 15), (10, 16))


@dataclass
class Case:
    """One generated input: the file text plus what is known about it."""

    label: str
    text: str
    blocks: list[tuple[str, list[str], list[list[int]]]]  # (ideal, vars, rows) per ideal
    gens: list[str] = field(default_factory=list)
    expect_missing: bool = False  # a generator was dropped


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def tree_edges(kind: str, k: int, cap: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a tree on k vertices with every degree at most ``cap``."""
    degree = [0] * k
    edges: list[tuple[int, int]] = []

    def attach(child: int, parent: int) -> None:
        edges.append((parent, child))
        degree[parent] += 1
        degree[child] += 1

    if kind == "path":
        for v in range(1, k):
            attach(v, v - 1)
    elif kind == "star":
        # Fill vertices in breadth-first order: a star while the centre has
        # room, then a broom of stars.
        for v in range(1, k):
            attach(v, next(u for u in range(v) if degree[u] < cap))
    elif kind == "caterpillar":
        # A spine of k // 2 vertices with legs dealt round the spine.
        spine = max(2, k // 2)
        for v in range(1, spine):
            attach(v, v - 1)
        for v in range(spine, k):
            attach(v, min(range(spine), key=lambda u: (degree[u] >= cap, degree[u], u)))
    elif kind == "random":
        for v in range(1, k):
            attach(v, rng.choice([u for u in range(v) if degree[u] < cap]))
    else:
        raise ValueError(f"unknown tree kind {kind!r}")
    return edges


def random_homogeneous_rows(rows: int, cols: int, rng: random.Random) -> list[list[int]]:
    """Random ±3 rows plus an all-ones row (an explicit grading), shuffled."""
    out = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows - 1)]
    out.append([1] * cols)
    rng.shuffle(out)
    return out


def random_block(cols: int, rng: random.Random) -> list[list[int]]:
    """A 2 x cols homogeneous block: distinct values in [-3, 3] over an all-ones row.

    Distinct values keep every column distinct, so no block has a degree-1
    kernel binomial.
    """
    return [rng.sample(range(-3, 4), cols), [1] * cols]


def _family_text(
    names: list[str],
    var_lists: list[list[str]],
    row_lists: list[list[list[int]]],
    gen_lists: Optional[list[list[str]]] = None,
) -> str:
    blocks = []
    for b, (name, vars_, rows) in enumerate(zip(names, var_lists, row_lists)):
        lines = [f"ideal {name}", "vars " + " ".join(vars_)]
        lines.append("params " + " ".join(f"p{r}" for r in range(len(rows))))
        lines.extend("row " + " ".join(str(x) for x in row) for row in rows)
        if gen_lists is not None:
            lines.extend(f"gen {g}" for g in gen_lists[b])
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def format_gen(gen: tuple[tuple[int, ...], tuple[int, ...]], names: list[str]) -> str:
    """Generator text, each side a product over ``names`` of its indices."""

    def side(indices: tuple[int, ...]) -> str:
        factors = []
        for i in sorted(set(indices)):
            e = indices.count(i)
            factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        return "*".join(factors)

    return f"{side(gen[0])} - {side(gen[1])}"


def glued_family(
    kind: str, k: int, block_kinds: list[str], rng: random.Random
) -> tuple[list[str], list[list[str]], list[list[list[int]]], list[list[str]]]:
    """A tree family: names, per-block variable names, rows and generators.

    ``block_kinds`` holds one entry per vertex: a named block or "random"
    (a fresh seeded 2x4 block from :func:`random_block`).
    """
    blocks = []
    for bk in block_kinds:
        if bk == "random":
            blocks.append((random_block(4, rng), []))
        else:
            blocks.append(NAMED_BLOCKS[bk])
    widths = [len(rows[0]) for rows, _ in blocks]
    edges = tree_edges(kind, k, min(widths), rng)

    var_lists = [[f"x{v}_{j}" for j in range(widths[v])] for v in range(k)]
    # Which column carries a shared variable changes the cost a lot (a column
    # with single support needs no pinning), so it follows a fixed pattern
    # rather than the seed.
    for e, (u, v) in enumerate(edges):
        for w in (u, v):
            free = [j for j, n in enumerate(var_lists[w]) if not n.startswith("s")]
            var_lists[w][free[(w + e) % len(free)]] = f"s{e}"
    names = [f"I{v}" for v in range(k)]
    rows = [rows for rows, _ in blocks]
    gens = [[format_gen(g, var_lists[v]) for g in blocks[v][1]] for v in range(k)]
    return names, var_lists, rows, gens


def family_sum_cases(seed: int) -> list[Case]:
    rng = rng_for("family-sum", seed)
    cases = []
    # Every (k, tree kind) twice: once repeating a named block, once with
    # distinct random blocks.
    for i, k in enumerate(FAMILY_KS):
        for j, tree in enumerate(TREE_KINDS):
            repeated = FAMILY_REPEATED[(i + j) % len(FAMILY_REPEATED)]
            for bk in (repeated, "random"):
                names, vars_, rows, _ = glued_family(tree, k, [bk] * k, rng)
                label = f"{tree}-k{k}-{'distinct' if bk == 'random' else bk}"
                cases.append(Case(label, _family_text(names, vars_, rows), list(zip(names, vars_, rows))))
    return cases


def rnc_rows(n: int) -> list[list[int]]:
    """Rational normal curve of degree n: x_i -> s^(n-i) t^i."""
    return [[n - i for i in range(n + 1)], [i for i in range(n + 1)]]


def rnc_minors(names: list[str]) -> list[str]:
    """The 2x2 minors x_i*x_(j+1) - x_(i+1)*x_j, i < j, of the catalecticant."""
    n = len(names) - 1
    return [
        format_gen(((i, j + 1), (i + 1, j)), names)
        for i in range(n)
        for j in range(i + 1, n)
    ]


def certify_cases(seed: int) -> list[Case]:
    rng = rng_for("certify", seed)
    cases = []
    glued = [("glued", k) for k in CERTIFY_GLUED_KS]
    # Three complete copies of the mix, then one that drops a generator.
    full = glued + [("rnc", n) for n in CERTIFY_RNC_NS]
    dropped = glued + [("rnc", n) for n in CERTIFY_RNC_DROPPED_NS]
    schedule = [(copy, shape) for copy in range(3) for shape in full] + [(3, s) for s in dropped]
    for copy, (kind, size) in schedule:
        drop = copy == 3
        if kind == "glued":
            tree = TREE_KINDS[(size + copy) % len(TREE_KINDS)]
            kinds = list(NAMED_BLOCKS)
            block_kinds = [kinds[(v + copy) % len(kinds)] for v in range(size)]
            names, vars_, rows, gens = glued_family(tree, size, block_kinds, rng)
            label = f"glued-{tree}-k{size}"
        else:
            perm = list(range(size + 1))
            rng.shuffle(perm)
            var_names = [f"y{perm[i]}" for i in range(size + 1)]
            names, vars_, rows = ["C"], [var_names], [rnc_rows(size)]
            gens = [rnc_minors(var_names)]
            label = f"rnc{size}"
        if drop:
            b = rng.randrange(len(names))
            del gens[b][rng.randrange(len(gens[b]))]
            label += "-dropped"
        cases.append(Case(
            label, _family_text(names, vars_, rows, gens), list(zip(names, vars_, rows)),
            [g for block in gens for g in block], expect_missing=drop,
        ))
    return cases


def lattice_cases(seed: int) -> list[Case]:
    rng = rng_for("lattice", seed)
    cases = []
    for copy in range(3):
        for rows, cols in LATTICE_SHAPES:
            matrix = random_homogeneous_rows(rows, cols, rng)
            names = [f"x{j}" for j in range(cols)]
            text = _family_text(["L"], [names], [matrix])
            cases.append(Case(f"{rows}x{cols}", text, [("L", names, matrix)]))
    return cases


CASES = {"family-sum": family_sum_cases, "certify": certify_cases, "lattice": lattice_cases}
