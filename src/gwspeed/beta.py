"""Level-n escape probabilities and their bias derivatives on truncated trees.

For a truncation depth n, beta_n(x) is the probability that the walk started
at x hits depth n before the parent of x. It is 1 on the boundary level and
satisfies, one level up,

    beta_n(x) = S / (lam + S),            S = sum of the children's beta_n,

which is evaluated exactly bottom-up. Writing A(x) = lam/(lam+S)^2 and
B(x) = S/(lam+S)^2, the bias derivative obeys

    -beta_n'(x) = A(x) * sum_i(-beta_n'(child_i)) + B(x),

with derivative 0 on the boundary. Equivalently

    beta_n'(x) = (lam * S' - S) / (lam + S)^2,   S' = sum of the children's beta_n',

and one level step evaluates (beta_n, beta_n') this way for every bottom-up
pass: ``compute_beta`` runs it over the level slices of a breadth-first tree,
the tree-method pools over the levels of a sampled forest (on a one-point
law, of the k-regular tree, one vertex a level), the population method over
resampled pool members. Every child sum S, like every tuple sum of
``speed``, goes through one ``_block_plan`` of its block layout, read through
the index of the values below, with reduceat's bits.
``beta_derivative_path_sum`` re-derives the root derivative by unrolling the
A/B recursion into a sum over vertices of B times the product of A along the
ancestor path; it is kept deliberately naive (per-vertex parent climbing,
plain reduceat) to serve as an independent check of the recursion.

Sample pools of iid root pairs (beta, beta') come in two flavors: ``tree``
draws genuinely independent truncated trees (unbiased), while ``population``
iterates a fixed-size pool through the recursion by resampling members,
which is fast but carries an O(1/pool size) dependence bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedRegimeError, _check_bias, _check_depth
from .offspring import OffspringDistribution
from .rng import D_POOL, D_POOL_POP, substream
from .tree import MAX_FOREST_LEVEL_BYTES, QuenchedTree, _check_budget, _sample_offspring_layers

# Chunking keeps peak forest memory near this many vertices on one level.
_CHUNK_LEVEL_BUDGET = 6_000_000
# np.add.reduceat sums a block of at most this many values left to right.
_SEQUENTIAL_BLOCK = 8
# Widest block whose ranks a block plan lists. _block_sums reads ranks only for
# blocks of up to _SEQUENTIAL_BLOCK values, and _merge_level only on a level no
# narrower than its code range, at least 2**w for a block of w values.
_PLANNED_WIDTH = 62
# Bytes a forest level holds per vertex while it is drawn and stepped: the
# uniform (8), the count (up to 8) and the (beta, beta') pair (16).
_FOREST_BYTES_PER_VERTEX = 32


@dataclass
class BetaTable:
    """Per-vertex beta_n and its bias derivative for one (tree, level, bias)
    triple. Arrays are indexed by vertex id; entries outside depth 0..n are
    NaN."""

    tree: QuenchedTree
    level: int
    lam: float
    beta: np.ndarray
    dbeta: np.ndarray

    @property
    def root_beta(self) -> float:
        return float(self.beta[self.tree.root])

    @property
    def root_dbeta(self) -> float:
        return float(self.dbeta[self.tree.root])


class _BlockPlan(NamedTuple):
    """Bias-independent plan for summing consecutive blocks of values read
    through ``index`` (None: in place): each block's first value, for each
    rank 1 <= j < ``_PLANNED_WIDTH`` the blocks that have a rank-j value (a
    slice when all do) with that value, and the block offsets into
    ``index``."""

    first: np.ndarray
    ranks: list
    off: np.ndarray
    index: np.ndarray | None


def _block_plan(counts: np.ndarray, index: np.ndarray | None = None) -> _BlockPlan:
    """The ``_BlockPlan`` of blocks of ``counts`` values read through ``index``."""
    off = np.cumsum(counts, dtype=np.int64)
    off -= counts
    first = off if index is None else index[off]
    ranks, lo = [], int(counts.min())
    for j in range(1, min(int(counts.max()), _PLANNED_WIDTH)):
        has = slice(None) if j < lo else np.flatnonzero(counts > j)
        at = off[has] + j
        ranks.append((has, at if index is None else index[at]))
    return _BlockPlan(first, ranks, off, index)


def _block_sums(x: np.ndarray, plan: _BlockPlan) -> np.ndarray:
    """``np.add.reduceat(x[plan.index], plan.off)``, bit for bit.

    reduceat adds a block as x0 + tail, where the tail x1 + x2 + ... is summed
    left to right from -0.0 when it has fewer than 8 values, pairwise
    otherwise. For blocks of at most ``_SEQUENTIAL_BLOCK`` values the same
    additions run as one gather from ``x`` per rank, whose cost is per value
    rather than per block; longer blocks fall back to reduceat. A first rank
    that every block has starts the tail as its gather, since -0.0 + y is y
    for every y. The result is a fresh array, which callers may overwrite.
    """
    first, ranks, off, index = plan
    if len(ranks) >= _SEQUENTIAL_BLOCK:
        return np.add.reduceat(x if index is None else x[index], off)
    if ranks and isinstance(ranks[0][0], slice):
        tail, ranks = x[ranks[0][1]], ranks[1:]
    else:
        tail = np.full(first.size, -0.0)
    for has, at in ranks:
        tail[has] += x[at]
    sums = x[first]
    sums += tail
    return sums


def _level_step(counts: np.ndarray, plan: _BlockPlan | None, b: np.ndarray | None,
                db: np.ndarray | None, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """One level of the bottom-up recursion: (beta, beta') of the parents.

    The children's (beta, beta') values ``b`` and ``db`` are summed in the
    blocks of ``plan``, one block of ``counts`` children per parent. A None
    plan stands for children on the boundary level (beta 1, beta' 0), whose
    sum is the count. Computes s / (lam + s) and (lam * s' - s) / (lam + s)**2
    in place on the fresh sums, in the same operations and order as written.
    """
    if plan is None:
        s, sp = counts.astype(np.float64), 0.0
    else:
        s, sp = _block_sums(b, plan), _block_sums(db, plan)
    denom = lam + s
    sp *= lam
    sp -= s
    s /= denom
    with np.errstate(over="ignore"):  # a huge bias's denom ** 2 is inf: beta' -> 0
        denom *= denom
    sp /= denom
    return s, sp


def compute_beta(tree: QuenchedTree, n: int, lam: float) -> BetaTable:
    """Exact bottom-up evaluation of beta_n and its bias derivative on a tree
    sampled to depth n, in one pass over its levels."""
    _check_bias(lam)
    start, nu = tree.levels(n)
    beta, dbeta = np.full(len(tree), np.nan), np.full(len(tree), np.nan)
    beta[start[n]:start[n + 1]] = 1.0
    dbeta[start[n]:start[n + 1]] = 0.0
    for k in range(n - 1, -1, -1):
        lo, hi, below = start[k], start[k + 1], start[k + 2]
        counts = nu[lo:hi]
        plan = None if k == n - 1 else _block_plan(counts)
        beta[lo:hi], dbeta[lo:hi] = _level_step(counts, plan, beta[hi:below],
                                                dbeta[hi:below], lam)
    return BetaTable(tree=tree, level=n, lam=lam, beta=beta, dbeta=dbeta)


def beta_derivative_path_sum(table: BetaTable) -> float:
    """Root derivative via the unrolled sum over vertices of B times the
    product of A along the strict ancestor path. O(vertices * depth); this is
    the reference the local recursion is checked against. A and B are derived
    here, level by level, from the table's own beta values, each child sum S
    by plain ``np.add.reduceat``."""
    tree, n, lam = table.tree, table.level, table.lam
    start, nu = tree.levels(n)
    parent, depth = tree.parent.tolist(), tree.depth.tolist()
    a, b = np.full(len(tree), np.nan), np.full(len(tree), np.nan)
    for k in range(n - 1, -1, -1):
        lo, hi = start[k], start[k + 1]
        counts = nu[lo:hi]
        s = np.add.reduceat(table.beta[hi:start[k + 2]], np.cumsum(counts) - counts)
        denom = (lam + s) ** 2
        a[lo:hi], b[lo:hi] = lam / denom, s / denom
    terms = []
    for v in range(len(tree)):
        dep = depth[v]
        if dep < 0 or dep > n - 1:
            continue
        term = float(b[v])
        x = v
        while parent[x] >= 0 and depth[parent[x]] >= 0:
            x = parent[x]
            term *= float(a[x])
        terms.append(term)
    return -math.fsum(terms)


# Pools -------------------------------------------------------------------


@dataclass
class BetaPool:
    """Sampled (beta, beta') root pairs at one (level, bias)."""

    beta: np.ndarray
    dbeta: np.ndarray
    level: int
    lam: float
    method: str

    def __len__(self) -> int:
        return self.beta.size


def _merge_level(counts: np.ndarray, plan: _BlockPlan | None, n_kid_shapes: int
                 ) -> tuple[np.ndarray, np.ndarray, _BlockPlan | None] | None:
    """Merge the vertices of one level by shape.

    On the lowest level (``plan is None``) a vertex's shape is its offspring
    count. Above it, the shape is the ordered sequence of the children's shape
    ids, read through the level's ``_block_plan`` (its first values and its
    ranks), coded exactly in base ``n_kid_shapes + 1`` with digits id + 1, and
    relabelled through a presence table over the code range. Returns each
    vertex's int32 shape id, and per shape its offspring count and the
    ``_block_plan`` of its children's shape ids (None on the lowest level); or
    None when the code range exceeds the level's width (before any code is
    built) or the shapes number more than half of it.
    """
    width, base = int(counts.max()), n_kid_shapes + 1
    code_range = width + 1 if plan is None else base ** min(width, _PLANNED_WIDTH)
    if code_range > counts.size:
        return None
    if plan is None:
        code = counts.astype(np.intp)  # indexes the presence table twice: convert once
    else:
        code = plan.first.astype(np.int64) + 1  # digit j: the shape of the j-th child
        for j, (has, at) in enumerate(plan.ranks, 1):
            code[has] += (at.astype(np.int64) + 1) * base ** j
    present = np.zeros(code_range, dtype=bool)
    present[code] = True
    shapes = np.flatnonzero(present)
    if 2 * shapes.size > counts.size:
        return None
    ids = (np.cumsum(present, dtype=np.int32) - 1)[code]
    if plan is None:
        return ids, shapes, None
    digits = shapes[:, None] // base ** np.arange(width, dtype=np.int64) % base
    counts = np.count_nonzero(digits, axis=1)
    return ids, counts, _block_plan(counts, (digits[digits > 0] - 1).astype(np.int32))


def _merge_forest(layers: list[np.ndarray]) -> tuple[list[tuple], np.ndarray | None]:
    """Bias-independent plan of the bottom-up pass over a sampled forest.

    Identical subtrees are merged level by level from the bottom, so a merged
    level holds one entry per shape (see ``_merge_level``). A level merges when
    its code range fits its width, so every level above an unmerged one is
    refused by that rule: in a leafless forest its children number at least
    its width, and its code range is at least their count + 1. (beta, beta')
    depend only on the shape, and a shape's child sums add the same values in
    the same order as those of each of its vertices, so the values are
    bit-identical.

    Consumes ``layers``, so that each merged level's counts are freed once it
    is merged. Returns the levels bottom up as (counts, plan) for
    ``_level_step``, where ``plan`` is the ``_block_plan`` of the children's
    values on the level below (None on the bottom level, whose children are
    all on the boundary), and the index of each root's value on the top level
    (None when the root level was not merged).
    """
    levels, ids = [], None
    while layers:
        counts = layers.pop()
        plan = _block_plan(counts, ids) if levels else None
        merged = _merge_level(counts, plan, len(levels[-1][0]) if levels else 0)
        ids, counts, plan = merged or (None, counts, plan)
        levels.append((counts, plan))
    return levels, ids


def _intp_plan(plan: _BlockPlan | None) -> _BlockPlan | None:
    """``plan`` with every index it gathers through as intp, which numpy
    would otherwise convert from int32 at each gather."""
    if plan is None:
        return None
    first, ranks, off, index = plan
    ranks = [(has, np.asarray(at, np.intp)) for has, at in ranks]
    index = None if index is None else np.asarray(index, np.intp)
    return _BlockPlan(np.asarray(first, np.intp), ranks, off, index)


def _forest_root_values(levels: list[tuple], top: np.ndarray | None, lam: float,
                        n_trees: int) -> tuple[np.ndarray, np.ndarray]:
    """Root (beta, beta') for every tree of a forest planned by
    ``_merge_forest``: one value per shape on merged levels, summed from the
    children's values through each level's plan."""
    if not levels:
        return np.ones(n_trees), np.zeros(n_trees)
    b = db = None
    for counts, plan in levels:
        b, db = _level_step(counts, plan, b, db, lam)
    if top is not None:
        b, db = b[top], db[top]
    return b, db


def _regular_levels(k: int, n: int) -> list[tuple]:
    """``_merge_forest``'s levels of the k-regular tree to depth n, one vertex a level."""
    counts = np.array([k])
    plan = _block_plan(counts, np.zeros(k, dtype=np.intp))
    return [(counts, plan if level else None) for level in range(n)]


def _trees_per_chunk(dist: OffspringDistribution, n: int) -> int:
    try:
        peak = max(1.0, dist.m) ** n
    except OverflowError:  # a single tree is already over budget
        return 1
    return max(1, int(_CHUNK_LEVEL_BUDGET / max(1.0, peak)))


def forest_level_bytes(dist: OffspringDistribution, n: int) -> float:
    """Predicted bytes of the widest level (n-1) of one forest chunk at depth
    n, from its expected width; nothing is allocated."""
    try:
        return _trees_per_chunk(dist, n) * max(1.0, dist.m) ** (n - 1) * _FOREST_BYTES_PER_VERTEX
    except OverflowError:
        return math.inf


def _check_forest_depth(dist: OffspringDistribution, n: int) -> None:
    """Refuse, before anything is drawn, a depth whose predicted widest
    forest level exceeds ``MAX_FOREST_LEVEL_BYTES``."""
    _check_budget(forest_level_bytes(dist, n), f"a depth-{n} forest level")


def _check_pool_size(dist: OffspringDistribution, n: int, count: int, method: str,
                     sample_bytes: float = 16.0) -> None:
    """Refuse, before any draw, a pool over the memory budget: a tree-method
    pool by its widest forest level and at ``sample_bytes`` a sample (16, the
    beta and beta' floats of one bias), a population pool at 64 bytes a sample
    and 32 a member drawn (tracemalloc peaks: 106 bytes a sample on 2:1, 379
    on 2:0.5,20:0.5)."""
    if method == "tree":
        _check_forest_depth(dist, n)
        _check_budget(sample_bytes * count, f"a tree-method pool of {count} samples")
    else:
        _check_budget((64.0 + 32.0 * dist.m) * count, f"a population pool of {count} samples")


def sample_pools_shared_trees(dist: OffspringDistribution, lams, n: int,
                              count: int, seed: int) -> list[BetaPool]:
    """Tree-method pools at several biases evaluated on one common set of
    trees (the i-th sample of every pool comes from the same realization),
    so cross-bias comparisons share all structural randomness. A one-point
    law draws nothing: each bias is evaluated once on its k-regular tree.

    ``_merge_forest`` keeps its shape ids int32, half the bytes of intp. The
    per-bias pass gathers through every plan index once a bias, so each
    forest's plans are cast to intp once, after the merge, rather than
    converted at every gather."""
    if dist.has_leaves:
        raise UnsupportedRegimeError("sample pools need a leafless offspring law")
    if count < 1:
        raise ValueError(f"pool size must be >= 1, got {count}")
    lams = [float(l) for l in lams]
    for lam in lams:
        _check_bias(lam)
    _check_depth(n)
    _check_pool_size(dist, n, count, "tree", 16.0 * len(lams))
    if dist.m1 == dist.m2:
        roots = [_forest_root_values(_regular_levels(dist.m1, n), None, lam, 1) for lam in lams]
        return [BetaPool(beta=np.full(count, b[0]), dbeta=np.full(count, db[0]), level=n,
                         lam=lam, method="tree") for (b, db), lam in zip(roots, lams)]
    betas = [np.empty(count) for _ in lams]
    dbetas = [np.empty(count) for _ in lams]
    chunk = _trees_per_chunk(dist, n)
    for ci, lo in enumerate(range(0, count, chunk)):
        hi = min(lo + chunk, count)
        rng = substream(seed, D_POOL, ci)
        levels, top = _merge_forest(_sample_offspring_layers(dist, n, hi - lo, rng))
        for i, (counts, plan) in enumerate(levels):  # in place, freeing each int32 plan
            levels[i] = counts, _intp_plan(plan)
        top = None if top is None else top.astype(np.intp)
        for j, lam in enumerate(lams):
            betas[j][lo:hi], dbetas[j][lo:hi] = _forest_root_values(levels, top, lam, hi - lo)
    return [BetaPool(beta=betas[j], dbeta=dbetas[j], level=n, lam=lam, method="tree")
            for j, lam in enumerate(lams)]


def sample_pool(dist: OffspringDistribution, lam: float, n: int, count: int,
                seed: int, method: str = "tree") -> BetaPool:
    """Pool of iid (beta, beta') samples at level n and the given bias.

    method="tree": one independent truncated tree per sample (unbiased).
    method="population": a pool of ``count`` values seeded at the boundary
    pair (1, 0) and pushed through the recursion n times by resampling pool
    members; approximate, with O(1/count) dependence between samples.
    """
    if method == "tree":
        return sample_pools_shared_trees(dist, [lam], n, count, seed)[0]
    if method != "population":
        raise ValueError(f"unknown pool method {method!r}")
    if dist.has_leaves:
        raise UnsupportedRegimeError("sample pools need a leafless offspring law")
    _check_bias(lam)
    _check_depth(n)
    if count < 1:
        raise ValueError(f"pool size must be >= 1, got {count}")
    _check_pool_size(dist, n, count, method)
    rng = substream(seed, D_POOL_POP, 0)
    b = np.ones(count)
    db = np.zeros(count)
    for _ in range(n):
        counts = dist.draw_counts(rng, count)
        idx = rng.integers(0, count, size=int(counts.sum(dtype=np.int64)))
        b, db = _level_step(counts, _block_plan(counts, idx), b, db, lam)
    return BetaPool(beta=b, dbeta=db, level=n, lam=lam, method="population")


# Bound checking ------------------------------------------------------------


@dataclass
class BoundReport:
    """Violation counts for the escape-probability envelope, the derivative
    ratio bound and the worst-case tuple denominator."""

    lam: float
    m1: int
    m2: int
    samples: int
    envelope_violations: int | None = None
    derivative_violations: int | None = None
    denominator_floor: float | None = None
    denominator_violations: int | None = None
    skipped: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v in (None, 0) for v in (self.envelope_violations,
                                            self.derivative_violations,
                                            self.denominator_violations))


def check_bounds(pool: BetaPool, m1: int, m2: int, lam: float) -> BoundReport:
    """Count violations of the proven sample-level bounds.

    Checks, per (beta, beta') pair:
      envelope      1 - min(lam, m1)/m1 <= beta <= beta_n of the m2-regular
                    tree at the pool's level n (beta = S/(lam + S) grows with
                    S), from the one-vertex-a-level pass of one-point pools
      derivative    0 < -beta' <= beta / (m1 - lam)          (needs lam < m1
                    and depth n >= 1: at depth 0 beta' is exactly 0)
      denominator   lam - 1 + (m1+1) * min(beta) >= m1 - lam/m1, the worst
                    case over every tuple that could be drawn from the pool
                    (needs lam < m1)

    Every sample of the pool is checked. Checks whose precondition fails are
    recorded in ``skipped``.
    """
    if not isinstance(pool, BetaPool):
        raise TypeError(f"expected a BetaPool, got {type(pool).__name__}")
    beta, dbeta = pool.beta, pool.dbeta

    report = BoundReport(lam=lam, m1=m1, m2=m2, samples=int(beta.size))
    hi = _forest_root_values(_regular_levels(m2, pool.level), None, lam, 1)[0][0]
    report.envelope_violations = int(((beta < 1.0 - min(lam, m1) / m1) | (beta > hi)).sum())
    if lam >= m1:
        report.skipped["derivative"] = (
            f"bias {lam:.9g} not below minimum branching {m1}")
        report.skipped["denominator"] = report.skipped["derivative"]
        return report
    if pool.level == 0:
        report.skipped["derivative"] = "depth-0 pool: every beta' is exactly 0"
    else:
        neg = -dbeta
        cap = beta / (m1 - lam)
        report.derivative_violations = int(((neg <= 0.0) | (neg > cap)).sum())
    floor = lam - 1.0 + (m1 + 1) * float(beta.min())
    threshold = m1 - lam / m1
    report.denominator_floor = floor
    report.denominator_violations = int(floor < threshold)
    return report
