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
the tree-method pools over a shape table and the drawn levels above it, the
population method over resampled pool members. Every child sum S, like every
tuple sum of ``speed``, goes through one ``_block_plan`` of its block layout,
read through the index of the values below, with reduceat's bits.
``beta_derivative_path_sum`` re-derives the root derivative by unrolling the
A/B recursion into a sum over vertices of B times the product of A along the
ancestor path; it is kept deliberately naive (per-vertex parent climbing,
plain reduceat) to serve as an independent check of the recursion.

Sample pools of iid root pairs (beta, beta') come in two flavors: ``tree``
draws genuinely independent truncated trees (unbiased), while ``population``
iterates a fixed-size pool through the recursion by resampling members,
which is fast but carries an O(1/pool size) dependence bias. A tree-method
forest draws levels 0..n-j-1 as counts and one atom, an ordered depth-j shape
from its exact law, a vertex of level n-j (``_atom_depth`` picks j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedRegimeError, _check_bias, _check_depth
from .offspring import OffspringDistribution, make_distribution
from .rng import D_POOL, D_POOL_POP, substream
from .tree import MAX_FOREST_LEVEL_BYTES, QuenchedTree, _check_budget, _sample_offspring_layers

# Chunking keeps peak forest memory near this many vertices on one level.
_CHUNK_LEVEL_BUDGET = 6_000_000
# np.add.reduceat sums a block of at most this many values left to right.
_SEQUENTIAL_BLOCK = 8
# Most shapes an atom table holds (Vose's alias table over 160,000 takes 90 ms).
_MAX_SHAPES = 2**16
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
    through ``index`` (None: in place): the block offsets into ``index`` and,
    unless a block holds more than ``_SEQUENTIAL_BLOCK`` values (None: reduceat
    sums them), each block's first value and, for each rank j >= 1, the blocks
    that have a rank-j value (a slice when all do) with that value."""

    first: np.ndarray | None
    ranks: list | None
    off: np.ndarray
    index: np.ndarray | None


def _block_plan(counts: np.ndarray, index: np.ndarray | None = None) -> _BlockPlan:
    """The ``_BlockPlan`` of blocks of ``counts`` values read through ``index``."""
    off = np.cumsum(counts, dtype=np.int64)
    off -= counts
    width = int(counts.max())
    if width > _SEQUENTIAL_BLOCK:
        return _BlockPlan(None, None, off, index)
    first = off if index is None else index[off]
    ranks, lo = [], int(counts.min())
    for j in range(1, width):
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
    rather than per block; a plan with longer blocks falls back to reduceat.
    A first rank that every block has starts the tail as its gather, since
    -0.0 + y is y for every y. The result is a fresh array, which callers may
    overwrite.
    """
    first, ranks, off, index = plan
    if ranks is None:
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


def _shape_levels(dist: OffspringDistribution, j: int) -> tuple[list[tuple], np.ndarray]:
    """Every ordered subtree shape of depth j, bottom up as (counts, plan) for
    ``_level_step`` (level 1 reads the boundary: plan None), and each top
    shape's probability, the product of p_k over its internal vertices. Level
    i lists, for each k, every sequence of k level-(i-1) shapes, the first
    child the most significant digit; build only what ``_atom_depth`` admits."""
    support = np.array([k for k, _ in dist.entries])
    prob = np.array([p for _, p in dist.entries]) if j else np.ones(1)
    levels = [(support, None)] if j else []
    for _ in range(1, j):
        a = prob.size
        kids = [np.arange(a ** k)[:, None] // a ** np.arange(k - 1, -1, -1) % a
                for k in support.tolist()]
        counts = np.repeat(support, [len(c) for c in kids])
        prob = np.concatenate([pk * prob[c].prod(axis=1)
                               for (_, pk), c in zip(dist.entries, kids)])
        levels.append((counts, _block_plan(counts, np.concatenate([c.ravel() for c in kids]))))
    return levels, prob


@lru_cache(maxsize=8)
def _atom_table(dist: OffspringDistribution, j: int) -> tuple:
    """The depth-j shape levels and Walker's alias table of the top shapes'
    law (Vose's method), built once per (law, j), not to be written to: slot
    i of A, drawn uniformly, gives atom i with probability keep[i], else alias[i]."""
    levels, prob = _shape_levels(dist, j)
    keep, alias = (prob * prob.size).tolist(), list(range(prob.size))
    small = [i for i, q in enumerate(keep) if q < 1.0]
    large = [i for i, q in enumerate(keep) if q >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        alias[s] = big
        keep[big] = (keep[big] + keep[s]) - 1.0  # Vose's order of the two operations
        if keep[big] < 1.0:
            small.append(large.pop())
    for i in small + large:  # a scaled probability of 1 up to rounding
        keep[i] = 1.0
    return levels, np.array(keep), np.array(alias, dtype=np.intp)


def _draw_atoms(keep: np.ndarray, alias: np.ndarray, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """``size`` atoms from an alias table, one uniform each: times A, its
    integer part is the slot and its fraction decides keep or alias. One atom
    draws nothing."""
    if keep.size == 1:
        return np.zeros(size, dtype=np.intp)
    u = rng.random(size)
    u *= keep.size
    atoms = u.astype(np.intp)
    u -= atoms  # the fraction, exactly
    step = alias[atoms]
    step -= atoms
    step *= u >= keep[atoms]  # cheaper than np.where
    atoms += step
    return atoms


def _atom_depth(dist: OffspringDistribution, n: int, trees: int) -> int:
    """The depth j of the shapes a forest chunk of ``trees`` trees at depth n
    draws as atoms: the largest j <= n whose shape count A_j (the sum over k
    of A_(j-1)**k, saturated: A**64 saturates for any A >= 2) is at most
    ``_MAX_SHAPES`` and the chunk's expected width at level n - j."""
    shapes = 1
    for j in range(n):
        shapes = min(_MAX_SHAPES + 1, sum(shapes ** min(k, 64) for k, _ in dist.entries))
        if shapes > min(_MAX_SHAPES, trees * dist.m ** (n - j - 1)):
            return j
    return n


def _draw_forest(dist: OffspringDistribution, n: int, j: int, trees: int,
                 rng: np.random.Generator) -> tuple[list[tuple], np.ndarray | None]:
    """The counts of a forest chunk's levels 0..n-j-1 bottom up as (counts,
    plan), the lowest reading its children's shapes through one atom per
    level-(n-j) vertex (at j = 0 the boundary: plan None); and those atoms
    when no level is drawn (j = n)."""
    layers = _sample_offspring_layers(dist, n - j, trees, rng)
    width = int(layers[-1].sum(dtype=np.int64)) if layers else trees
    atoms = _draw_atoms(*_atom_table(dist, j)[1:], rng, width) if j else None
    if not layers:
        return [], atoms
    lowest = layers[-1], _block_plan(layers[-1], atoms) if j else None
    return [lowest] + [(c, _block_plan(c)) for c in layers[-2::-1]], None


def _level_pass(levels: list, b: np.ndarray, db: np.ndarray, lam: float) -> tuple:
    """(beta, beta') summed bottom up through ``levels`` from the values ``b``
    and ``db`` below them (at depth 0, the boundary vertex: 1 and 0)."""
    for counts, plan in levels:
        b, db = _level_step(counts, plan, b, db, lam)
    return b, db


def _trees_per_chunk(dist: OffspringDistribution, n: int) -> int:
    try:
        peak = max(1.0, dist.m) ** n
    except OverflowError:  # a single tree is already over budget
        return 1
    return max(1, int(_CHUNK_LEVEL_BUDGET / max(1.0, peak)))


def forest_level_bytes(dist: OffspringDistribution, n: int) -> float:
    """Predicted bytes of level n-1 of one forest chunk at depth n, from its
    expected width (the widest drawn before atoms); nothing is allocated."""
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
    so cross-bias comparisons share all structural randomness. A chunk of
    trees draws from ``substream(seed, D_POOL, chunk)``, and a bias evaluates
    its shapes once. When every tree is one shape (a one-point law, or depth
    0) nothing is drawn: each bias evaluates that shape and fills its pool."""
    if dist.has_leaves:
        raise UnsupportedRegimeError("sample pools need a leafless offspring law")
    if count < 1:
        raise ValueError(f"pool size must be >= 1, got {count}")
    lams = [float(l) for l in lams]
    for lam in lams:
        _check_bias(lam)
    _check_depth(n)
    _check_pool_size(dist, n, count, "tree", 16.0 * len(lams))
    betas = [np.empty(count) for _ in lams]
    dbetas = [np.empty(count) for _ in lams]
    if dist.m1 == dist.m2 or n == 0:  # every tree is the one depth-n shape
        levels = _atom_table(dist, n)[0]
        for i, lam in enumerate(lams):
            b, db = _level_pass(levels, np.ones(1), np.zeros(1), lam)
            betas[i][:], dbetas[i][:] = b[0], db[0]
    else:
        tables = {}  # trees a chunk: j and each bias's shape values
        chunk = _trees_per_chunk(dist, n)
        for ci, lo in enumerate(range(0, count, chunk)):
            hi = min(lo + chunk, count)
            if hi - lo not in tables:
                j = _atom_depth(dist, n, hi - lo)
                levels = _atom_table(dist, j)[0]
                tables[hi - lo] = j, [_level_pass(levels, np.ones(1), np.zeros(1), lam)
                                      for lam in lams]
            j, values = tables[hi - lo]
            drawn, top = _draw_forest(dist, n, j, hi - lo, substream(seed, D_POOL, ci))
            for i, lam in enumerate(lams):
                b, db = _level_pass(drawn, *values[i], lam)
                betas[i][lo:hi], dbetas[i][lo:hi] = (b, db) if top is None else (b[top], db[top])
    return [BetaPool(beta=betas[i], dbeta=dbetas[i], level=n, lam=lam, method="tree")
            for i, lam in enumerate(lams)]


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
                    S), the one shape of that law's depth-n table
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
    regular = _shape_levels(make_distribution({m2: 1.0}), pool.level)[0]
    hi = _level_pass(regular, np.ones(1), np.zeros(1), lam)[0][0]
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
