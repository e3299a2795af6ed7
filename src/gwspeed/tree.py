"""Arena storage for one quenched tree realization.

Vertices are column ids of one int64 arena with rows parent, depth,
first_child and nu. ``sample_truncated_tree`` lays a tree out breadth first,
one level after another: level k occupies the ids
``[level_start[k], level_start[k + 1])`` and its children, taken in parent
order, are exactly level k + 1. So the children of a vertex are always a
contiguous id block ``[first_child, first_child + nu)``, and a level-wise pass
reads whole levels as slices. Lazy growth (``children``, as the reference
walk ``transition_step`` uses it) appends each new child block at the end of
the arena, doubling its capacity when full; it keeps the block property, and
the recorded levels (only the root, for a tree grown lazily from scratch) are
left as they were. Once a vertex's children have been generated they are
fixed for the lifetime of the tree (quenched environment): revisits see the
same branching.

The artificial parent of the root, when attached, sits at depth -1 and has the
root as its only child.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cache

import numpy as np

from .errors import InvalidStateError, _check_depth
from .offspring import OffspringDistribution
from .rng import D_TREE, substream

ROOT = 0
_UBUF = 512  # offspring counts drawn per refill for scalar draws
_DUMP_CHUNK = 4096  # vertices per piece of text the dump yields
# Largest predicted tree, forest level or curve scan a sampler draws.
MAX_FOREST_LEVEL_BYTES = 2**31
# Bytes per vertex of a tree with its star root and one beta table: 48 held
# and 58-60 at peak were measured (tracemalloc, demo law, depths 12 and 14).
_TREE_BYTES_PER_VERTEX = 128


def _check_budget(need: float, what: str) -> None:
    """Refuse, before any draw, ``what`` predicted over ``MAX_FOREST_LEVEL_BYTES``."""
    if need > MAX_FOREST_LEVEL_BYTES:
        raise ValueError(f"{what} would need about {need / 2**30:.3g} GiB, "
                         f"over the {MAX_FOREST_LEVEL_BYTES / 2**30:g} GiB limit")


@cache
def _dump_row(k: int) -> str:
    """One vertex of the adjacency dump, as json.dumps(..., indent=2) lays it
    out, for k children (none when k < 0): %d slots for the id, each child and
    the depth, and a %s slot for the parent, which may be null."""
    kids = "[\n      %d" + ",\n      %d" * (k - 1) + "\n    ]" if k > 0 else "[]"
    return f'  "%d": {{\n    "parent": %s,\n    "children": {kids},\n    "depth": %d\n  }}'


def _count_stream(dist: OffspringDistribution, rng: np.random.Generator) -> Iterator[int]:
    """Offspring counts for scalar draws, drawn ``_UBUF`` at a time (through a
    memoryview: tolist()'s ints, without converting those never read)."""
    while True:
        yield from memoryview(dist.draw_counts(rng, _UBUF))


def _column(row: int) -> property:
    """A read-only view of one arena row over the vertices, as in arrays()."""
    return property(lambda tree: tree._arena[row, :tree._size])


class QuenchedTree:
    """One realization of the branching tree, grown lazily from its root."""

    __slots__ = ("dist", "star_root", "level_start", "_rng", "_counts", "_arena", "_rows", "_size")

    def __init__(self, dist: OffspringDistribution, rng: np.random.Generator):
        self.dist = dist
        # the root: no parent, depth 0, children not yet generated (nu -1)
        self._set_arena(np.array([[-1], [0], [-1], [-1]], dtype=np.int64))
        self._size = 1
        self.star_root: int | None = None
        self.level_start = [0, 1]  # breadth-first level bounds, root only
        self._rng = rng
        self._counts = _count_stream(dist, rng)  # drawn at the first lazy growth

    def __len__(self) -> int:
        return self._size

    parent, depth, first_child = _column(0), _column(1), _column(2)
    nu = _column(3)  # -1 marks children not yet generated

    @property
    def root(self) -> int:
        return ROOT

    def _set_arena(self, arena: np.ndarray) -> None:
        """Hold ``arena`` two ways: ``_arena``, a read-only view that the columns
        slice, and ``_rows``, a memoryview per row for single cells."""
        self._rows = tuple(map(memoryview, arena))
        self._arena = arena.view()
        self._arena.setflags(write=False)

    def _append(self, k: int, parent: int, depth: int) -> int:
        """Append k vertices with this parent and depth and no children yet,
        doubling the arena's capacity when it is full; return the first id.
        Spare columns already hold first_child and nu -1."""
        lo, hi = self._size, self._size + k
        if hi > self._arena.shape[1]:
            grown = np.full((4, max(hi, 2 * self._arena.shape[1])), -1, dtype=np.int64)
            grown[:, :lo] = self._arena[:, :lo]
            self._set_arena(grown)
        parents, depths, _, _ = self._rows
        for c in range(lo, hi):
            parents[c], depths[c] = parent, depth
        self._size = hi
        return lo

    def _block(self, v: int) -> tuple[int, int]:
        """(first child, child count) of v, generating its children on first access."""
        if self._rows[3][v] < 0:
            k = next(self._counts)
            fc = self._append(k, v, self._rows[1][v] + 1)
            self._rows[2][v], self._rows[3][v] = fc, k  # after _append, which may move the arena
        return self._rows[2][v], self._rows[3][v]

    def children(self, v: int) -> list[int]:
        """Ids of v's children, generating them on first access."""
        fc, k = self._block(v)
        return list(range(fc, fc + k))

    def is_materialized_to(self, n: int) -> bool:
        """True when levels 0..n were laid out breadth first at sampling."""
        return n < len(self.level_start) - 1

    def levels(self, n: int) -> tuple[list[int], np.ndarray]:
        """(level_start, nu) for a level-wise pass over depths 0..n: the one
        check of the fixed-tree oracles. Refuses a level below 0, a tree not
        laid out breadth first to depth n, and a childless vertex above depth
        n; with none of those, every level 0..n is non-empty."""
        if n < 0:
            raise ValueError(f"level must be >= 0, got {n}")
        if not self.is_materialized_to(n):
            raise ValueError(f"tree is not materialized to depth {n}")
        nu = self.nu
        if (nu[:self.level_start[n]] < 1).any():
            raise ValueError("tree has an internal vertex without children; "
                             "a leafless offspring law is required")
        return self.level_start, nu

    def level_ids(self, n: int) -> list[np.ndarray]:
        """Vertex ids of the levels 0..n, one contiguous range per level."""
        if not self.is_materialized_to(n):
            raise ValueError(f"tree is not materialized to depth {n}")
        start = self.level_start
        return [np.arange(start[k], start[k + 1]) for k in range(n + 1)]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(parent, depth, first_child, nu): the four attributes, read-only int64
        views of the arena's first ``len(self)`` columns. A view is valid until
        the tree next grows: growth may move the arena, and it changes the
        grown vertex's first_child and nu in place."""
        return self.parent, self.depth, self.first_child, self.nu

    def to_adjacency(self) -> dict:
        """Debug dump {"id": {"parent": id|None, "children": [...], "depth": d}}."""
        columns = zip(*(a.tolist() for a in self.arrays()))
        return {str(v): {"parent": None if par < 0 else par,
                         "children": list(range(fc, fc + max(k, 0))), "depth": dep}
                for v, (par, dep, fc, k) in enumerate(columns)}

    def adjacency_json_chunks(self) -> Iterator[str]:
        """Yield the text of ``json.dumps(self.to_adjacency(), indent=2)``
        piece by piece, ``_DUMP_CHUNK`` vertices per piece, from the
        ``arrays()`` views: one ``%`` of the chunk's row templates over the
        chunk's arguments, so only one piece is held at a time, never the
        whole-tree dict. A vertex's arguments are its id, parent, children and
        depth, ``max(nu, 0) + 3`` slots, scattered into place with numpy."""
        parent, depth, first_child, nu = self.arrays()
        lead = "{\n"
        for lo in range(0, len(parent), _DUMP_CHUNK):
            hi = lo + _DUMP_CHUNK
            slots = np.maximum(nu[lo:hi], 0) + 3
            starts = np.cumsum(slots) - slots
            # count on from each first child, then overwrite id, parent, depth
            args = np.repeat(first_child[lo:hi] - starts - 2, slots) + np.arange(slots.sum())
            args[starts] = np.arange(lo, lo + slots.size)
            args[starts + 1] = parent[lo:hi]
            args[starts + slots - 1] = depth[lo:hi]
            args = args.tolist()
            for i in np.flatnonzero(parent[lo:hi] < 0):
                args[starts[i] + 1] = "null"
            yield lead + ",\n".join(map(_dump_row, memoryview(nu[lo:hi]))) % tuple(args)
            lead = ",\n"
        yield "\n}"


def _sample_offspring_layers(dist: OffspringDistribution, depth: int,
                             n_trees: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Offspring counts for a forest of independent trees, one array per
    level 0..depth-1, laid out so consecutive blocks are whole subtrees."""
    layers = []
    width = n_trees
    for _ in range(depth):
        counts = dist.draw_counts(rng, width)
        layers.append(counts)
        width = int(counts.sum(dtype=np.int64))
    return layers


def sample_truncated_tree(dist: OffspringDistribution, n: int,
                          seed: int) -> QuenchedTree:
    """Fresh tree realization fully materialized to depth n, deterministic in
    (dist, n, seed): a forest of one tree, laid out breadth first; refused
    before any draw when its expected size needs over ``MAX_FOREST_LEVEL_BYTES``."""
    _check_depth(n)
    m = dist.m
    try:  # expected vertices: the sum of m**k over k <= n
        size = n + 1 if m == 1 else (m ** (n + 1) - 1) / (m - 1)
    except OverflowError:
        size = math.inf
    _check_budget(_TREE_BYTES_PER_VERTEX * size, f"a depth-{n} tree")
    tree = QuenchedTree(dist, substream(seed, D_TREE, 0))
    layers = _sample_offspring_layers(dist, n, 1, tree._rng)
    widths = [1] + [int(c.sum(dtype=np.int64)) for c in layers]
    counts = np.concatenate([np.zeros(0, dtype=np.int64), *layers])
    inner, tree._size = counts.size, counts.size + widths[-1]  # inner: above depth n
    # -1 where no parent or no children yet, and a spare column for the star root
    arena = np.full((4, tree._size + 1), -1, dtype=np.int64)
    tree._set_arena(arena)
    arena[0, 1:tree._size] = np.repeat(np.arange(inner), counts)
    arena[1, :tree._size] = np.repeat(np.arange(n + 1), widths)
    arena[2, :inner] = 1 + np.cumsum(counts) - counts
    arena[3, :inner] = counts
    tree.level_start = np.cumsum([0] + widths).tolist()
    return tree


def attach_star_root(tree: QuenchedTree) -> int:
    """Add the artificial parent of the root (depth -1, single child).

    Returns its vertex id. Raises InvalidStateError when already attached.
    """
    if tree.star_root is not None:
        raise InvalidStateError("artificial root already attached")
    star = tree._append(1, -1, -1)
    tree._rows[2][star], tree._rows[3][star] = ROOT, 1
    tree._rows[0][ROOT] = star
    tree.star_root = star
    return star
