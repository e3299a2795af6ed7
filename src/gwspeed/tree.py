"""Arena storage for one quenched tree realization.

Vertices are integer ids into parallel arrays. ``sample_truncated_tree`` lays
a tree out breadth first, one level after another: level k occupies the ids
``[level_start[k], level_start[k + 1])`` and its children, taken in parent
order, are exactly level k + 1. So the children of a vertex are always a
contiguous id block ``[first_child, first_child + nu)``, and a level-wise pass
reads whole levels as slices. Lazy growth during walk simulation appends each
new child block at the end of the arena; it keeps the block property, and the
recorded levels (only the root, for a tree grown lazily from scratch) are
left as they were. Once a vertex's children have been generated they are
fixed for the lifetime of the tree (quenched environment): revisits see the
same branching.

The artificial parent of the root, when attached, sits at depth -1 and has the
root as its only child.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import InvalidStateError
from .offspring import OffspringDistribution
from .rng import D_TREE, substream

ROOT = 0
_UBUF = 512  # offspring counts drawn per refill for scalar draws
# one vertex of the adjacency dump, as json.dumps(..., indent=2) lays it out
_DUMP_VERTEX = ('  "%d": {\n    "parent": %s,\n    "children": %s,\n'
                '    "depth": %d\n  }')
_DUMP_KID_SEP = ",\n      "
_DUMP_CHUNK = 4096  # vertices per piece of text the dump yields


class QuenchedTree:
    """One realization of the branching tree, grown lazily from its root."""

    __slots__ = ("dist", "parent", "depth", "first_child", "nu", "star_root",
                 "level_start", "_rng", "_nus", "_ni")

    def __init__(self, dist: OffspringDistribution, rng: np.random.Generator):
        self.dist = dist
        self.parent = [-1]
        self.depth = [0]
        self.first_child = [-1]
        self.nu = [-1]          # -1 marks children not yet generated
        self.star_root: int | None = None
        self.level_start = [0, 1]  # breadth-first level bounds, root only
        self._rng = rng
        self._nus: list[int] = []  # buffered offspring counts, next at _ni
        self._ni = 0

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return ROOT

    def _draw_nu(self) -> int:
        if self._ni >= len(self._nus):
            self._nus = self.dist.draw_counts(self._rng, _UBUF).tolist()
            self._ni = 0
        self._ni += 1
        return self._nus[self._ni - 1]

    def children(self, v: int) -> list[int]:
        """Ids of v's children, generating them on first access."""
        k = self.nu[v]
        if k < 0:
            k = self._draw_nu()
            fc = len(self.parent)
            dep = self.depth[v] + 1
            self.parent.extend([v] * k)
            self.depth.extend([dep] * k)
            self.first_child.extend([-1] * k)
            self.nu.extend([-1] * k)
            self.first_child[v] = fc
            self.nu[v] = k
        fc = self.first_child[v]
        return list(range(fc, fc + k))

    def is_materialized_to(self, n: int) -> bool:
        """True when levels 0..n were laid out breadth first at sampling."""
        return n < len(self.level_start) - 1

    def level_ids(self, n: int) -> list[np.ndarray]:
        """Vertex ids of the levels 0..n, one contiguous range per level."""
        if not self.is_materialized_to(n):
            raise ValueError(f"tree is not materialized to depth {n}")
        start = self.level_start
        return [np.arange(start[k], start[k + 1]) for k in range(n + 1)]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(parent, depth, first_child, nu) as int64 numpy snapshots."""
        return (np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.depth, dtype=np.int64),
                np.asarray(self.first_child, dtype=np.int64),
                np.asarray(self.nu, dtype=np.int64))

    def to_adjacency(self) -> dict:
        """Debug dump {"id": {"parent": id|None, "children": [...], "depth": d}}."""
        out = {}
        for v in range(len(self.parent)):
            k = self.nu[v]
            kids = list(range(self.first_child[v], self.first_child[v] + k)) if k >= 0 else []
            par = self.parent[v]
            out[str(v)] = {"parent": None if par < 0 else par,
                           "children": kids, "depth": self.depth[v]}
        return out

    def adjacency_json_chunks(self) -> Iterator[str]:
        """Yield the text of ``json.dumps(self.to_adjacency(), indent=2)``
        piece by piece, ``_DUMP_CHUNK`` vertices per piece, straight from the
        arena lists: only one piece is held at a time, never the whole-tree
        dict."""
        lead = "{\n"
        for lo in range(0, len(self.parent), _DUMP_CHUNK):
            hi = lo + _DUMP_CHUNK
            rows = []
            for v, par, fc, k, dep in zip(range(lo, hi), self.parent[lo:hi],
                                          self.first_child[lo:hi], self.nu[lo:hi],
                                          self.depth[lo:hi]):
                kids = ("[\n      " + _DUMP_KID_SEP.join(map(str, range(fc, fc + k)))
                        + "\n    ]") if k > 0 else "[]"
                rows.append(_DUMP_VERTEX % (v, "null" if par < 0 else par, kids, dep))
            yield lead + ",\n".join(rows)
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
    (dist, n, seed): a forest of one tree, laid out breadth first."""
    if n < 0:
        raise ValueError(f"truncation depth must be >= 0, got {n}")
    tree = QuenchedTree(dist, substream(seed, D_TREE, 0))
    layers = _sample_offspring_layers(dist, n, 1, tree._rng)
    widths = [1] + [int(c.sum(dtype=np.int64)) for c in layers]
    counts = np.concatenate([np.zeros(0, dtype=np.int64), *layers])
    # every vertex but the root is some internal vertex's child, in id order
    unborn = [-1] * widths[-1]
    tree.parent = [-1] + np.repeat(np.arange(counts.size), counts).tolist()
    tree.depth = np.repeat(np.arange(n + 1), widths).tolist()
    tree.first_child = (1 + np.cumsum(counts) - counts).tolist() + unborn
    tree.nu = counts.tolist() + unborn
    tree.level_start = np.cumsum([0] + widths).tolist()
    return tree


def ensure_children(tree: QuenchedTree, v: int) -> list[int]:
    """Children of v, generated exactly once and cached thereafter."""
    if not (0 <= v < len(tree)):
        raise ValueError(f"vertex {v} does not exist")
    return tree.children(v)


def attach_star_root(tree: QuenchedTree) -> int:
    """Add the artificial parent of the root (depth -1, single child).

    Returns its vertex id. Raises InvalidStateError when already attached.
    """
    if tree.star_root is not None:
        raise InvalidStateError("artificial root already attached")
    star = len(tree.parent)
    tree.parent.append(-1)
    tree.depth.append(-1)
    tree.first_child.append(ROOT)
    tree.nu.append(1)
    tree.parent[ROOT] = star
    tree.star_root = star
    return star
