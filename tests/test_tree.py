import json
import tracemalloc

import numpy as np
import pytest

from gwspeed import (InvalidStateError, attach_star_root, make_distribution,
                     sample_truncated_tree)
from gwspeed import tree as tree_mod
from gwspeed.tree import QuenchedTree, _sample_offspring_layers
from gwspeed.rng import D_TREE, D_WALK, D_WALK_TREE, substream
from gwspeed.walker import WalkState, transition_step


def test_binary_truncation_counts(binary):
    tree = sample_truncated_tree(binary, 3, seed=1)
    assert len(tree) == 15
    depth = np.asarray(tree.depth)
    assert [int((depth == k).sum()) for k in range(4)] == [1, 2, 4, 8]


def test_depth_zero_truncation(binary):
    tree = sample_truncated_tree(binary, 0, seed=1)
    assert len(tree) == 1
    assert tree.depth.tolist() == [0]


def test_determinism(mix23):
    a = sample_truncated_tree(mix23, 6, seed=99)
    b = sample_truncated_tree(mix23, 6, seed=99)
    assert a.parent.tolist() == b.parent.tolist()
    assert a.nu.tolist() == b.nu.tolist()
    c = sample_truncated_tree(mix23, 6, seed=100)
    assert c.nu.tolist() != a.nu.tolist()


def test_children_caches(mix23):
    tree = QuenchedTree(mix23, substream(5, 1, 0))
    first = tree.children(0)
    again = tree.children(0)
    assert first == again
    assert len(first) in (2, 3)
    size_before = len(tree)
    tree.children(0)
    assert len(tree) == size_before


def test_children_on_materialized_leaves_rng_untouched(binary):
    tree = sample_truncated_tree(binary, 2, seed=3)
    state_before = tree._rng.bit_generator.state
    kids = tree.children(0)
    assert kids == [1, 2]
    assert tree._rng.bit_generator.state == state_before


def test_children_in_support(mix23):
    tree = sample_truncated_tree(mix23, 6, seed=17)
    support = {k for k, _ in mix23.entries}
    for v in range(len(tree)):
        if tree.nu[v] >= 0:
            assert tree.nu[v] in support


def test_offspring_histogram_matches_pmf(mix23):
    # >= 1e5 generated vertices, each bin within 3 binomial standard errors
    tree = sample_truncated_tree(mix23, 14, seed=31415)
    nu = np.asarray(tree.nu)
    drawn = nu[nu >= 0]
    total = drawn.size
    assert total >= 100_000
    for k, p in mix23.entries:
        count = int((drawn == k).sum())
        se = np.sqrt(total * p * (1 - p))
        assert abs(count - total * p) <= 3 * se


def test_parent_links_reach_root(mix23):
    tree = sample_truncated_tree(mix23, 6, seed=8)
    rng = np.random.default_rng(0)
    for v in rng.integers(0, len(tree), size=50):
        v = int(v)
        steps = 0
        x = v
        while tree.parent[x] >= 0:
            x = tree.parent[x]
            steps += 1
        assert x == tree.root
        assert steps == tree.depth[v]


def test_attach_star_root(binary):
    tree = sample_truncated_tree(binary, 3, seed=1)
    star = attach_star_root(tree)
    assert len(tree) == 16
    assert tree.depth[star] == -1
    assert tree.parent[tree.root] == star
    assert tree.children(star) == [tree.root]
    with pytest.raises(InvalidStateError):
        attach_star_root(tree)


@pytest.mark.parametrize("pmf", [{2: 1.0}, {2: 0.5, 3: 0.5}, {1: 0.5, 12: 0.5}, {0: 0.25, 2: 0.75}])
@pytest.mark.parametrize("depth", [0, 1, 4])
def test_sampled_tree_carries_its_arrays_from_birth(pmf, depth):
    def assert_arrays_are_the_columns():
        for a, col in zip(tree.arrays(), (tree.parent, tree.depth, tree.first_child, tree.nu)):
            assert a.dtype == col.dtype == np.int64
            assert not a.flags.writeable and not col.flags.writeable
            assert len(a) == len(tree) and a.tolist() == col.tolist()

    tree = sample_truncated_tree(make_distribution(pmf), depth, seed=9)
    assert_arrays_are_the_columns()
    star = attach_star_root(tree)
    assert_arrays_are_the_columns()
    assert tree.parent[tree.root] == star == tree.arrays()[0][tree.root]
    tree.children(tree.level_start[depth])  # the first vertex at the sampled depth
    assert_arrays_are_the_columns()


def test_lazy_growth_across_capacity_doublings_matches_a_list_reference(mix23):
    # children of random vertices, grown or not, from one root up to 5,000
    # vertices, against lists grown by appending from the same count stream
    tree = QuenchedTree(mix23, substream(7, 1, 0))
    ref_rng = substream(7, 1, 0)

    def counts():  # refilled _UBUF at a time, as the tree draws them
        while True:
            yield from mix23.draw_counts(ref_rng, tree_mod._UBUF).tolist()

    draw = counts()
    parent, depth, first_child, nu = [-1], [0], [-1], [-1]
    capacities = set()
    pick = np.random.default_rng(3)
    while len(parent) < 5000:
        v = int(pick.integers(len(parent)))
        kids = tree.children(v)
        if nu[v] < 0:
            k = next(draw)
            first_child[v], nu[v] = len(parent), k
            parent += [v] * k
            depth += [depth[v] + 1] * k
            first_child += [-1] * k
            nu += [-1] * k
        assert kids == list(range(first_child[v], first_child[v] + nu[v]))
        assert len(tree) == len(parent)
        capacities.add(tree._arena.shape[1])
    assert len(capacities) >= 10
    assert [a.tolist() for a in tree.arrays()] == [parent, depth, first_child, nu]


def test_a_write_through_any_view_raises(mix23):
    for tree in (sample_truncated_tree(mix23, 3, seed=1), QuenchedTree(mix23, substream(1, 1, 0))):
        attach_star_root(tree)
        tree.children(tree.root)
        for view in (*tree.arrays(), tree.parent, tree.depth, tree.first_child, tree.nu):
            for write in (lambda: view.__setitem__(0, 7), lambda: view.fill(7),
                          lambda: np.add(view, 1, out=view)):
                with pytest.raises(ValueError, match="read-only"):
                    write()
        assert tree.parent[tree.root] == tree.star_root


def test_arrays_follow_growth(mix23):
    tree = sample_truncated_tree(mix23, 2, seed=4)
    attach_star_root(tree)
    for v in range(tree.level_start[2], tree.level_start[3]):
        size = len(tree)
        kids = tree.children(v)
        parent, depth, first_child, nu = tree.arrays()
        assert len(parent) == len(depth) == len(tree) == size + len(kids)
        assert (first_child[v], nu[v]) == (kids[0], len(kids)) == (size, len(kids))
        assert parent[size:].tolist() == [v] * len(kids)
        assert depth[size:].tolist() == [3] * len(kids)
        assert first_child[size:].tolist() == nu[size:].tolist() == [-1] * len(kids)
        assert tree.nu.tolist() == nu.tolist()


@pytest.mark.parametrize("depth", [0, 1, 6])
def test_star_root_fills_the_sampled_arena(mix23, depth):
    # sampling leaves one spare column, which the star root takes in place
    tree = sample_truncated_tree(mix23, depth, seed=2)
    arena = tree._arena
    assert arena.shape[1] == len(tree) + 1
    attach_star_root(tree)
    assert tree._arena is arena and arena.shape[1] == len(tree)


def test_sampling_and_star_root_peak_within_the_tree_budget(binary):
    # the arena built at sampling and the star's column stay under the bytes
    # a vertex that the tree budget counts
    tracemalloc.start()
    try:
        tree = sample_truncated_tree(binary, 14, seed=3)
        attach_star_root(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tree_mod._TREE_BYTES_PER_VERTEX * len(tree)


def test_lazy_growth_is_quenched(mix23):
    tree = QuenchedTree(mix23, substream(7, 1, 0))
    seen = {}
    # generate a few levels lazily in scrambled order, then re-read
    frontier = [tree.root]
    for _ in range(4):
        nxt = []
        for v in reversed(frontier):
            nxt.extend(tree.children(v))
        frontier = nxt
    for v in range(len(tree)):
        if tree.nu[v] >= 0:
            seen[v] = tree.children(v)
    for v, kids in seen.items():
        assert tree.children(v) == kids


def test_adjacency_dump_round_trip(binary):
    tree = sample_truncated_tree(binary, 2, seed=2)
    attach_star_root(tree)
    dump = json.loads(json.dumps(tree.to_adjacency()))
    assert dump[str(tree.root)]["depth"] == 0
    assert dump[str(tree.star_root)]["children"] == [tree.root]
    assert dump[str(tree.star_root)]["parent"] is None
    for vid, rec in dump.items():
        for child in rec["children"]:
            assert dump[str(child)]["parent"] == int(vid)


@pytest.mark.parametrize("pmf", [{2: 1.0}, {2: 0.5, 3: 0.5}, {1: 0.2, 4: 0.8},
                                 {0: 0.3, 2: 0.7}, {1: 0.5, 12: 0.5}])
def test_streamed_dump_equals_json_dumps(pmf, monkeypatch):
    dist = make_distribution(pmf)
    for depth in range(7):
        for star in (False, True):
            tree = sample_truncated_tree(dist, depth, seed=depth + 3)
            if len(tree) > 20_000:  # the depth-6 12-child tree: slow, no new row shape
                continue
            if star:
                attach_star_root(tree)
            expected = json.dumps(tree.to_adjacency(), indent=2)
            # chunk 3 is smaller than every tree but the one-vertex ones
            for chunk in (1, 3, tree_mod._DUMP_CHUNK):
                monkeypatch.setattr(tree_mod, "_DUMP_CHUNK", chunk)
                assert "".join(tree.adjacency_json_chunks()) == expected
                monkeypatch.undo()


def test_streamed_dump_joins_default_chunks(binary):
    tree = sample_truncated_tree(binary, 13, seed=5)  # 16383 vertices
    assert len(tree) > 2 * tree_mod._DUMP_CHUNK
    assert "".join(tree.adjacency_json_chunks()) == json.dumps(tree.to_adjacency(), indent=2)


def test_streamed_dump_of_lazily_grown_tree(mix23, monkeypatch):
    # the tree a 400-step T_star replica walk grows
    tree = QuenchedTree(mix23, substream(4, D_WALK_TREE, 1, 0))
    attach_star_root(tree)
    state = WalkState(position=tree.root, steps=0, rng=substream(4, D_WALK, 1, 0))
    for _ in range(400):
        transition_step(tree, state, 1.0)
    assert -1 in tree.nu  # unborn vertices get []
    expected = json.dumps(tree.to_adjacency(), indent=2)
    assert len(tree) > 7
    for chunk in (1, 7, tree_mod._DUMP_CHUNK):
        monkeypatch.setattr(tree_mod, "_DUMP_CHUNK", chunk)
        assert "".join(tree.adjacency_json_chunks()) == expected
        monkeypatch.undo()


@pytest.mark.parametrize("chunk", [1, 2, 3, tree_mod._DUMP_CHUNK])
def test_streamed_dump_edge_trees(chunk, monkeypatch):
    monkeypatch.setattr(tree_mod, "_DUMP_CHUNK", chunk)
    trees = []
    for star in (False, True):  # depth 0: the root's children are unborn
        tree = sample_truncated_tree(make_distribution({2: 0.5, 3: 0.5}), 0, seed=1)
        if star:
            attach_star_root(tree)
        trees.append(tree)
    # a path of two whole chunks: the star root is the last chunk's only vertex
    tree = sample_truncated_tree(make_distribution({1: 1.0}), 2 * chunk - 1, seed=2)
    attach_star_root(tree)
    assert len(tree) == 2 * chunk + 1
    trees.append(tree)
    for tree in trees:
        pieces = list(tree.adjacency_json_chunks())
        assert len(pieces) == -(-len(tree) // chunk) + 1
        assert "".join(pieces) == json.dumps(tree.to_adjacency(), indent=2)
    assert pieces[-2].endswith('"parent": null,\n    "children": [\n      0\n    ],\n'
                               '    "depth": -1\n  }')


@pytest.mark.parametrize("snapshot", [False, True])
def test_dump_mutates_nothing(mix23, snapshot):
    tree = sample_truncated_tree(mix23, 5, seed=4)
    attach_star_root(tree)
    for v in range(tree.level_start[5], tree.level_start[6], 3):
        tree.children(v)  # unborn vertices beside grown ones
    before = [a.tolist() for a in tree.arrays()]
    size = len(tree)
    views = tree.arrays() if snapshot else None
    "".join(tree.adjacency_json_chunks())
    assert [a.tolist() for a in tree.arrays()] == before
    assert len(tree) == size
    if snapshot:
        assert [a.tolist() for a in views] == before
        assert not any(a.flags.writeable for a in tree.arrays())


def test_dump_after_snapshot_and_lazy_growth(mix23):
    # the dump reads the arena as it is after growth, not views taken before
    tree = sample_truncated_tree(mix23, 3, seed=8)
    attach_star_root(tree)
    size = len(tree.arrays()[0])
    for v in range(tree.level_start[3], tree.level_start[4], 2):
        tree.children(v)
    assert len(tree) > size
    assert "".join(tree.adjacency_json_chunks()) == json.dumps(tree.to_adjacency(), indent=2)


def test_truncation_is_a_prefix(mix23):
    # the depth-5 tree cut at depth 3 is the depth-3 tree, ids included
    deep = sample_truncated_tree(mix23, 5, seed=12)
    short = sample_truncated_tree(mix23, 3, seed=12)
    inner, size = short.level_start[3], short.level_start[4]
    assert size == len(short)
    assert deep.level_start[:5] == short.level_start
    assert deep.parent[:size].tolist() == short.parent.tolist()
    assert deep.depth[:size].tolist() == short.depth.tolist()
    assert deep.nu[:inner].tolist() == short.nu[:inner].tolist()
    assert deep.first_child[:inner].tolist() == short.first_child[:inner].tolist()
    assert short.nu[inner:].tolist() == [-1] * (size - inner)
    assert deep.is_materialized_to(5)
    assert not short.is_materialized_to(4)


def test_levels_are_the_forest_sampler_layers(binary, mix23, leafy):
    for dist in (binary, mix23, leafy):
        tree = sample_truncated_tree(dist, 6, seed=21)
        rng = substream(21, D_TREE, 0)
        layers = _sample_offspring_layers(dist, 6, 1, rng)
        start = tree.level_start
        for k, counts in enumerate(layers):
            assert tree.nu[start[k]:start[k + 1]].tolist() == counts.tolist()
        assert tree._rng.bit_generator.state == rng.bit_generator.state


def test_negative_depth_rejected(mix23):
    with pytest.raises(ValueError):
        sample_truncated_tree(mix23, -1, seed=0)


def test_tree_refuses_an_over_budget_size_before_any_draw(mix23, monkeypatch):
    # expected size times 128 bytes a vertex against 2 GiB: the demo law
    # samples to depth 17, and a law with m < 1 at any depth
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(tree_mod, "_sample_offspring_layers", drawn)
    for law, depth in ((mix23, 17), (make_distribution({1: 1.0}), 10**6),
                       (make_distribution({0: 0.5, 1: 0.5}), 10**9)):
        with pytest.raises(Drawn):
            sample_truncated_tree(law, depth, seed=0)
    for law, depth in ((mix23, 18), (mix23, 20), (make_distribution({2: 0.5, 40000: 0.5}), 4),
                       (make_distribution({1: 1.0}), 10**8), (make_distribution({2: 1.0}), 10**6)):
        with pytest.raises(ValueError, match=f"a depth-{depth} tree would need .* GiB limit"):
            sample_truncated_tree(law, depth, seed=0)

