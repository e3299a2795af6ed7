import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from gwspeed import (
    UnsupportedRegimeError,
    VerificationError,
    WalkState,
    attach_star_root,
    compute_beta,
    conductance_sandwich,
    hitting_beta_mc,
    lemma0_compare,
    parse_pmf_text,
    sample_truncated_tree,
    simulate_speed,
    transition_step,
)
from gwspeed import tree as tree_mod
from gwspeed import walker as walker_mod
from gwspeed.tree import QuenchedTree
from gwspeed.rng import D_HIT, D_TREE, D_WALK, D_WALK_TREE, substream
from gwspeed.walker import _walk_final_depth

from conftest import binomial_z


def test_kernel_frequencies_interior_vertex(binary):
    # at an interior vertex with 2 children and bias 1, the three moves are
    # equally likely
    tree = sample_truncated_tree(binary, 3, seed=1)
    vertex = tree.children(tree.root)[0]
    state = WalkState(position=vertex, steps=0, rng=substream(3, 9, 0))
    counts = {"up": 0, "down0": 0, "down1": 0}
    kids = tree.children(vertex)
    trials = 30000
    for _ in range(trials):
        state.position = vertex
        transition_step(tree, state, 1.0)
        if state.position == tree.parent[vertex]:
            counts["up"] += 1
        elif state.position == kids[0]:
            counts["down0"] += 1
        else:
            counts["down1"] += 1
    se = np.sqrt(trials * (1 / 3) * (2 / 3))
    for key in counts:
        assert abs(counts[key] - trials / 3) < 4 * se


def test_kernel_lambda_zero_never_goes_up(binary):
    tree = sample_truncated_tree(binary, 4, seed=2)
    vertex = tree.children(tree.root)[0]
    state = WalkState(position=vertex, steps=0, rng=substream(4, 9, 0))
    for _ in range(2000):
        state.position = vertex
        transition_step(tree, state, 0.0)
        assert state.position != tree.parent[vertex]


def test_kernel_at_root_uniform_over_children(ternary):
    tree = sample_truncated_tree(ternary, 2, seed=1)
    state = WalkState(position=tree.root, steps=0, rng=substream(5, 9, 0))
    hits = np.zeros(3)
    trials = 30000
    kids = tree.children(tree.root)
    for _ in range(trials):
        state.position = tree.root
        transition_step(tree, state, 5.0)  # bias irrelevant at the root
        hits[kids.index(state.position)] += 1
    se = np.sqrt(trials * (1 / 3) * (2 / 3))
    assert (np.abs(hits - trials / 3) < 4 * se).all()


def _reference_depths(dist, lam, steps, star, tree_rng, walk_rng):
    """transition_step on a QuenchedTree grown lazily from ``tree_rng``: the
    depth after each step."""
    tree = QuenchedTree(dist, tree_rng)
    if star:
        attach_star_root(tree)
    state = WalkState(position=tree.root, steps=0, rng=walk_rng)
    for _ in range(steps):
        transition_step(tree, state, lam)
        yield tree.depth[state.position]


def test_fast_loop_matches_reference_kernel():
    # the production loop consumes the same uniforms and offspring counts as
    # transition_step: equal depths after every step count, and equal tree
    # streams, so both drew the same count refills. The step counts cross the
    # walk's block boundaries (64, then doubling blocks) and, on the 12-child
    # law, the arena's capacity doublings.
    def fast(steps):
        tree_rng = substream(42, 1, 0)
        depth = _walk_final_depth(dist, tree_rng, lam, steps, substream(42, 2, 0), star)
        return depth, tree_rng.bit_generator.state

    for law, lam, star in itertools.product(("2:0.5,3:0.5", "1:0.5,12:0.5"),
                                            (0.0, 0.7, 1.5), (False, True)):
        dist = parse_pmf_text(law)
        ref_tree = substream(42, 1, 0)
        ref = _reference_depths(dist, lam, 300, star, ref_tree, substream(42, 2, 0))
        for steps, depth in enumerate(ref, start=1):
            assert fast(steps) == (depth, ref_tree.bit_generator.state)
        ref_tree = substream(42, 1, 0)
        *_, depth = _reference_depths(dist, lam, 40_000, star, ref_tree, substream(42, 2, 0))
        assert fast(40_000) == (depth, ref_tree.bit_generator.state)


@pytest.mark.filterwarnings("ignore:bias")
@pytest.mark.parametrize("law", ["1:1", "2:1", "3:1"])
def test_chain_matches_tree_walk(law):
    # on a one-point law simulate walks the depth chain and grows no tree; its
    # final depths must equal the tree walk's on the same replica streams.
    # The step counts cross the block boundaries (64, then doubling blocks).
    dist = parse_pmf_text(law)
    k = dist.m1
    for lam, steps, graph in itertools.product((0.0, 0.25, 1.0, 1.5, float(k), 5.0),
                                               (1, 63, 64, 65, 40_000), ("T", "T_star")):
        est = simulate_speed(dist, lam, steps, 2, seed=3, graph=graph)
        gcode = walker_mod._GRAPH_CODES[graph]
        for i, depth in enumerate(est.depths):
            assert depth == _walk_final_depth(dist, substream(3, D_WALK_TREE, gcode, i), lam,
                                              steps, substream(3, D_WALK, gcode, i),
                                              graph == "T_star")


@pytest.mark.filterwarnings("ignore:bias")
@pytest.mark.parametrize("law", ["1:1", "2:1", "3:1"])
def test_speed_chain_matches_tree_walk_across_numpy_blocks(law):
    # the speed chain sums whole blocks of up to _BLOCK uniforms and counts
    # the reflections of each; step counts on both sides of one and two
    # block boundaries
    dist = parse_pmf_text(law)
    k = dist.m1
    block = walker_mod._BLOCK
    for lam, steps, star in itertools.product((0.0, k / 2, float(k), 5.0),
                                              (block - 1, block, block + 1, 2 * block + 1),
                                              (False, True)):
        depth = walker_mod._chain_final_depth(k, lam, steps, substream(8, D_WALK, 0), star)
        assert type(depth) is int
        assert depth == _walk_final_depth(dist, substream(8, D_WALK_TREE, 0), lam, steps,
                                          substream(8, D_WALK, 0), star)


def test_one_point_laws_grow_no_tree(binary, mix23, monkeypatch):
    def no_tree(*args):
        raise AssertionError("grew a tree")

    monkeypatch.setattr(walker_mod, "_walk_final_depth", no_tree)
    simulate_speed(binary, 1.0, 100, 2, seed=1, graph="T_star")
    hitting_beta_mc(binary, 1.0, 3, 20, seed=1, mode="annealed")
    with pytest.raises(AssertionError, match="grew a tree"):
        simulate_speed(mix23, 1.0, 100, 2, seed=1)
    with pytest.raises(AssertionError, match="grew a tree"):
        hitting_beta_mc(mix23, 1.0, 3, 20, seed=1, mode="annealed")


def _reference_annealed_successes(dist, lam, n, trials, seed):
    """Annealed hitting stepped through transition_step: a fresh tree with the
    artificial root per trial, walked until depth n or that root."""
    successes = 0
    for t in range(trials):
        tree = QuenchedTree(dist, substream(seed, D_TREE, t))
        star = attach_star_root(tree)
        state = WalkState(position=tree.root, steps=0, rng=substream(seed, D_HIT, t))
        while state.position != star and tree.depth[state.position] != n:
            transition_step(tree, state, lam)
        successes += state.position != star
    return successes


@pytest.mark.parametrize("law", ["2:1", "3:1", "2:0.5,3:0.5", "1:0.2,4:0.8"])
def test_annealed_hitting_matches_reference_loop(law):
    dist = parse_pmf_text(law)
    for lam in (0.0, 0.5, 1.0, 2.5):
        for n in (1, 3, 8):
            est = hitting_beta_mc(dist, lam, n, 150, seed=5, mode="annealed")
            assert est.successes == _reference_annealed_successes(dist, lam, n, 150, 5)


def test_annealed_round_cap_raises(binary, mix23, monkeypatch):
    monkeypatch.setattr(walker_mod, "_MAX_SYNC_ROUNDS", 3)
    for dist in (binary, mix23):  # the depth chain and the tree walk
        with pytest.raises(VerificationError, match="round cap"):
            hitting_beta_mc(dist, 1.0, 8, 50, seed=1, mode="annealed")


def test_hitting_rejects_laws_with_leaves():
    law = parse_pmf_text("0:0.3,2:0.7")
    with pytest.raises(UnsupportedRegimeError):
        hitting_beta_mc(law, 1.0, 5, 200, seed=1, mode="annealed")
    with pytest.raises(UnsupportedRegimeError):
        hitting_beta_mc(law, 1.0, 5, 200, seed=1)
    extinct = sample_truncated_tree(law, 5, seed=3)
    assert extinct.level_start[-1] == extinct.level_start[-2]  # level 5 is empty
    with pytest.raises(UnsupportedRegimeError):
        hitting_beta_mc(extinct, 1.0, 5, 200, seed=1)


def test_speed_lambda_zero_exact(binary, mix23):
    for dist in (binary, mix23):
        est = simulate_speed(dist, 0.0, 3000, 4, seed=1)
        assert est.mean == 1.0
        assert est.stderr == 0.0


def test_speed_binary_matches_closed_form(binary):
    est = simulate_speed(binary, 1.0, 20000, 16, seed=3)
    assert abs(est.mean - 1 / 3) < 4 * est.stderr


def test_speed_star_graph(binary):
    est = simulate_speed(binary, 1.0, 20000, 16, seed=4, graph="T_star")
    assert abs(est.mean - 1 / 3) < 4 * est.stderr
    assert est.graph == "T_star"


def test_speed_input_validation(mix23, leafy):
    with pytest.raises(UnsupportedRegimeError):
        simulate_speed(leafy, 1.0, 100, 4, seed=1)
    with pytest.raises(ValueError):
        simulate_speed(mix23, -1.0, 100, 4, seed=1)
    with pytest.raises(ValueError):
        simulate_speed(mix23, 1.0, 0, 4, seed=1)
    with pytest.raises(ValueError):
        simulate_speed(mix23, 1.0, 100, 1, seed=1)
    with pytest.raises(ValueError):
        simulate_speed(mix23, 1.0, 100, 4, seed=1, graph="bogus")


def test_speed_flags_recurrent_regime(mix23):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = simulate_speed(mix23, 2.5, 500, 4, seed=1)
    assert est.regime_warning
    assert any("transient" in str(w.message) for w in caught)


def test_speed_deterministic_and_worker_independent(mix23):
    a = simulate_speed(mix23, 1.0, 2000, 6, seed=11)
    b = simulate_speed(mix23, 1.0, 2000, 6, seed=11)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = simulate_speed(mix23, 1.0, 2000, 6, seed=11, workers=2)
    assert c.mean == a.mean and c.stderr == a.stderr
    with pytest.raises(ValueError, match="workers >= 1"):
        simulate_speed(mix23, 1.0, 2000, 6, seed=11, workers=0)


def test_speed_replica_records(mix23):
    # one final depth per replica; on T every step moves the depth by one
    est = simulate_speed(mix23, 1.0, 1000, 4, seed=2)
    assert len(est.depths) == 4
    for depth in est.depths:
        assert type(depth) is int and 0 <= depth <= 1000 and depth % 2 == 0
    assert est.mean == float(np.mean(np.array(est.depths, dtype=float) / 1000))


def test_hitting_quenched_binary_level_one(binary):
    est = hitting_beta_mc(binary, 1.0, 1, 3000, seed=6)
    assert binomial_z(est.estimate, 2 / 3, 3000) < 4


def test_hitting_lambda_zero_always_succeeds(mix23):
    est = hitting_beta_mc(mix23, 0.0, 4, 400, seed=7)
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_hitting_matches_recursion_quenched(mix23):
    # 20 (tree, bias, level) combinations within 3 binomial sigmas
    rng = np.random.default_rng(20240301)
    combos = [(int(rng.integers(0, 10_000)), lam, n)
              for lam in (0.25, 0.75, 1.0, 1.25, 1.5) for n in (2, 4, 6)]
    combos += [(int(rng.integers(0, 10_000)), lam, 3)
               for lam in (0.4, 0.6, 0.9, 1.1, 1.35)]
    assert len(combos) == 20
    for seed, lam, n in combos:
        tree = sample_truncated_tree(mix23, n, seed=seed)
        attach_star_root(tree)
        truth = compute_beta(tree, n, lam).root_beta
        est = hitting_beta_mc(tree, lam, n, 4000, seed=seed + 1)
        assert binomial_z(est.estimate, truth, 4000) < 3


def test_hitting_annealed_matches_tree_average(mix23):
    from gwspeed import sample_pool
    n, lam = 3, 1.0
    est = hitting_beta_mc(mix23, lam, n, 4000, seed=9, mode="annealed")
    pool = sample_pool(mix23, lam, n, 20000, seed=10, method="tree")
    se = np.hypot(est.stderr, pool.beta.std() / np.sqrt(len(pool)))
    assert abs(est.estimate - pool.beta.mean()) < 4 * se


def _reference_quenched_successes(tree, lam, n, trials, rng):
    """Quenched hitting one walker at a time: each round draws one uniform per
    walker still moving and hands them out in walker order; a step above the
    root is a failure, with or without the artificial root."""
    pos = [tree.root] * trials
    successes = 0
    while pos:
        moving = []
        for v, u in zip(pos, rng.random(len(pos)).tolist()):
            k = tree.nu[v]
            t = u * (lam + k) - lam
            if t >= 0.0:
                v = tree.first_child[v] + min(int(t), k - 1)
            elif v == tree.root:
                continue
            else:
                v = tree.parent[v]
            if tree.depth[v] == n:
                successes += 1
            else:
                moving.append(v)
        pos = moving
    return successes


@pytest.mark.parametrize("law", ["2:1", "2:0.5,3:0.5", "1:0.5,12:0.5"])
@pytest.mark.parametrize("star", [False, True])
def test_quenched_hitting_matches_reference_loop(law, star):
    dist = parse_pmf_text(law)
    tree = sample_truncated_tree(dist, 6, seed=17)
    if star:
        attach_star_root(tree)
    for lam in (0.0, 0.5, 1.0, 1.5):
        for n in range(1, 7):
            est = hitting_beta_mc(tree, lam, n, 200, seed=n)
            ref = _reference_quenched_successes(tree, lam, n, 200,
                                                substream(n, D_HIT, 0))
            assert est.successes == ref, (lam, n)


def test_fixed_tree_is_not_mutated(mix23):
    tree = sample_truncated_tree(mix23, 4, seed=3)
    size = len(tree)
    est = hitting_beta_mc(tree, 1.0, 4, 2000, seed=4)
    conductance_sandwich(tree, 1.0, 4)
    assert len(tree) == size
    assert tree.star_root is None
    snap = tree.arrays()
    assert all(a is b for a, b in zip(tree.arrays(), snap))
    for a in snap:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    star = attach_star_root(tree)
    _assert_arrays_match_lists(tree)
    # stepping above the root fails with or without the artificial root
    assert hitting_beta_mc(tree, 1.0, 4, 2000, seed=4).successes == est.successes
    assert tree.arrays()[0][tree.root] == star == tree.parent[tree.root]
    tree.children(tree.level_start[4])  # grows the first depth-4 vertex
    assert len(tree) > size + 1
    _assert_arrays_match_lists(tree)


def _assert_arrays_match_lists(tree):
    for a, lst in zip(tree.arrays(), (tree.parent, tree.depth, tree.first_child, tree.nu)):
        assert a.dtype == np.int64 and not a.flags.writeable
        assert a.tolist() == lst


def test_hitting_input_validation(mix23):
    with pytest.raises(ValueError):
        hitting_beta_mc(mix23, 1.0, 0, 100, seed=1)
    with pytest.raises(ValueError):
        hitting_beta_mc(mix23, 1.0, 3, 0, seed=1)
    with pytest.raises(ValueError):
        hitting_beta_mc(mix23, 1.0, 3, 100, seed=1, mode="sideways")
    shallow = sample_truncated_tree(mix23, 2, seed=1)
    with pytest.raises(ValueError):
        hitting_beta_mc(shallow, 1.0, 5, 100, seed=1)


def test_lemma0_lambda_zero_short_circuit(binary):
    est_t, est_s, z = lemma0_compare(binary, 0.0, 1000, 4, seed=1)
    assert est_t.mean == est_s.mean == 1.0
    assert z == 0.0


def test_lemma0_z_reasonable(mix23):
    _, _, z = lemma0_compare(mix23, 0.5, 20000, 16, seed=12)
    assert z < 4


@pytest.mark.parametrize("budget, refused", [(16 * 2048, False), (16 * 2048 - 1, True)])
def test_walk_arena_refuses_a_growth_past_the_budget(mix23, monkeypatch, budget, refused):
    # at this seed the walk's arena grows once, from 1,024 to 2,048 entries
    # of 16 bytes (one pointer in each of its two lists)
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", budget)
    if refused:
        with pytest.raises(ValueError, match=r"^a walk arena of 2048 vertices would need"):
            simulate_speed(mix23, 0.5, 600, 2, seed=1)
    else:
        simulate_speed(mix23, 0.5, 600, 2, seed=1)


def test_walk_arena_peak_is_what_its_budget_counts(monkeypatch):
    # half the fresh vertices of this law have 40,000 children, so the arena
    # grows to about 78 MiB in 250 steps; its lists extend in place, with no
    # temporary list, so the traced peak stays at the largest counted growth
    counted = []
    check = walker_mod._check_budget
    monkeypatch.setattr(walker_mod, "_check_budget",
                        lambda need, what: counted.append(need) or check(need, what))
    dist = parse_pmf_text("2:0.5,40000:0.5")
    tracemalloc.start()
    try:
        walker_mod._final_depth(dist, 1.0, 250, substream(1, D_WALK, 0, 0), False,
                                lambda: substream(1, D_WALK_TREE, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(counted) > 2**26
    assert peak <= 1.05 * max(counted)


def test_quenched_hitting_refuses_an_over_budget_trial_count_before_any_draw(
        mix23, monkeypatch):
    # 1,000 trials need 64 bytes each: refused one byte below that, before
    # the tree is sampled or a fixed tree walked; annealed trials hold nothing
    def never(*args, **kwargs):
        raise AssertionError("a tree was sampled")

    tree = sample_truncated_tree(mix23, 2, seed=1)
    monkeypatch.setattr(walker_mod, "sample_truncated_tree", never)
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 64 * 1000 - 1)
    for target in (mix23, tree):
        with pytest.raises(ValueError, match="^1000 quenched hitting trials would need"):
            hitting_beta_mc(target, 1.0, 2, 1000, seed=1)
    hitting_beta_mc(mix23, 1.0, 2, 1000, seed=1, mode="annealed")
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 64 * 1000)
    with pytest.raises(AssertionError, match="a tree was sampled"):
        hitting_beta_mc(mix23, 1.0, 2, 1000, seed=1)
