import itertools
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


def test_fast_loop_matches_reference_kernel(mix23):
    # the production loop consumes the same uniforms as transition_step; the
    # step counts cross its block boundaries (64, then doubling blocks)
    for steps, lam in itertools.product((1, 64, 65, 40_000), (0.0, 0.7, 1.5)):
        t1 = QuenchedTree(mix23, substream(42, 1, 0))
        depth_fast = _walk_final_depth(t1, lam, steps, substream(42, 2, 0))
        t2 = QuenchedTree(mix23, substream(42, 1, 0))
        state = WalkState(position=t2.root, steps=0, rng=substream(42, 2, 0))
        for _ in range(steps):
            transition_step(t2, state, lam)
        assert depth_fast == t2.depth[state.position]
        assert t1.nu == t2.nu


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
        est = simulate_speed(dist, lam, steps, 2, seed=3, graph=graph, keep_replicas=True)
        gcode = walker_mod._GRAPH_CODES[graph]
        for i, depth, _, _ in est.per_replica:
            tree = QuenchedTree(dist, substream(3, D_WALK_TREE, gcode, i))
            if graph == "T_star":
                attach_star_root(tree)
            assert depth == _walk_final_depth(tree, lam, steps, substream(3, D_WALK, gcode, i))


def test_one_point_laws_grow_no_tree(binary, mix23, monkeypatch):
    def no_tree(*args):
        raise AssertionError("grew a tree")

    monkeypatch.setattr(walker_mod, "QuenchedTree", no_tree)
    simulate_speed(binary, 1.0, 100, 2, seed=1, graph="T_star")
    hitting_beta_mc(binary, 1.0, 3, 20, seed=1, mode="annealed")
    with pytest.raises(AssertionError, match="grew a tree"):
        simulate_speed(mix23, 1.0, 100, 2, seed=1)


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


def test_speed_replica_records(mix23):
    est = simulate_speed(mix23, 1.0, 1000, 4, seed=2, keep_replicas=True)
    assert len(est.per_replica) == 4
    for i, (ridx, depth, steps, speed) in enumerate(est.per_replica):
        assert ridx == i
        assert steps == 1000
        assert speed == depth / steps


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


def test_fixed_tree_is_not_mutated(mix23):
    tree = sample_truncated_tree(mix23, 4, seed=3)
    size = len(tree)
    est = hitting_beta_mc(tree, 1.0, 4, 2000, seed=4)
    conductance_sandwich(tree, 1.0, 4)
    assert len(tree) == size
    assert tree.star_root is None
    attach_star_root(tree)
    # stepping above the root fails with or without the artificial root
    assert hitting_beta_mc(tree, 1.0, 4, 2000, seed=4).successes == est.successes


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
