import itertools
import tracemalloc
import warnings
from array import array

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

    for law, lam, star in itertools.product(("2:0.5,3:0.5", "1:0.5,12:0.5",
                                             "2:0.2,3:0.3,7:0.5"),
                                            (0.0, 0.7, 1.5), (False, True)):
        dist = parse_pmf_text(law)
        ref_tree = substream(42, 1, 0)
        ref = _reference_depths(dist, lam, 300, star, ref_tree, substream(42, 2, 0))
        for steps, depth in enumerate(ref, start=1):
            assert fast(steps) == (depth, ref_tree.bit_generator.state)
        ref_tree = substream(42, 1, 0)
        *_, depth = _reference_depths(dist, lam, 40_000, star, ref_tree, substream(42, 2, 0))
        assert fast(40_000) == (depth, ref_tree.bit_generator.state)


class _Uniforms:
    """A generator stub whose ``random(n)`` hands out chosen uniforms in order."""

    def __init__(self, us):
        self.us = np.array(us)
        self.taken = 0

    def random(self, n):
        self.taken += n
        return self.us[self.taken - n:self.taken]


def _scalar_step(u, k, lam, parentless):
    """The step transition_step takes from a vertex with k children: -1 up,
    else the child's rank."""
    t = u * k if parentless else u * (lam + k) - lam
    if t < 0.0:
        return -1
    j = int(t)
    return j if j < k else k - 1


def test_step_tables_match_the_scalar_step():
    # uniforms on either side of each up/down and child-rank boundary of
    # every count, at a vertex with a parent and at a parentless one. At k = 3
    # and the last bias, (1 - 2**-53) * (lam + 3) - lam is exactly 3.0: only
    # the clip to k - 1 keeps that step inside the children block.
    edge = 0.22266235716704297
    assert np.nextafter(1.0, 0.0) * (edge + 3) - edge == 3.0
    for law in ("2:0.2,3:0.3,7:0.5", "1:0.5,12:0.5"):
        dist = parse_pmf_text(law)
        ks = [k for k, _ in dist.entries]
        for lam in sorted({0.0, 0.5, 1.0, 2.5, edge, *map(float, ks)}):
            us = [0.0, np.nextafter(1.0, 0.0)]
            for k in ks:
                for b in [lam / (lam + k)] + [(lam + j) / (lam + k) for j in range(1, k)] + \
                         [j / k for j in range(1, k)]:
                    us += [np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)]
            for k0 in [1] + ks:  # the parentless row, for each count T's root can have
                _, scale, shift, top = walker_mod._step_rows(dist, lam, k0)
                cols = [array("i") for _ in range(len(ks) + 1)]
                rng = _Uniforms(us)
                for piece in walker_mod._walk_pieces(rng, len(us), 8):
                    walker_mod._fill_tables(piece, scale, shift, top, cols)
                    for i, u in enumerate(piece.tolist()):
                        assert [col[i] for col in cols] == \
                            [_scalar_step(u, k, lam, False) for k in ks] + \
                            [_scalar_step(u, k0, lam, True)]
                assert rng.taken == len(us)


def test_wide_laws_fill_small_pieces(monkeypatch):
    # a piece's tables hold (support size + 1) * piece entries, under
    # _TABLE_ENTRIES: a wide law walks in smaller pieces, down to one uniform
    # when its columns alone pass the budget, and reaches the same depth
    # with the same tree draws
    sizes = []
    pieces = walker_mod._walk_pieces

    def spy(rng, steps, most):
        for us in pieces(rng, steps, most):
            sizes.append(us.size)
            yield us

    dist = parse_pmf_text(",".join(f"{k}:0.01" for k in range(1, 101)))

    def walk():
        tree_rng = substream(6, D_WALK_TREE, 0)
        depth = _walk_final_depth(dist, tree_rng, 1.0, 3000, substream(6, D_WALK, 0), False)
        return depth, tree_rng.bit_generator.state

    wide = walk()
    monkeypatch.setattr(walker_mod, "_walk_pieces", spy)
    for budget, largest in ((1 << 18, 1024), (1000, 9), (50, 1)):
        monkeypatch.setattr(walker_mod, "_TABLE_ENTRIES", budget)
        sizes.clear()
        assert walk() == wide
        assert (sum(sizes), max(sizes)) == (3000, largest)


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_speed_chain_steps_as_the_tree_walk_at_the_float_boundary(k):
    # the chain steps down when u*(lam + k) < lam, the tree walk when
    # u*(lam + k) - lam < 0.0. At u = lam/(lam + k) the product rounds to lam
    # itself, so both must step to a child; its float neighbours fall on
    # either side, and 0.0 and 1 - 2**-53 are the ends. Depths compared after
    # every step count, on T and T_star, with each kernel on its own stub (the
    # chain scales its draw in place, and a stub hands out views).
    lam = 0.5
    edge = lam / (lam + k)
    assert edge * (lam + k) == lam
    firsts = (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 0.0,
              np.nextafter(1.0, 0.0))
    us = [u for triple in itertools.product(firsts, repeat=3) for u in triple]
    dist = parse_pmf_text(f"{k}:1")
    for star in (False, True):
        for steps in range(1, len(us) + 1):
            chain = walker_mod._chain_final_depth(k, lam, steps, _Uniforms(us), star)
            assert chain == _walk_final_depth(dist, substream(0, D_WALK_TREE, 0), lam, steps,
                                              _Uniforms(us), star), (star, steps)


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


@pytest.mark.parametrize("law", ["2:0.5,3:0.5", "1:0.2,4:0.8", "2:0.2,3:0.3,7:0.5"])
def test_annealed_hitting_matches_reference_loop(law):
    dist = parse_pmf_text(law)
    for lam in (0.0, 0.5, 1.0, 2.5):
        for n in (1, 3, 8):
            est = hitting_beta_mc(dist, lam, n, 150, seed=5, mode="annealed")
            assert est.successes == _reference_annealed_successes(dist, lam, n, 150, 5)


@pytest.mark.parametrize("law", ["1:1", "2:1", "3:1", "7:1"])
def test_one_point_hitting_walks_the_regular_tree_in_both_modes(law, monkeypatch):
    # every tree of a one-point law is the k-regular tree, so both modes walk
    # it, one vertex a level, on the quenched stream, and sample no tree: the
    # successes equal the reference loop's on the sampled tree, bit for bit.
    # Trial counts on both sides of the switch to scalar rounds; at biases
    # above 1 a step's floor is clamped at -1. The reference on 7:1 stops at
    # level 5: its level-8 tree has 6.7 million vertices, and its lists would
    # take about 700 MiB (the scalar chain test walks 7:1 to level 40).
    def never(*args):
        raise AssertionError("a tree was sampled")

    dist = parse_pmf_text(law)
    k = dist.m1
    tail = walker_mod._TAIL_WALKERS
    for n in (1, 2, 5) + (8,) * (k < 7):
        tree = sample_truncated_tree(dist, n, seed=n)
        for lam in (0.0, 0.5, 1.0, float(k), k + 0.5, 2.5):
            for trials in (1, tail, tail + 1, 300):
                ref = _reference_quenched_successes(tree, lam, n, trials, substream(n, D_HIT, 0))
                with monkeypatch.context() as patch:
                    patch.setattr(walker_mod, "sample_truncated_tree", never)
                    for mode in ("quenched", "annealed"):
                        est = hitting_beta_mc(dist, lam, n, trials, seed=n, mode=mode)
                        assert est.successes == ref, (mode, lam, n, trials)


def test_annealed_round_cap_raises(binary, mix23, monkeypatch):
    monkeypatch.setattr(walker_mod, "_MAX_SYNC_ROUNDS", 3)
    for dist in (binary, mix23):  # the depth chain and the tree walk
        with pytest.raises(VerificationError, match="round cap"):
            hitting_beta_mc(dist, 1.0, 8, 50, seed=1, mode="annealed")


def _scalar_chain_successes(k, lam, n, trials, rng):
    """Hitting on the k-regular tree one uniform at a time: each round hands
    one uniform of ``rng`` to each trial still moving, in trial order, and
    steps its depth until depth n or -1. The successes and the round count."""
    deps, successes, rounds = [0] * trials, 0, 0
    while deps:
        moving = []
        for dep in deps:
            dep += -1 if rng.random() * (lam + k) - lam < 0.0 else 1
            if dep == n:
                successes += 1
            elif dep >= 0:
                moving.append(dep)
        deps, rounds = moving, rounds + 1
    return successes, rounds


@pytest.mark.parametrize("law", ["2:1", "3:1", "7:1"])
def test_one_point_hitting_matches_a_scalar_chain(law):
    # both modes walk the one tree on the shared quenched stream. Levels 30
    # and 40 near bias k are past any tree that can be sampled, and their
    # longest trials outlast hundreds of rounds, so the numpy rounds and the
    # scalar tail both run; at level 2 a third of the trials that reach it
    # fail before level 3
    dist = parse_pmf_text(law)
    k = dist.m1
    for lam, n in ((k - 0.25, 40), (float(k), 40), (k + 0.25, 30), (float(k), 2), (0.5, 6)):
        successes, rounds = _scalar_chain_successes(k, lam, n, 513, substream(11, D_HIT, 0))
        for mode in ("quenched", "annealed"):
            assert hitting_beta_mc(dist, lam, n, 513, 11, mode=mode).successes == successes
        assert rounds > 64 + 128 or n < 30


@pytest.mark.parametrize("cap", [63, 64, 65])
def test_chain_round_cap_at_a_piece_boundary(binary, monkeypatch, cap):
    # at bias 0 every step goes down the tree: a trial reaches depth cap on
    # exactly its cap-th uniform, and depth cap + 1 never within the cap
    monkeypatch.setattr(walker_mod, "_MAX_SYNC_ROUNDS", cap)
    assert hitting_beta_mc(binary, 0.0, cap, 5, seed=2, mode="annealed").successes == 5
    with pytest.raises(VerificationError, match="round cap"):
        hitting_beta_mc(binary, 0.0, cap + 1, 5, seed=2, mode="annealed")


def test_chain_hits_peak_is_one_batch(binary):
    # one-point annealed trials run as quenched ones, on the k-regular tree
    # laid out one vertex a level, and hold O(trials): at most the 64 bytes a
    # trial that _check_hitting_size promises, 1.28 MB at 20,000 trials. The
    # 1 MiB bound is measured headroom under that promise (the traced peak
    # read 803,247 bytes), not a consequence of it.
    bound = 2**20
    tracemalloc.start()
    try:
        hitting_beta_mc(binary, 1.0, 10, 20_000, seed=4, mode="annealed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_a_short_first_passage_draws_one_small_count_refill(mix23):
    # a first passage to depth 3 draws at most the 13 counts of the
    # vertices above depth 3, all from the first refill of 64
    tree_rng, ref = substream(9, D_TREE, 0), substream(9, D_TREE, 0)
    ref.random(64)
    end = _walk_final_depth(mix23, tree_rng, 1.0, walker_mod._MAX_SYNC_ROUNDS,
                            substream(9, D_HIT, 0), True, 3)
    assert end in (3, -1)
    assert tree_rng.bit_generator.state == ref.bit_generator.state


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


def test_one_point_hitting_refuses_an_over_budget_trial_count_or_table_before_any_draw(
        binary, monkeypatch):
    # in both modes 1,000 trials need 64 bytes each, and 2,000 levels of the
    # binary tree's table 8 bytes times 4 columns each: both refused one byte
    # below that, before the stream is derived
    def never(*args):
        raise AssertionError("a stream was derived")

    monkeypatch.setattr(walker_mod, "substream", never)
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 64 * 1000 - 1)
    for mode in ("annealed", "quenched"):
        with pytest.raises(ValueError, match="^1000 quenched hitting trials would need"):
            hitting_beta_mc(binary, 1.0, 2, 1000, seed=1, mode=mode)
        with pytest.raises(ValueError, match="^a hitting table of 2000 levels and 4 columns "
                                             "would need"):
            hitting_beta_mc(binary, 1.0, 2000, 10, seed=1, mode=mode)
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 64 * 1000)
    for n, trials in ((2, 1000), (2000, 10)):
        with pytest.raises(AssertionError, match="a stream was derived"):
            hitting_beta_mc(binary, 1.0, n, trials, seed=1, mode="annealed")


def _reference_quenched_successes(tree, lam, n, trials, rng):
    """Quenched hitting one walker at a time: each round draws one uniform per
    walker still moving and hands them out in walker order; a step above the
    root is a failure, with or without the artificial root."""
    parent, depth, first_child, nu = (a.tolist() for a in tree.arrays())
    pos = [tree.root] * trials
    successes = 0
    while pos:
        moving = []
        for v, u in zip(pos, rng.random(len(pos)).tolist()):
            k = nu[v]
            t = u * (lam + k) - lam
            if t >= 0.0:
                v = first_child[v] + min(int(t), k - 1)
            elif v == tree.root:
                continue
            else:
                v = parent[v]
            if depth[v] == n:
                successes += 1
            else:
                moving.append(v)
        pos = moving
    return successes


@pytest.mark.parametrize("law", ["2:1", "2:0.5,3:0.5", "1:0.5,12:0.5"])
@pytest.mark.parametrize("star", [False, True])
def test_quenched_hitting_matches_reference_loop(law, star):
    # trial counts on both sides of the switch to scalar rounds; at bias 2.5
    # a step's floor is clamped at -1; the second pass walks the tree after
    # lazy growth past every level walked
    dist = parse_pmf_text(law)
    tree = sample_truncated_tree(dist, 6, seed=17)
    if star:
        attach_star_root(tree)
    tail = walker_mod._TAIL_WALKERS
    for grown in (False, True):
        if grown:
            for v in range(tree.level_start[6], tree.level_start[7], 3):
                tree.children(v)
        for lam in (0.0, 0.5, 1.0, 1.5, 2.5):
            for n in range(1, 7):
                for trials in (1, tail, tail + 1, 200) + (4000,) * (n == 6 and not grown):
                    est = hitting_beta_mc(tree, lam, n, trials, seed=n)
                    ref = _reference_quenched_successes(tree, lam, n, trials,
                                                        substream(n, D_HIT, 0))
                    assert est.successes == ref, (grown, lam, n, trials)


def test_quenched_round_lands_where_the_loop_does_at_float_boundaries(monkeypatch):
    # every round in numpy, one walker: the root's first step takes each float
    # on either side of the up/down and child-rank boundaries. The root has
    # children with 3, 3 and 1 children; the second uniform sends a walker on
    # the 1-child vertex up and one on a 3-child vertex down, and every later
    # step is up, so (successes, rounds) at level 2 tells where the first step
    # landed. At bias 0.22266235716704297 the uniform 1 - 2**-53 makes the
    # loop's float exactly 3.0, which must still land on the last child, and
    # on the 3-regular tree laid out one vertex a level, on the child.
    def outcome(hit, lam, u, u2):
        rng = _Uniforms([u, u2] + [0.0] * 8)
        return hit(tree, lam, 2, 1, rng), rng.taken

    def kernel(tree, lam, n, trials, rng):
        return walker_mod._hit_level_vectorized(*walker_mod._tree_table(tree, n), lam,
                                                trials, rng)

    def chain(tree, lam, n, trials, rng):
        return walker_mod._hit_level_vectorized(*walker_mod._chain_table(3, n), lam,
                                                trials, rng)

    monkeypatch.setattr(walker_mod, "_TAIL_WALKERS", 0)
    tree = sample_truncated_tree(parse_pmf_text("1:0.5,3:0.5"), 2, seed=3)
    assert tree.nu[:4].tolist() == [3, 3, 3, 1]
    below_one = np.nextafter(1.0, 0.0)
    for lam in (0.0, 0.22266235716704297, 1.0, 2.5):
        bounds = [(lam + j) / (lam + 3) for j in range(4)]
        firsts = {0.0, below_one} | {min(u, below_one) for b in bounds
                                     for u in (np.nextafter(b, 0.0), b, np.nextafter(b, 1.0))}
        for u in sorted(firsts):
            assert outcome(kernel, lam, u, lam / (lam + 2)) == \
                outcome(_reference_quenched_successes, lam, u, lam / (lam + 2)), (lam, u)
    lam = 0.22266235716704297
    assert below_one * (lam + 3) - lam == 3.0
    assert outcome(kernel, lam, below_one, 0.1) == outcome(kernel, lam, 0.99, 0.1) == (0, 3)
    for tail in (0, 1):  # the numpy rounds and the scalar tail
        monkeypatch.setattr(walker_mod, "_TAIL_WALKERS", tail)
        assert outcome(chain, lam, below_one, 0.99) == outcome(chain, lam, 0.99, 0.99) == (1, 2)


def test_an_integer_bias_hits_as_its_float_does(binary, mix23):
    # the kernel's step scale lam + k must be a float array for an int bias
    tree = sample_truncated_tree(mix23, 3, seed=2)
    for target, mode in ((binary, "quenched"), (binary, "annealed"), (mix23, "quenched"),
                         (tree, "quenched")):
        for lam in (0, 1, 2):
            assert hitting_beta_mc(target, lam, 3, 200, seed=4, mode=mode).successes == \
                hitting_beta_mc(target, float(lam), 3, 200, seed=4, mode=mode).successes


def test_fixed_tree_is_not_mutated(mix23):
    tree = sample_truncated_tree(mix23, 4, seed=3)
    size = len(tree)
    est = hitting_beta_mc(tree, 1.0, 4, 2000, seed=4)
    conductance_sandwich(tree, 1.0, 4)
    assert len(tree) == size
    assert tree.star_root is None
    for a in tree.arrays():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    star = attach_star_root(tree)
    _assert_arrays_match_columns(tree)
    # stepping above the root fails with or without the artificial root
    assert hitting_beta_mc(tree, 1.0, 4, 2000, seed=4).successes == est.successes
    assert tree.arrays()[0][tree.root] == star == tree.parent[tree.root]
    tree.children(tree.level_start[4])  # grows the first depth-4 vertex
    assert len(tree) > size + 1
    _assert_arrays_match_columns(tree)


def _assert_arrays_match_columns(tree):
    for a, col in zip(tree.arrays(), (tree.parent, tree.depth, tree.first_child, tree.nu)):
        assert a.dtype == np.int64 and not a.flags.writeable
        assert len(a) == len(tree) and a.tolist() == col.tolist()


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


def test_annealed_hitting_refuses_a_fixed_tree(mix23):
    tree = sample_truncated_tree(mix23, 3, seed=1)
    with pytest.raises(ValueError, match=r"^annealed mode requires an offspring law, "
                                         r"not a fixed tree$"):
        hitting_beta_mc(tree, 1.0, 3, 100, seed=1, mode="annealed")


def test_lemma0_lambda_zero_short_circuit(binary):
    est_t, est_s, z = lemma0_compare(binary, 0.0, 1000, 4, seed=1)
    assert est_t.mean == est_s.mean == 1.0
    assert z == 0.0


@pytest.mark.parametrize("means, stderrs, z", [
    ((0.75, 0.25), (0.375, 0.5), 0.8),  # 0.5 / hypot(0.375, 0.5) = 0.5 / 0.625, exact
    ((0.25, 0.75), (0.5, 0.375), 0.8),
    ((0.5, 0.5), (0.0, 0.0), 0.0),
    ((0.5, 0.25), (0.0, 0.0), float("inf")),
])
def test_lemma0_z_is_the_mean_gap_over_the_joint_stderr(mix23, monkeypatch, means, stderrs, z):
    def simulate(dist, lam, steps, replicas, seed, graph):
        i = ("T", "T_star").index(graph)
        return walker_mod.SpeedEstimate(means[i], stderrs[i], replicas, steps, lam, graph, [])

    monkeypatch.setattr(walker_mod, "simulate_speed", simulate)
    est_t, est_s, got = lemma0_compare(mix23, 0.5, 100, 4, seed=1)
    assert (est_t.mean, est_s.mean, got) == (*means, z)


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


def test_quenched_hitting_peak_is_within_its_budget(mix23):
    # _check_hitting_size counts 64 bytes a trial
    tree = sample_truncated_tree(mix23, 3, seed=5)
    tracemalloc.start()
    try:
        hitting_beta_mc(tree, 1.0, 3, 400_000, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 400_000


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
