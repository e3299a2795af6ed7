import math

import numpy as np
import pytest

from gwspeed import (
    UnsupportedRegimeError,
    attach_star_root,
    build_conductances,
    compute_beta,
    conductance_sandwich,
    effective_conductance_to_level,
    hitting_beta_mc,
    make_distribution,
    regular_escape_probability,
    regular_return_gf,
    sample_truncated_tree,
)
from gwspeed.network import SMALL_LAMBDA, _conductance_to_level, _regular_conductance
from gwspeed.rng import substream
from gwspeed.tree import QuenchedTree

LAM_GRID = (0.25, 0.5, 1.0, 1.5)


def _starred(dist, n, seed):
    tree = sample_truncated_tree(dist, n, seed)
    attach_star_root(tree)
    return tree


def test_conductance_rejects_bad_input(binary):
    tree = sample_truncated_tree(binary, 1, seed=1)
    with pytest.raises(ValueError, match="artificial root"):
        build_conductances(tree, 1.0)
    attach_star_root(tree)
    with pytest.raises(UnsupportedRegimeError):
        build_conductances(tree, 0.0)
    with pytest.raises(UnsupportedRegimeError):
        build_conductances(tree, -0.5)


def test_series_parallel_binary(binary):
    tree = _starred(binary, 2, seed=1)
    net = build_conductances(tree, 1.0)
    assert effective_conductance_to_level(net, 1) == pytest.approx(2 / 3, abs=1e-15)
    assert effective_conductance_to_level(net, 2) == pytest.approx(4 / 7, abs=1e-15)


def test_series_chain_is_resistors_in_series():
    path = make_distribution({1: 1.0})
    for n in range(1, 7):
        tree = _starred(path, n, seed=0)
        net = build_conductances(tree, 1.0)
        assert effective_conductance_to_level(net, n) == pytest.approx(
            1 / (n + 1), abs=1e-15)


def test_conductance_equals_escape_probability(mix23):
    # the module's central cross-check: network reduction against the
    # hitting recursion, per tree and bias
    for i in range(25):
        tree = _starred(mix23, 6, seed=500 + i)
        for lam in LAM_GRID:
            b = compute_beta(tree, 6, lam).root_beta
            c = effective_conductance_to_level(build_conductances(tree, lam), 6)
            assert c == pytest.approx(b, rel=1e-12)


def test_small_lambda_rescaled_path(mix23):
    tree = _starred(mix23, 6, seed=9)
    for lam in (0.02, 0.05, 0.0999, 0.1001):
        b = compute_beta(tree, 6, lam).root_beta
        c = effective_conductance_to_level(build_conductances(tree, lam), 6)
        assert c == pytest.approx(b, rel=1e-12)


def test_conductance_requires_deep_enough_tree(mix23):
    tree = _starred(mix23, 3, seed=2)
    net = build_conductances(tree, 1.0)
    with pytest.raises(ValueError):
        effective_conductance_to_level(net, 5)


def test_conductance_refuses_internal_leaves():
    # on seed 9 the reduction once returned 0.50066 where the exact hitting
    # probability is 0.42202; seeds 0, 4, 5 and 7 raised IndexError
    leafy = make_distribution({0: 0.3, 2: 0.7})
    for seed in range(10):
        tree = _starred(leafy, 4, seed)
        net = build_conductances(tree, 1.0)
        with pytest.raises(ValueError, match="internal vertex without children"):
            effective_conductance_to_level(net, 4)
        with pytest.raises(UnsupportedRegimeError, match="leafless"):
            conductance_sandwich(tree, 1.0, 4)


def _fixed_trees():
    """(tree, depth grown to), each with its artificial root: every law at
    depth 4 (the law with leaves at seed 9, a leaf above the boundary, and
    seed 0, a line that dies out), a shallow tree and a lazily grown one."""
    trees = []
    for pmf in ({2: 1.0}, {2: 0.5, 3: 0.5}, {1: 0.5, 12: 0.5}, {0: 0.3, 2: 0.7}):
        dist = make_distribution(pmf)
        for seed in ((9, 0) if dist.has_leaves else (3,)):
            trees.append((_starred(dist, 4, seed), 4))
    mix23 = make_distribution({2: 0.5, 3: 0.5})
    trees.append((_starred(mix23, 2, 5), 2))
    lazy = QuenchedTree(mix23, substream(5, 1, 0))
    for v in range(40):
        lazy.children(v)
    attach_star_root(lazy)
    trees.append((lazy, max(lazy.depth)))
    return trees


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return exc


def test_fixed_tree_oracles_accept_and_refuse_the_same_trees():
    refusals = set()
    for tree, depth in _fixed_trees():
        net = build_conductances(tree, 1.0)
        for n in range(-1, depth + 2):
            beta = _outcome(lambda: compute_beta(tree, n, 1.0).root_beta)
            cond = _outcome(lambda: effective_conductance_to_level(net, n))
            if isinstance(beta, ValueError):
                refusals.add(str(beta).split(";")[0])
                assert type(cond) is ValueError and str(cond) == str(beta)
            else:
                assert cond == pytest.approx(beta, rel=1e-12, abs=0.0)
            if n < 1:  # hitting needs a level >= 1 whatever the tree
                continue
            hit = _outcome(lambda: hitting_beta_mc(tree, 1.0, n, 20, seed=1))
            if tree.dist.has_leaves:  # refused by its law before the tree is read
                assert isinstance(hit, UnsupportedRegimeError)
            elif isinstance(beta, ValueError):
                assert type(hit) is ValueError and str(hit) == str(beta)
            else:
                assert not isinstance(hit, ValueError)
    assert refusals == {"level must be >= 0, got -1",
                        "tree has an internal vertex without children",
                        # n = 1..6: the lazily grown tree reaches depth 5
                        *(f"tree is not materialized to depth {n}" for n in range(1, 7))}


def test_return_gf_values():
    assert regular_return_gf(2, 1.0, 1.0) == 0.5
    expected = (3 - math.sqrt(7)) / 2  # closed form at d=2, lam=1, z=1/2
    assert regular_return_gf(2, 1.0, 0.5) == pytest.approx(expected, abs=1e-15)
    for d in (1, 2, 5):
        for z in (0.2, 0.7, 1.0):
            assert regular_return_gf(d, 0.0, z) == 0.0


def test_return_gf_via_quadratic_roots():
    # independent oracle: smaller root of (d z/(lam+d)) u^2 - u + lam z/(lam+d)
    for d in (2, 3):
        for lam in (0.3, 1.0, 1.7):
            for z in (0.3, 0.8):
                a = d * z / (lam + d)
                b = -1.0
                c = lam * z / (lam + d)
                roots = np.roots([a, b, c])
                oracle = min(r.real for r in roots if abs(r.imag) < 1e-12)
                assert regular_return_gf(d, lam, z) == pytest.approx(oracle, abs=1e-12)


def test_return_gf_satisfies_quadratic_on_grid():
    worst = 0.0
    for d in (2, 3):
        for lam in np.linspace(0.0, 4.0, 10):
            for z in np.linspace(0.1, 1.0, 5):
                u = regular_return_gf(d, float(lam), float(z))
                assert 0.0 <= u <= 1.0
                resid = abs(u - lam * z / (lam + d) - d * z * u * u / (lam + d))
                worst = max(worst, resid)
    assert worst <= 1e-12


def test_return_gf_rejects_bad_z():
    with pytest.raises(ValueError):
        regular_return_gf(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        regular_return_gf(2, 1.0, 1.2)


def test_return_gf_continuous_at_one():
    for d in (2, 3):
        for lam in (0.5, 1.0, 2.5):
            near = regular_return_gf(d, lam, 1.0 - 1e-10)
            assert abs(near - regular_return_gf(d, lam, 1.0)) < 1e-4


def test_escape_probability_values():
    assert regular_escape_probability(2, 1.0) == 0.5
    assert regular_escape_probability(2, 3.0) == 0.0
    assert regular_escape_probability(5, 0.0) == 1.0


def test_gf_escape_complement_exact():
    for d in (1, 2, 3, 7):
        for lam in (0.0, 0.3, 1.0, 1.5, 4.0):
            assert regular_return_gf(d, lam, 1.0) + regular_escape_probability(d, lam) == 1.0


def test_regular_conductance_equals_the_tree_reduction():
    # the level-per-value reduction against the reduction on a sampled
    # d-regular tree, bit for bit, at biases on both sides of SMALL_LAMBDA
    lams = [SMALL_LAMBDA * f for f in (0.05, 0.5, 0.999, 1.0, 1.001, 3.0, 10.0, 25.0)]
    for d in range(1, 10):
        tree = sample_truncated_tree(make_distribution({d: 1.0}), 6, seed=0)
        for n in range(7):
            for lam in lams:
                assert _regular_conductance(d, lam, n) == _conductance_to_level(tree, lam, n)


def test_sandwich_regular_collapses(binary):
    tree = sample_truncated_tree(binary, 5, seed=4)
    low, mid, high = conductance_sandwich(tree, 1.0, 5)
    assert low == mid == high


def test_sandwich_ordering_many_trees(mix23):
    for i in range(1000):
        tree = sample_truncated_tree(mix23, 5, seed=3000 + i)
        low, mid, high = conductance_sandwich(tree, 1.0, 5)
        assert low <= mid <= high
    for lam in (0.3, 1.4):
        tree = sample_truncated_tree(mix23, 5, seed=1)
        low, mid, high = conductance_sandwich(tree, lam, 5)
        assert low <= mid <= high


def test_sandwich_lower_bracket_approaches_limit(binary):
    # the depth-n bracket converges geometrically to 1 - min(lam, d)/d
    tree = sample_truncated_tree(binary, 18, seed=1)
    low, _, _ = conductance_sandwich(tree, 1.0, 18)
    assert abs(low - 0.5) < 1e-5
