import hashlib
import re

import numpy as np
import pytest

from gwspeed import (
    BetaPool,
    UnsupportedRegimeError,
    beta_derivative_path_sum,
    check_bounds,
    compute_beta,
    sample_pool,
    sample_pools_shared_trees,
    sample_truncated_tree,
    speed_curve,
)
from gwspeed import beta as beta_mod
from gwspeed import tree as tree_mod
from gwspeed.beta import (MAX_FOREST_LEVEL_BYTES, _block_plan, _block_sums,
                          _forest_root_values, _merge_forest, _merge_level,
                          _trees_per_chunk, forest_level_bytes)
from gwspeed.offspring import parse_pmf_text
from gwspeed.rng import D_POOL, substream
from gwspeed.tree import QuenchedTree, _sample_offspring_layers

LAM_GRID = (0.25, 0.5, 1.0, 1.5)


def test_root_values_binary(binary):
    tree = sample_truncated_tree(binary, 3, seed=1)
    assert compute_beta(tree, 1, 1.0).root_beta == pytest.approx(2 / 3, abs=1e-15)
    assert compute_beta(tree, 2, 1.0).root_beta == pytest.approx(4 / 7, abs=1e-15)
    assert compute_beta(tree, 0, 1.0).root_beta == 1.0


def test_root_value_closed_form_binary(binary):
    # one level below the boundary: beta = 2/(lam+2), derivative -2/(lam+2)^2
    tree = sample_truncated_tree(binary, 1, seed=1)
    for lam in (0.0, 0.5, 1.0, 1.7):
        table = compute_beta(tree, 1, lam)
        assert table.root_beta == pytest.approx(2 / (lam + 2), abs=1e-15)
        assert table.root_dbeta == pytest.approx(-2 / (lam + 2) ** 2, abs=1e-15)


def test_derivative_boundary_and_known_values(binary):
    tree = sample_truncated_tree(binary, 2, seed=1)
    t0 = compute_beta(tree, 0, 1.0)
    assert t0.root_dbeta == 0.0
    t1 = compute_beta(tree, 1, 0.0)
    assert t1.root_dbeta == pytest.approx(-0.5, abs=1e-15)
    # two levels: beta_2(lam) = 4/(lam^2 + 2 lam + 4), derivative by hand
    t2 = compute_beta(tree, 2, 1.0)
    assert t2.root_dbeta == pytest.approx(-16 / 49, abs=1e-14)


def test_lambda_zero_is_exact(mix23):
    tree = sample_truncated_tree(mix23, 5, seed=4)
    table = compute_beta(tree, 5, 0.0)
    finite = table.beta[~np.isnan(table.beta)]
    assert (finite == 1.0).all()


def test_path_sum_oracle_values(binary):
    tree = sample_truncated_tree(binary, 1, seed=1)
    table = compute_beta(tree, 1, 1.0)
    assert beta_derivative_path_sum(table) == pytest.approx(-2 / 9, abs=1e-15)
    t0 = compute_beta(tree, 0, 1.0)
    assert beta_derivative_path_sum(t0) == 0.0


def test_path_sum_matches_recursion_on_random_trees(mix23):
    for i in range(20):
        tree = sample_truncated_tree(mix23, 6, seed=1000 + i)
        for lam in LAM_GRID:
            table = compute_beta(tree, 6, lam)
            ps = beta_derivative_path_sum(table)
            assert table.root_dbeta == pytest.approx(ps, rel=1e-12)


def test_finite_difference_matches_derivative(mix23):
    tree = sample_truncated_tree(mix23, 10, seed=55)
    h = 1e-4
    for lam in LAM_GRID:
        table = compute_beta(tree, 10, lam)
        up = compute_beta(tree, 10, lam + h).root_beta
        down = compute_beta(tree, 10, lam - h).root_beta
        fd = (up - down) / (2 * h)
        assert abs(fd - table.root_dbeta) < 1e-5


def test_truncation_monotone_many_trees(mix23):
    # beta_{n+1}(root) <= beta_n(root) on a fixed tree
    for i in range(1000):
        tree = sample_truncated_tree(mix23, 4, seed=20000 + i)
        for lam in LAM_GRID:
            values = [compute_beta(tree, n, lam).root_beta for n in range(5)]
            assert all(b <= a for a, b in zip(values, values[1:]))


def test_truncation_monotone_deep_tree(mix23):
    tree = sample_truncated_tree(mix23, 10, seed=77)
    for lam in LAM_GRID:
        values = [compute_beta(tree, n, lam).root_beta for n in range(11)]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_requires_materialized_tree(mix23):
    tree = sample_truncated_tree(mix23, 3, seed=5)
    with pytest.raises(ValueError, match="materialized"):
        compute_beta(tree, 5, 1.0)


def test_rejects_lazily_grown_tree(mix23):
    # levels 0..2 are fully generated, but not laid out breadth first
    tree = QuenchedTree(mix23, substream(5, 1, 0))
    for v in range(40):
        tree.children(v)
    with pytest.raises(ValueError, match="materialized"):
        compute_beta(tree, 1, 1.0)
    assert compute_beta(tree, 0, 1.0).root_beta == 1.0


def test_rejects_leafy_internal_vertices(leafy):
    tree = sample_truncated_tree(leafy, 4, seed=11)
    # a {0: .25, 2: .75} realization either has internal leaves or dies out
    with pytest.raises(ValueError, match="leafless|children|shallow"):
        compute_beta(tree, 4, 1.0)


# Pools ---------------------------------------------------------------------


def test_tree_pool_deterministic_distribution(binary):
    pool = sample_pool(binary, 1.0, 2, 40, seed=9, method="tree")
    assert np.allclose(pool.beta, 4 / 7, atol=1e-15)
    assert np.allclose(pool.dbeta, -16 / 49, atol=1e-14)


def test_tree_pool_matches_arena_route(ternary):
    pool = sample_pool(ternary, 1.0, 3, 10, seed=2, method="tree")
    tree = sample_truncated_tree(ternary, 3, seed=2)
    table = compute_beta(tree, 3, 1.0)
    assert np.allclose(pool.beta, table.root_beta, atol=1e-15)
    assert np.allclose(pool.dbeta, table.root_dbeta, atol=1e-15)


def test_pool_level_zero_boundary(mix23):
    for method in ("tree", "population"):
        pool = sample_pool(mix23, 1.0, 0, 25, seed=3, method=method)
        assert (pool.beta == 1.0).all()
        assert (pool.dbeta == 0.0).all()


def test_pool_envelope_mix(mix23):
    pool = sample_pool(mix23, 1.0, 10, 4000, seed=12, method="tree")
    assert (pool.beta >= 0.5).all()
    assert (pool.beta <= 2 / 3).all()
    assert 0.5 <= pool.beta.mean() <= 2 / 3


def test_pool_rejects_leaves(leafy):
    with pytest.raises(UnsupportedRegimeError):
        sample_pool(leafy, 1.0, 3, 10, seed=1)


def test_pool_determinism_and_method_flag(mix23):
    a = sample_pool(mix23, 0.5, 6, 500, seed=21, method="tree")
    b = sample_pool(mix23, 0.5, 6, 500, seed=21, method="tree")
    assert np.array_equal(a.beta, b.beta)
    assert a.method == "tree"
    p = sample_pool(mix23, 0.5, 6, 500, seed=21, method="population")
    assert p.method == "population"
    assert not np.array_equal(a.beta, p.beta)


def test_population_pool_means_nonincreasing(mix23):
    means = [sample_pool(mix23, 1.0, n, 200_000, seed=6,
                         method="population").beta.mean() for n in range(6)]
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_population_vs_tree_pool_agree(mix23):
    tree_pool = sample_pool(mix23, 1.0, 8, 20000, seed=14, method="tree")
    pop_pool = sample_pool(mix23, 1.0, 8, 20000, seed=14, method="population")
    se = np.hypot(tree_pool.beta.std() / np.sqrt(len(tree_pool)),
                  pop_pool.beta.std() / np.sqrt(len(pop_pool)))
    assert abs(tree_pool.beta.mean() - pop_pool.beta.mean()) < 5 * se


def test_shared_tree_pools_are_paired(mix23):
    # every bias's shared pool is its solo pool: the chunk streams do not
    # depend on the biases, also over several chunks (629 trees each at depth 10)
    lams = [0.5, 1.0]
    for n, count in ((6, 300), (10, 1500)):
        pools = sample_pools_shared_trees(mix23, lams, n, count, seed=8)
        for pool, lam in zip(pools, lams, strict=True):
            solo = sample_pool(mix23, lam, n, count, seed=8, method="tree")
            assert np.array_equal(pool.beta, solo.beta)
            assert np.array_equal(pool.dbeta, solo.dbeta)
        # same trees: higher bias gives a smaller escape probability samplewise
        assert (pools[1].beta < pools[0].beta).all()


# Bounds --------------------------------------------------------------------


def test_check_bounds_zero_violations(mix23):
    for lam in (0.25, 1.0):
        pool = sample_pool(mix23, lam, 10, 3000, seed=13, method="tree")
        rep = check_bounds(pool, mix23.m1, mix23.m2, lam)
        assert rep.ok
        assert rep.envelope_violations == 0
        assert rep.derivative_violations == 0
        assert rep.denominator_violations == 0


def test_check_bounds_regular_limit_pairs():
    # the regular-tree limit values sit exactly on both bounds
    pool = BetaPool(beta=np.full(10, 0.5), dbeta=np.full(10, -0.5),
                    level=1, lam=1.0, method="tree")
    rep = check_bounds(pool, 2, 2, 1.0)
    assert rep.envelope_violations == 0
    assert rep.derivative_violations == 0


def test_check_bounds_skips_the_derivative_of_a_depth_0_pool(mix23):
    # at depth 0 every beta is 1 and every beta' exactly 0, so the strict
    # derivative bound cannot hold yet; the other two checks still run
    for method in ("tree", "population"):
        rep = check_bounds(sample_pool(mix23, 1.0, 0, 5, 1, method=method), 2, 3, 1.0)
        assert rep.ok
        assert "derivative" in rep.skipped and rep.derivative_violations is None
        assert rep.envelope_violations == 0 and rep.denominator_violations == 0
    rep = check_bounds(sample_pool(mix23, 1.0, 1, 5, 1), 2, 3, 1.0)
    assert rep.derivative_violations == 0 and "derivative" not in rep.skipped


def test_check_bounds_lambda_zero(mix23):
    pool = sample_pool(mix23, 0.0, 6, 500, seed=4, method="tree")
    rep = check_bounds(pool, mix23.m1, mix23.m2, 0.0)
    assert rep.ok


def test_check_bounds_skips_outside_regime(mix23):
    pool = sample_pool(mix23, 2.2, 6, 200, seed=4, method="tree")
    rep = check_bounds(pool, mix23.m1, mix23.m2, 2.2)
    assert "derivative" in rep.skipped
    assert "denominator" in rep.skipped
    assert rep.envelope_violations is not None  # 2.2 < m2 = 3


def test_check_bounds_flags_planted_violation():
    pool = BetaPool(beta=np.array([0.9, 0.2]), dbeta=np.array([-0.1, 0.1]),
                    level=5, lam=1.0, method="tree")
    rep = check_bounds(pool, 2, 3, 1.0)
    assert rep.envelope_violations == 2   # 0.9 > 2/3 and 0.2 < 1/2
    assert rep.derivative_violations == 1  # positive derivative
    assert not rep.ok


def test_check_bounds_regular_pools_sit_on_the_envelope(ternary):
    # a 3-regular tree's beta_n is above its limit 1 - lam/3 at every depth;
    # the envelope at the pool's own depth passes every sample of its pool
    for n in (1, 2, 5):
        for method in ("tree", "population"):
            for lam in (0.5, 1.0, 2.0):
                pool = sample_pool(ternary, lam, n, 500, seed=n, method=method)
                assert (pool.beta > 1.0 - lam / 3).all()
                assert check_bounds(pool, 3, 3, lam).envelope_violations == 0


def test_check_bounds_counts_a_sample_just_past_the_regular_envelope(ternary):
    # the upper bound is the 3-regular tree's beta_5, taken here from
    # compute_beta on a sampled 3-regular tree: one ulp above it is counted
    lam = 1.0
    bound = compute_beta(sample_truncated_tree(ternary, 5, seed=0), 5, lam).root_beta
    pool = BetaPool(beta=np.array([bound, np.nextafter(bound, np.inf)]),
                    dbeta=np.full(2, -0.1), level=5, lam=lam, method="tree")
    assert check_bounds(pool, 2, 3, lam).envelope_violations == 1


def test_check_bounds_counts_a_derivative_one_ulp_past_its_bound():
    # -beta' may reach beta/(m1 - lam) but not pass it: the sample on the
    # bound passes, the one one ulp above it is counted
    lam, beta = 0.5, 0.8
    cap = beta / (2 - lam)
    pool = BetaPool(beta=np.full(2, beta), dbeta=np.array([-cap, -np.nextafter(cap, np.inf)]),
                    level=5, lam=lam, method="tree")
    assert check_bounds(pool, 2, 3, lam).derivative_violations == 1


def test_check_bounds_counts_a_denominator_floor_one_ulp_under_its_threshold():
    # at m1 = 3 and lam = 0.75 the threshold m1 - lam/m1 is 2.75, and the
    # floor lam - 1 + 4 * min(beta) meets it exactly at min(beta) = 0.75; one
    # ulp less puts the floor one ulp under it
    lam = 0.75
    for low, floor, violations in ((0.75, 2.75, 0),
                                   (np.nextafter(0.75, 0.0), np.nextafter(2.75, 0.0), 1)):
        pool = BetaPool(beta=np.array([0.8, low]), dbeta=np.full(2, -0.1), level=5, lam=lam,
                        method="tree")
        rep = check_bounds(pool, 3, 3, lam)
        assert (rep.denominator_floor, rep.denominator_violations) == (floor, violations)


def test_check_bounds_refuses_a_table(mix23):
    tree = sample_truncated_tree(mix23, 2, seed=2)
    with pytest.raises(TypeError, match="expected a BetaPool, got BetaTable"):
        check_bounds(compute_beta(tree, 2, 1.0), mix23.m1, mix23.m2, 1.0)


def _plain_root_values(layers, lam, n_trees):
    """Reference: the bottom-up recursion over every vertex of every level."""
    b, db = np.ones(n_trees), np.zeros(n_trees)
    for k, counts in enumerate(reversed(layers)):
        off = np.cumsum(counts) - counts
        s = counts.astype(np.float64) if k == 0 else np.add.reduceat(b, off)
        sp = 0.0 if k == 0 else np.add.reduceat(db, off)
        d = lam + s
        b, db = s / d, (lam * sp - s) / (d * d)
    return b, db


@pytest.mark.parametrize("law,depths", [
    ("2:1", (0, 1, 2, 8)),  # every level of a wide forest is one shape
    ("2:0.5,3:0.5", (0, 1, 2, 8)),
    ("1:0.2,4:0.8", (0, 1, 2, 8)),
    ("2:0.3,3:0.3,4:0.4", (0, 1, 2, 8)),
    ("1:0.5,12:0.5", (0, 1, 2, 4)),  # depth 8 would hold ~3e7 vertices a tree
    ("2:0.9,20:0.1", (0, 1, 2, 5)),  # code ranges above the level widths
])
def test_merged_forest_matches_plain_recursion(law, depths):
    dist = parse_pmf_text(law)
    for depth in depths:
        for n_trees in (1, 50):
            layers = _sample_offspring_layers(dist, depth, n_trees,
                                              np.random.default_rng(100 * depth + n_trees))
            levels, top = _merge_forest(list(layers))
            for lam in (0.0, 0.3, 1.0, 2.7):
                ref_b, ref_db = _plain_root_values(layers, lam, n_trees)
                b, db = _forest_root_values(levels, top, lam, n_trees)
                assert np.array_equal(b, ref_b) and np.array_equal(db, ref_db)


@pytest.mark.parametrize("k", range(1, 6))
def test_one_point_pools_equal_the_forest_path_bit_for_bit(k, monkeypatch):
    # every tree of a one-point law is the k-regular tree, so its pools are
    # evaluated once, one vertex a level, and draw nothing; the reference
    # draws and merges a forest of two trees (at depth 10 on 5:1, 3.9 million
    # vertices on its last level above the boundary)
    def never(*args, **kwargs):
        raise AssertionError("a forest was drawn")

    dist = parse_pmf_text(f"{k}:1")
    lams = [0.0, 0.4 * k, float(k), 1.5 * k, 1e200]
    for n in range(11):
        layers = _sample_offspring_layers(dist, n, 2, np.random.default_rng(n))
        levels, top = _merge_forest(layers)
        with monkeypatch.context() as patch:
            patch.setattr(beta_mod, "substream", never)
            patch.setattr(beta_mod, "_sample_offspring_layers", never)
            pools = sample_pools_shared_trees(dist, lams, n, 2, seed=n)
        for lam, pool in zip(lams, pools):
            b, db = _forest_root_values(levels, top, lam, 2)
            assert (pool.lam, pool.level, pool.method) == (lam, n, "tree")
            # bit patterns, so that -0.0 against 0.0 counts as a difference
            assert pool.beta.tobytes() == b.tobytes() and pool.dbeta.tobytes() == db.tobytes()


def test_a_one_point_pool_past_the_forest_budget_is_refused_before_any_draw(monkeypatch):
    # the size guard runs first and still counts the widest forest level
    def never(*args, **kwargs):
        raise AssertionError("a pool was built")

    for name in ("substream", "_sample_offspring_layers", "_regular_levels"):
        monkeypatch.setattr(beta_mod, name, never)
    five = parse_pmf_text("5:1")
    for call in (lambda: sample_pool(five, 1.0, 13, 3000, 7),
                 lambda: sample_pools_shared_trees(five, [0.5, 1.0], 13, 3000, 7)):
        with pytest.raises(ValueError, match=r"^a depth-13 forest level would need about "
                                             r"7\.28 GiB, over the 2 GiB limit$"):
            call()


def _add_plan(h, levels, top):
    """Feed a forest plan to the hash ``h``: every level's counts and block
    plan, then the top ids."""
    def add(a):
        h.update(b"-" if a is None else b"*" if isinstance(a, slice)
                 else f"{a.dtype}{a.shape}".encode() + a.tobytes())

    for counts, plan in levels:
        h.update(b"|")
        add(counts)
        if plan is not None:
            for a in (plan.first, plan.off, plan.index, *(a for rank in plan.ranks for a in rank)):
                add(a)
    add(top)


def test_merged_forest_plans_are_pinned():
    # the levels, block plans and top ids of the forests of
    # test_merged_forest_matches_plain_recursion and two of the bench law's;
    # _merge_level refuses every level above an unmerged one on its own
    cases = [(law, depth, n_trees, 100 * depth + n_trees)
             for law, depths in (("2:1", (0, 1, 2, 8)), ("2:0.5,3:0.5", (0, 1, 2, 8)),
                                 ("1:0.2,4:0.8", (0, 1, 2, 8)),
                                 ("2:0.3,3:0.3,4:0.4", (0, 1, 2, 8)),
                                 ("1:0.5,12:0.5", (0, 1, 2, 4)), ("2:0.9,20:0.1", (0, 1, 2, 5)))
             for depth in depths for n_trees in (1, 50)]
    cases += [("2:0.5,3:0.5", 8, 800, 8), ("2:0.5,3:0.5", 11, 100, 11)]
    h = hashlib.sha256()
    for law, depth, n_trees, seed in cases:
        layers = _sample_offspring_layers(parse_pmf_text(law), depth, n_trees,
                                          np.random.default_rng(seed))
        widths = [c.size for c in reversed(layers)]
        levels, top = _merge_forest(layers)
        merged = [c.size < w for (c, _), w in zip(levels, widths)]
        assert merged == sorted(merged, reverse=True)  # merged levels are a bottom run
        _add_plan(h, levels, top)
    assert h.hexdigest() == "42037ef3dcda82d60a421b44fb4a78aa52146b229b2a05f9ad62ee875a0c8df5"


@pytest.mark.parametrize("n, count, seed", [(1, 12, 0), (2, 3, 1)])
def test_a_narrow_level_with_more_shapes_than_half_its_width_is_not_merged(
        monkeypatch, n, count, seed):
    # counts 1..8 on a lowest level of 11 or 12 vertices: the code range, 9,
    # fits the width, but 7 or 8 shapes are more than half of it
    dist = parse_pmf_text(",".join(f"{k}:0.125" for k in range(1, 9)))
    refused = []

    def spy(counts, plan, n_kid_shapes):
        merged = _merge_level(counts, plan, n_kid_shapes)
        if plan is None and merged is None:
            refused.append((counts.size, int(counts.max()) + 1, np.unique(counts).size))
        return merged

    monkeypatch.setattr(beta_mod, "_merge_level", spy)
    lams = [0.0, 0.3, 1.0, 2.7]
    pools = sample_pools_shared_trees(dist, lams, n, count, seed)
    (width, code_range, shapes), = refused
    assert code_range <= width < 2 * shapes
    layers = _sample_offspring_layers(dist, n, count, substream(seed, D_POOL, 0))
    for lam, pool in zip(lams, pools):
        b, db = _plain_root_values(layers, lam, count)
        assert pool.beta.tobytes() == b.tobytes() and pool.dbeta.tobytes() == db.tobytes()


@pytest.mark.parametrize("call, error, says", [
    (lambda d: sample_pools_shared_trees(d, [1.0], 3, 0, seed=1), ValueError,
     "pool size must be >= 1, got 0"),
    (lambda d: sample_pool(d, 1.0, 3, 10, seed=1, method="bogus"), ValueError,
     "unknown pool method 'bogus'"),
    (lambda d: sample_pool(parse_pmf_text("0:0.25,2:0.75"), 1.0, 3, 10, seed=1,
                           method="population"), UnsupportedRegimeError,
     "sample pools need a leafless offspring law"),
    (lambda d: sample_pool(d, 1.0, 3, 0, seed=1, method="population"), ValueError,
     "pool size must be >= 1, got 0"),
], ids=["shared-trees-count", "unknown-method", "population-leaves", "population-count"])
def test_pool_refusals_name_what_is_wrong(mix23, call, error, says):
    with pytest.raises(error, match=f"^{re.escape(says)}$"):
        call(mix23)


def _merged_levels(law, depth, n_trees, seed):
    layers = _sample_offspring_layers(parse_pmf_text(law), depth, n_trees,
                                      np.random.default_rng(seed))
    levels, top = _merge_forest(list(layers))
    # a merged level keeps one entry per shape, at most half its width
    return sum(c.size < raw.size for (c, *_), raw in zip(levels, reversed(layers))), top


def test_merge_covers_whole_forest_and_stops_at_lowest_level():
    merged, top = _merged_levels("2:1", 8, 50, 850)
    assert merged == 8 and top is not None
    merged, top = _merged_levels("1:0.5,12:0.5", 4, 1, 401)
    assert merged == 1 and top is None
    merged, top = _merged_levels("2:1", 1, 1, 101)
    assert merged == 0 and top is None


def test_a_level_whose_code_range_exceeds_its_width_is_refused_before_any_code():
    # three vertices with up to 3 children over 2 child shapes code in base 3,
    # a range of 27 codes: refused before the plan's first values or ranks
    # are read to build a code
    class Unread:
        @property
        def first(self):
            raise AssertionError("a shape code was built")
        ranks = first

    assert _merge_level(np.array([2, 3, 2]), Unread(), 2) is None
    assert _merge_level(np.array([2, 40, 3]), None, 0) is None  # counts 0..40


def _assert_block_sums_match_reduceat(x, counts, index):
    # the gathered values summed in place, and the same blocks read through
    # the index straight from x
    gathered = x[index]
    ref = np.add.reduceat(gathered, np.cumsum(counts) - counts)
    for values, plan in ((gathered, _block_plan(counts)), (x, _block_plan(counts, index))):
        got = _block_sums(values, plan)
        # bit patterns, so that -0.0 against 0.0 counts as a difference
        assert got.dtype == ref.dtype and np.array_equal(got.view(np.int64), ref.view(np.int64))


def _gather_index(rng, n_values):
    # a shuffle with repeats, as in a tuple draw from a pool
    return rng.integers(0, n_values, n_values)


@pytest.mark.parametrize("length", range(1, 21))
def test_block_sums_match_reduceat_bit_for_bit(length):
    # values spread over 16 decades, so any change in the order of the
    # additions changes some sum; 8 and 9 straddle reduceat's switch from a
    # left-to-right tail to a pairwise one
    rng = np.random.default_rng(length)
    counts = np.full(500, length, dtype=np.int16)
    x = rng.standard_normal(500 * length) * 10.0 ** rng.integers(-8, 8, 500 * length)
    _assert_block_sums_match_reduceat(x, counts, _gather_index(rng, x.size))


def test_block_sums_match_reduceat_on_mixed_blocks():
    rng = np.random.default_rng(5)
    for top in (2, 5, 8, 9, 20):
        counts = rng.integers(1, top + 1, 2000).astype(np.int16)
        x = rng.standard_normal(int(counts.sum())) * 10.0 ** rng.integers(-8, 8, int(counts.sum()))
        _assert_block_sums_match_reduceat(x, counts, _gather_index(rng, x.size))


def test_block_sums_keep_signed_zeros():
    rng = np.random.default_rng(6)
    for top in (1, 3, 8, 12):
        counts = rng.integers(1, top + 1, 400).astype(np.int16)
        x = rng.choice([-0.0, 0.0, 1.5, -1.5], size=int(counts.sum()), p=[0.6, 0.2, 0.1, 0.1])
        _assert_block_sums_match_reduceat(x, counts, _gather_index(rng, x.size))
    plan = _block_plan(np.ones(3, dtype=np.int16))
    assert np.signbit(_block_sums(np.array([-0.0, -0.0, -0.0]), plan)).all()


def test_a_wide_block_lists_only_the_ranks_a_merge_can_code():
    # a 40000-value block is summed by reduceat and its level is never
    # merged, so its plan stops at the 61 ranks of the widest block (62
    # values) whose shape code fits in int64
    counts = np.array([2, 40000, 3])
    plan = _block_plan(counts)
    assert len(plan.ranks) == 61
    x = np.random.default_rng(7).standard_normal(int(counts.sum()))
    assert np.array_equal(_block_sums(x, plan), np.add.reduceat(x, plan.off))
    assert _merge_level(counts, plan, 1) is None


def test_forest_levels_carry_their_block_plans(monkeypatch):
    # the bias-independent plan rides on every level above the boundary and
    # holds a rank for every child position; a law with blocks longer than 8
    # still sums them through reduceat
    summed = []

    class Numpy:  # numpy, with the blocks that np.add.reduceat sums recorded
        def __getattr__(self, name):
            return getattr(np, name)

        class add:
            @staticmethod
            def reduceat(x, off):
                summed.append(off.size)
                return np.add.reduceat(x, off)

    monkeypatch.setattr(beta_mod, "np", Numpy())
    for law in ("2:0.3,3:0.3,4:0.4", "1:0.5,12:0.5"):
        layers = _sample_offspring_layers(parse_pmf_text(law), 3, 20,
                                          np.random.default_rng(3))
        levels, _ = _merge_forest(layers)
        assert levels[0][1] is None
        for (below, _), (counts, plan) in zip(levels, levels[1:]):
            assert np.array_equal(plan.off, np.cumsum(counts) - counts)
            assert len(plan.ranks) == counts.max() - 1
            x = np.ones(below.size)  # one value per entry of the level below
            summed.clear()
            assert np.array_equal(_block_sums(x, plan), counts)
            assert summed == ([counts.size] if counts.max() > 8 else [])
    assert max(len(plan.ranks) for _, plan in levels[1:]) == 11


def test_forest_level_prediction_is_large_only_for_wide_levels():
    demo, wide = parse_pmf_text("2:0.5,3:0.5"), parse_pmf_text("2:0.5,40000:0.5")
    # chunking caps a level at about 6e6/m vertices whenever a chunk holds
    # more than one tree
    for depth in (0, 1, 8, 11, 12, 15):
        assert forest_level_bytes(demo, depth) < 2**28
    assert forest_level_bytes(wide, 2) < 2**20
    assert forest_level_bytes(wide, 5) > 2**60
    assert forest_level_bytes(demo, 2000) == float("inf")


def test_pools_refuse_an_over_budget_depth_before_any_draw(monkeypatch):
    demo = parse_pmf_text("2:0.5,3:0.5")

    def never(*args, **kwargs):
        raise AssertionError("a forest was drawn")

    monkeypatch.setattr(beta_mod, "_sample_offspring_layers", never)
    for call in (lambda: sample_pool(demo, 1.0, 1000, 10, 0),
                 lambda: sample_pools_shared_trees(demo, [0.5, 1.0], 1000, 10, 0),
                 lambda: speed_curve(demo, [0.5, 1.0], 1000, 10, 10, 0)):
        with pytest.raises(ValueError, match="depth-1000 forest level"):
            call()
    assert _trees_per_chunk(demo, 1000) == 1


@pytest.mark.parametrize("method", ["tree", "population"])
def test_pools_refuse_a_negative_depth_before_any_draw(mix23, monkeypatch, method):
    def never(*args, **kwargs):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(beta_mod, "substream", never)
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        sample_pool(mix23, 1.0, -1, 5, 0, method=method)
    if method == "tree":
        with pytest.raises(ValueError, match="depth must be >= 0, got -3"):
            sample_pools_shared_trees(mix23, [0.5, 1.0], -3, 5, 0)


@pytest.mark.parametrize("pmf, bytes_per_sample", [("2:1", 128), ("1:0.5,12:0.5", 272)])
def test_population_pool_refuses_an_over_budget_size_before_any_draw(
        monkeypatch, pmf, bytes_per_sample):
    # 64 bytes a sample and 32 a member: 1,000 samples are refused one byte
    # below that, and reach the sampler at exactly that
    def never(*args, **kwargs):
        raise AssertionError("a stream was drawn")

    dist = parse_pmf_text(pmf)
    monkeypatch.setattr(beta_mod, "substream", never)
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 1000 * bytes_per_sample - 1)
    with pytest.raises(ValueError, match="^a population pool of 1000 samples would need"):
        sample_pool(dist, 1.0, 3, 1000, 0, method="population")
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 1000 * bytes_per_sample)
    with pytest.raises(AssertionError, match="a stream was drawn"):
        sample_pool(dist, 1.0, 3, 1000, 0, method="population")


@pytest.mark.parametrize("lams", [[1.0], [0.5, 1.0, 1.5]])
def test_tree_pool_refuses_an_over_budget_size_before_any_draw(monkeypatch, mix23, lams):
    # 16 bytes a sample per bias: 1,000 samples are refused one byte below
    # that, and reach the sampler at exactly that. The forest level, far over
    # so small a budget, has its own check, switched off here.
    def never(*args, **kwargs):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(beta_mod, "substream", never)
    monkeypatch.setattr(beta_mod, "_check_forest_depth", lambda dist, n: None)
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 16 * len(lams) * 1000 - 1)
    with pytest.raises(ValueError, match="^a tree-method pool of 1000 samples would need"):
        sample_pools_shared_trees(mix23, lams, 2, 1000, 0)
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 16 * len(lams) * 1000)
    with pytest.raises(AssertionError, match="a stream was drawn"):
        sample_pools_shared_trees(mix23, lams, 2, 1000, 0)


def test_chunk_sizes_within_budget_are_unchanged():
    # the pools' draws depend on the chunk size, so the guard must not move it
    for law in ("2:0.5,3:0.5", "2:1", "2:0.3,5:0.7", "2:0.5,40000:0.5"):
        dist = parse_pmf_text(law)
        for depth in range(0, 25):
            if forest_level_bytes(dist, depth) <= MAX_FOREST_LEVEL_BYTES:
                assert _trees_per_chunk(dist, depth) == max(
                    1, int(6_000_000 / max(1.0, dist.m ** depth)))
