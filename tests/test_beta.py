import hashlib
import itertools
import math
import re
from fractions import Fraction

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
from gwspeed.beta import (_MAX_SHAPES, MAX_FOREST_LEVEL_BYTES, _atom_depth, _atom_table,
                          _block_plan, _block_sums, _draw_atoms, _draw_forest, _level_pass,
                          _level_step, _shape_levels, _trees_per_chunk, forest_level_bytes)
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


def test_check_bounds_counts_a_sample_under_the_envelope_floor_past_m1():
    # past lam = m1 the floor 1 - min(lam, m1)/m1 is 0, not 1 - lam/m1 < 0:
    # a sample just below 0 is counted, under the 3-regular tree's
    # beta_5 of about 0.251 at lam = 2.5
    pool = BetaPool(beta=np.array([-1e-300, 0.1]), dbeta=np.full(2, -0.1), level=5,
                    lam=2.5, method="tree")
    assert check_bounds(pool, 2, 3, 2.5).envelope_violations == 1


def test_check_bounds_counts_a_derivative_of_exactly_zero():
    # -beta' must be positive at depth >= 1: a beta' of 0.0 or -0.0 is counted
    pool = BetaPool(beta=np.full(3, 0.6), dbeta=np.array([-0.1, 0.0, -0.0]), level=3,
                    lam=1.0, method="tree")
    assert check_bounds(pool, 2, 3, 1.0).derivative_violations == 2


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


def _shape_values(levels, lam):
    """(beta, beta') of every top shape of a shape table."""
    return _level_pass(levels, np.ones(1), np.zeros(1), lam)


def _expand_shapes(levels, ids):
    """The offspring counts, top level first, of a forest whose roots have
    the depth-j shapes ``ids`` of the shape table ``levels``."""
    layers = []
    for counts, plan in reversed(levels):
        c = counts[ids]
        layers.append(c)
        if plan is not None:
            ids = plan.index[np.repeat(plan.off[ids] - (np.cumsum(c) - c), c)
                             + np.arange(int(c.sum()))]
    return layers


def _atom_forest(dist, n, n_trees, seed):
    """A chunk's drawn plan, its depth j, and the same draw in full: the
    level-by-level counts above the atoms and each atom's expanded shape."""
    j = _atom_depth(dist, n, n_trees)
    levels, keep, alias = _atom_table(dist, j)
    if j == n and keep.size == 1:  # every tree is one shape: nothing is drawn
        return j, [], np.zeros(n_trees, dtype=np.intp), _expand_shapes(levels, [0] * n_trees)
    drawn, top = _draw_forest(dist, n, j, n_trees, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    layers = _sample_offspring_layers(dist, n - j, n_trees, rng)
    width = int(layers[-1].sum()) if layers else n_trees
    atoms = _draw_atoms(keep, alias, rng, width)
    return j, drawn, top, layers + (_expand_shapes(levels, atoms) if j else [])


@pytest.mark.parametrize("law,depths", [
    ("2:1", (0, 1, 2, 8)),  # every level of a forest is one shape
    ("2:0.5,3:0.5", (0, 1, 2, 8)),
    ("1:0.2,4:0.8", (0, 1, 2, 8)),
    ("2:0.3,3:0.3,4:0.4", (0, 1, 2, 8)),
    ("1:0.5,12:0.5", (0, 1, 2, 4)),  # depth 8 would hold ~3e7 vertices a tree
    ("2:0.9,20:0.1", (0, 1, 2, 5)),
])
def test_merged_forest_matches_plain_recursion(law, depths):
    # the drawn levels and the atoms' shapes, each evaluated once, give the
    # plain recursion's bits on the forest they stand for; the counts above
    # the atoms are the level-by-level draw's own. A forest of one tree draws
    # no atom (j = 0) at depth 1 on a multi-point law, and a 2:1 forest only
    # its one shape
    dist = parse_pmf_text(law)
    for depth in depths:
        for n_trees in (1, 50):
            seed = 100 * depth + n_trees
            j, drawn, top, layers = _atom_forest(dist, depth, n_trees, seed)
            plain = _sample_offspring_layers(dist, depth - j, n_trees,
                                             np.random.default_rng(seed))
            assert all(np.array_equal(a, b) for a, b in zip(layers, plain, strict=False))
            levels = _atom_table(dist, j)[0]
            for lam in (0.0, 0.3, 1.0, 2.7):
                ref_b, ref_db = _plain_root_values(layers, lam, n_trees)
                b, db = _level_pass(drawn, *_shape_values(levels, lam), lam)
                if top is not None:
                    b, db = b[top], db[top]
                assert b.tobytes() == ref_b.tobytes() and db.tobytes() == ref_db.tobytes()


@pytest.mark.parametrize("k", range(1, 6))
def test_one_point_pools_equal_the_forest_path_bit_for_bit(k, monkeypatch):
    # every tree of a one-point law is the k-regular tree, one shape a level,
    # so its pools draw nothing; the reference is the plain recursion over a
    # drawn forest of two trees (at depth 10 on 5:1, 3.9 million vertices on
    # its last level above the boundary)
    def never(*args, **kwargs):
        raise AssertionError("a forest was drawn")

    dist = parse_pmf_text(f"{k}:1")
    lams = [0.0, 0.4 * k, float(k), 1.5 * k, 1e200]
    for n in range(11):
        layers = _sample_offspring_layers(dist, n, 2, np.random.default_rng(n))
        with monkeypatch.context() as patch:
            patch.setattr(beta_mod, "substream", never)
            patch.setattr(beta_mod, "_sample_offspring_layers", never)
            pools = sample_pools_shared_trees(dist, lams, n, 2, seed=n)
        for lam, pool in zip(lams, pools):
            with np.errstate(over="ignore"):  # 1e200 squared
                b, db = _plain_root_values(layers, lam, 2)
            assert (pool.lam, pool.level, pool.method) == (lam, n, "tree")
            # bit patterns, so that -0.0 against 0.0 counts as a difference
            assert pool.beta.tobytes() == b.tobytes() and pool.dbeta.tobytes() == db.tobytes()


def test_a_one_point_pool_past_the_forest_budget_is_refused_before_any_draw(monkeypatch):
    # the size guard runs first and still counts the widest forest level
    def never(*args, **kwargs):
        raise AssertionError("a pool was built")

    for name in ("substream", "_sample_offspring_layers", "_atom_table"):
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
            ranks = plan.ranks or ()
            for a in (plan.first, plan.off, plan.index, *(a for rank in ranks for a in rank)):
                add(a)
    add(top)


def test_merged_forest_plans_are_pinned():
    # the shape tables, drawn levels, block plans and root atoms of the
    # forests of test_merged_forest_matches_plain_recursion and two of the
    # bench law's
    cases = [(law, depth, n_trees, 100 * depth + n_trees)
             for law, depths in (("2:1", (0, 1, 2, 8)), ("2:0.5,3:0.5", (0, 1, 2, 8)),
                                 ("1:0.2,4:0.8", (0, 1, 2, 8)),
                                 ("2:0.3,3:0.3,4:0.4", (0, 1, 2, 8)),
                                 ("1:0.5,12:0.5", (0, 1, 2, 4)), ("2:0.9,20:0.1", (0, 1, 2, 5)))
             for depth in depths for n_trees in (1, 50)]
    cases += [("2:0.5,3:0.5", 8, 800, 8), ("2:0.5,3:0.5", 11, 100, 11)]
    h = hashlib.sha256()
    for law, depth, n_trees, seed in cases:
        dist = parse_pmf_text(law)
        j, drawn, top, _ = _atom_forest(dist, depth, n_trees, seed)
        levels, keep, alias = _atom_table(dist, j)
        _add_plan(h, levels, keep)
        h.update(alias.tobytes())
        _add_plan(h, drawn, top)
    assert h.hexdigest() == "30076eeb9c7638f5b185a58651effc693d47cb588d5d02c494fc0c3d81f02796"


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


def _brute_shapes(entries, j):
    """Every ordered depth-j shape as (k, children), with its exact
    probability, enumerated with itertools in the shape table's order."""
    if j == 0:
        return [(None, Fraction(1))]
    below = _brute_shapes(entries, j - 1)
    shapes = []
    for k, p in entries:
        for kids in itertools.product(below, repeat=k):
            shapes.append(((k, [s for s, _ in kids]),
                           math.prod((q for _, q in kids), start=Fraction(p))))
    return shapes


def _shape_layers(shape):
    """The offspring counts of one shape's tree, top level first."""
    layers, level = [], [shape]
    while level[0] is not None:
        layers.append(np.array([k for k, _ in level]))
        level = [kid for _, kids in level for kid in kids]
    return layers


_SHAPE_LAWS = [("2:0.5,3:0.5", 3), ("1:0.5,3:0.5", 3), ("2:0.2,3:0.3,7:0.5", 2)]


@pytest.mark.parametrize("law, depth", _SHAPE_LAWS)
def test_shape_probabilities_equal_brute_force_enumeration(law, depth):
    # the product of p_k over each shape's internal vertices, against the
    # same product in fractions; 2:0.2,3:0.3,7:0.5 has about 1.1e23 depth-3
    # shapes, far past the table's cap
    dist = parse_pmf_text(law)
    for j in range(depth + 1):
        brute = _brute_shapes(dist.entries, j)
        prob = _shape_levels(dist, j)[1]
        assert prob.size == len(brute)
        for got, (_, exact) in zip(prob.tolist(), brute):
            assert abs(got - exact) <= 4 * math.ulp(float(exact))
        assert math.fsum(prob) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("law, depth", _SHAPE_LAWS)
def test_shape_values_equal_compute_beta_on_the_explicit_tree(law, depth, monkeypatch):
    # each table shape, built as its own breadth-first tree, evaluates to the
    # table's (beta, beta') bit for bit
    dist = parse_pmf_text(law)
    levels = _shape_levels(dist, depth)[0]
    lams = (0.0, 0.7, 2.5)
    values = [_shape_values(levels, lam) for lam in lams]
    for i, (shape, _) in enumerate(_brute_shapes(dist.entries, depth)):
        monkeypatch.setattr(tree_mod, "_sample_offspring_layers",
                            lambda *args, shape=shape: _shape_layers(shape))
        tree = sample_truncated_tree(dist, depth, seed=0)
        for lam, (b, db) in zip(lams, values):
            table = compute_beta(tree, depth, lam)
            assert (table.root_beta, table.root_dbeta) == (b[i], db[i])


@pytest.mark.parametrize("law, depth", _SHAPE_LAWS)
def test_alias_table_implied_probabilities_match_the_shape_law(law, depth):
    # slot i gives atom i keep[i] and its alias 1 - keep[i], over A slots
    dist = parse_pmf_text(law)
    _, keep, alias = _atom_table(dist, depth)
    prob = _shape_levels(dist, depth)[1]
    implied = (keep + np.bincount(alias, weights=1.0 - keep, minlength=keep.size)) / keep.size
    assert np.all(np.abs(implied - prob) <= 1e-12 * prob)
    assert ((0.0 < keep) & (keep <= 1.0)).all()


def test_the_alias_draw_maps_a_uniform_grid_onto_the_implied_law():
    # K midpoints a slot: each atom's share is its probability, up to one
    # grid step for its own slot and for each slot aliased to it
    class Grid:
        def random(self, size):
            return (np.arange(size) + 0.5) / size

    dist, per_slot = parse_pmf_text("2:0.5,3:0.5"), 1000
    _, keep, alias = _atom_table(dist, 2)
    prob = _shape_levels(dist, 2)[1]
    size = keep.size * per_slot
    atoms = _draw_atoms(keep, alias, Grid(), size)
    share = np.bincount(atoms, minlength=keep.size) / size
    assert np.all(np.abs(share - prob) <= (1 + np.bincount(alias, minlength=keep.size)) / size)
    assert not _draw_atoms(np.ones(1), np.zeros(1, dtype=np.intp), None, 5).any()


def _exact_atom_depth(dist, n, trees, cap):
    # the largest j <= n whose exact shape count fits the cap and the
    # expected width of level n - j
    best, shapes = 0, 1
    for j in range(1, n + 1):
        shapes = sum(shapes ** k for k, _ in dist.entries)
        if shapes > cap:
            break
        if shapes <= trees * dist.m ** (n - j):
            best = j
    return best


def test_atom_depth_is_the_deepest_table_within_the_width_and_the_cap(monkeypatch):
    for law in ("2:1", "2:0.5,3:0.5", "1:0.2,4:0.8", "1:0.5,12:0.5", "2:0.9,20:0.1"):
        dist = parse_pmf_text(law)
        for n in range(13):
            for trees in (1, 7, 251, 800):
                assert _atom_depth(dist, n, trees) == _exact_atom_depth(
                    dist, n, trees, _MAX_SHAPES), (law, n, trees)
    demo = parse_pmf_text("2:0.5,3:0.5")
    # the bench curve's two chunks: 800 trees at depth 8, 251 at depth 11
    assert _atom_depth(demo, 8, 800) == _atom_depth(demo, 11, 251) == 3
    # the cap admits a table of exactly _MAX_SHAPES shapes
    assert _atom_depth(demo, 20, 10**6) == 3
    monkeypatch.setattr(beta_mod, "_MAX_SHAPES", 1872)
    assert _atom_depth(demo, 20, 10**6) == 3
    monkeypatch.setattr(beta_mod, "_MAX_SHAPES", 1871)
    assert _atom_depth(demo, 20, 10**6) == 2


@pytest.mark.parametrize("law", ["2:0.5,3:0.5", "1:0.2,4:0.8", "2:0.3,3:0.3,4:0.4"])
def test_atom_pools_match_the_level_by_level_draw_in_law(law):
    # two independent samples of 10,000 trees: the pools' atoms against the
    # plain recursion over every drawn level; the gate, |z| <= 4 on the mean
    # of beta and of beta' at each depth and bias, was fixed before the run
    dist, lams, count = parse_pmf_text(law), (0.3, 1.0, 1.9), 10_000
    for n in (4, 6):
        assert _atom_depth(dist, n, count) >= 2
        pools = sample_pools_shared_trees(dist, lams, n, count, seed=n)
        layers = _sample_offspring_layers(dist, n, count, np.random.default_rng(n))
        for lam, pool in zip(lams, pools):
            for got, ref in zip((pool.beta, pool.dbeta), _plain_root_values(layers, lam, count)):
                z = (got.mean() - ref.mean()) / math.sqrt((got.var() + ref.var()) / count)
                assert abs(z) <= 4.0, (n, lam, z)


def test_merge_covers_whole_forest_and_stops_at_lowest_level():
    # a 2:1 forest is one shape a level, so its atoms cover every level; on
    # 1:0.5,12:0.5 the 4,098 depth-2 shapes outnumber a level of about 6.5
    # vertices, so a lone tree's atoms stop at the lowest level
    assert _atom_depth(parse_pmf_text("2:1"), 8, 50) == 8
    assert _atom_depth(parse_pmf_text("2:1"), 1, 1) == 1
    assert _atom_depth(parse_pmf_text("1:0.5,12:0.5"), 4, 1) == 1


def test_a_level_whose_code_range_exceeds_its_width_is_refused_before_any_code(monkeypatch):
    # the depth rule counts shapes, it builds none: the demo law's 12 depth-2
    # shapes exceed a lone depth-3 tree's expected 2.5 vertices at level 1,
    # and 2**40000 shapes are counted without being computed
    def never(*args, **kwargs):
        raise AssertionError("a shape table was built")

    monkeypatch.setattr(beta_mod, "_shape_levels", never)
    assert _atom_depth(parse_pmf_text("2:0.5,3:0.5"), 3, 1) == 1
    assert _atom_depth(parse_pmf_text("2:0.5,40000:0.5"), 2, 1) == 1
    assert _atom_depth(parse_pmf_text(",".join(f"{k}:0.125" for k in range(1, 9))), 1, 7) == 0


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


def test_block_sums_match_reduceat_on_special_values():
    # signed zeros, infinities and subnormals, through int32 and intp indices:
    # blocks of one value (1:1), a first rank that only some blocks have
    # (1:0.5,3:0.5), one that all have (2:0.5,3:0.5), and blocks past
    # _SEQUENTIAL_BLOCK that fall back to reduceat (1:0.3,12:0.7)
    rng = np.random.default_rng(8)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([-0.0, 0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny, 1.5, -2.25, 1e300])
    for law in ("1:1", "1:0.5,3:0.5", "2:0.5,3:0.5", "1:0.3,12:0.7"):
        counts = parse_pmf_text(law).draw_counts(rng, 3000)
        x = rng.choice(special, size=int(counts.sum()))
        index = _gather_index(rng, x.size)
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN on both sides
            _assert_block_sums_match_reduceat(x, counts, index)
            ref = np.add.reduceat(x[index], np.cumsum(counts) - counts)
            plan = _block_plan(counts, index.astype(np.int32))
            assert _block_sums(x, plan).tobytes() == ref.tobytes()


@pytest.mark.parametrize("lam", [0.0, 1e-300, 1.0, 1e200])
def test_level_step_equals_the_out_of_place_formula(lam):
    # the in-place step against s / (lam + s) and (lam * s' - s) / (lam + s)**2
    # written out of place, above the boundary and on it; at 1e200 the square
    # overflows and beta' is a signed zero
    rng = np.random.default_rng(9)
    counts = parse_pmf_text("1:0.3,2:0.3,3:0.4").draw_counts(rng, 2000)
    size = int(counts.sum())
    plan = _block_plan(counts, _gather_index(rng, size))
    b, db = rng.random(size), -rng.random(size) * 10.0 ** rng.integers(-300, 0, size)
    b[::11], db[::7] = 1.0, 0.0
    for step_plan, s, sp in ((plan, np.add.reduceat(b[plan.index], plan.off),
                              np.add.reduceat(db[plan.index], plan.off)),
                             (None, counts.astype(np.float64), 0.0)):
        denom = lam + s
        with np.errstate(over="ignore"):
            ref = s / denom, (lam * sp - s) / (denom * denom)
        got = _level_step(counts, step_plan, b, db, lam)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


def test_the_per_bias_pass_reads_intp_plans(monkeypatch):
    # shape ids and atoms are intp, so no gather of the per-bias pass
    # converts an index
    read = []

    def spy(x, plan):
        read.append(plan)
        return _block_sums(x, plan)

    monkeypatch.setattr(beta_mod, "_block_sums", spy)
    sample_pools_shared_trees(parse_pmf_text("2:0.5,3:0.5"), [0.5, 1.0], 8, 300, 4)
    sample_pools_shared_trees(parse_pmf_text("1:0.3,12:0.7"), [1.0], 4, 50, 4)
    assert read
    for plan in read:
        indices = [plan.first, *(a for rank in plan.ranks or () for a in rank
                                 if not isinstance(a, slice))]
        assert all(a.dtype == np.intp for a in indices + [plan.index] if a is not None)


def test_a_wide_block_lists_no_ranks():
    # a block of more than 8 values is summed by reduceat, which reads no
    # rank: its plan lists neither first values nor ranks (40 rank arrays a
    # tuple on 40:1 before)
    for counts in (np.array([2, 40000, 3]), np.array([9, 1])):
        plan = _block_plan(counts)
        assert plan.first is None and plan.ranks is None
        x = np.random.default_rng(7).standard_normal(int(counts.sum()))
        assert np.array_equal(_block_sums(x, plan), np.add.reduceat(x, plan.off))
    assert len(_block_plan(np.array([8, 1])).ranks) == 7


def test_forest_levels_carry_their_block_plans(monkeypatch):
    # the bias-independent plan rides on every level above the boundary, the
    # shape levels' and the drawn levels' alike, and holds a rank for every
    # child position; a law with blocks longer than 8 sums them through
    # reduceat and lists no rank
    summed = []

    class Add:  # np.add, with the blocks that its reduceat sums recorded
        def __call__(self, *args, **kwargs):
            return np.add(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np.add, name)

        def reduceat(self, x, off, *args, **kwargs):
            summed.append(off.size)
            return np.add.reduceat(x, off, *args, **kwargs)

    class Numpy:  # numpy, with np.add replaced by the recording shim
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(beta_mod, "np", Numpy())
    for law in ("2:0.3,3:0.3,4:0.4", "1:0.5,12:0.5"):
        dist = parse_pmf_text(law)
        j = _atom_depth(dist, 3, 20)
        levels = _atom_table(dist, j)[0] + _draw_forest(dist, 3, j, 20,
                                                         np.random.default_rng(3))[0]
        assert j == 1 and len(levels) == 3 and levels[0][1] is None
        for (below, _), (counts, plan) in zip(levels, levels[1:]):
            assert np.array_equal(plan.off, np.cumsum(counts) - counts)
            wide = counts.max() > 8
            assert plan.ranks is None if wide else len(plan.ranks) == counts.max() - 1
            x = np.ones(below.size)  # one value per entry of the level below
            summed.clear()
            assert np.array_equal(_block_sums(x, plan), counts)
            assert summed == ([counts.size] if wide else [])
    assert sum(plan.ranks is None for _, plan in levels[1:]) == 2


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
