import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gwspeed import (
    BetaPool,
    DegenerateTupleError,
    UnsupportedRegimeError,
    inequality8,
    make_distribution,
    make_tuple_pool,
    parse_pmf_text,
    sample_pool,
    sample_pools_shared_trees,
    simulate_speed,
    speed_curve,
    speed_exact_lambda1,
    speed_formula_mc,
)
from gwspeed import speed as speed_mod
from gwspeed.beta import MAX_FOREST_LEVEL_BYTES
from gwspeed.speed import (_CERTIFIED_SLACK, _curve_bytes, _delta, _draw_tuples, _ratio,
                           _stderr)


def constant_pool(beta, dbeta, lam, size=200):
    return BetaPool(beta=np.full(size, float(beta)),
                    dbeta=np.full(size, float(dbeta)),
                    level=0, lam=lam, method="tree")


def test_exact_unit_bias_speed(binary, mix23):
    assert speed_exact_lambda1(binary) == 1 / 3
    assert speed_exact_lambda1(mix23) == 5 / 12
    assert speed_exact_lambda1(make_distribution({1: 1.0})) == 0.0


def test_exact_unit_bias_rejects_leaves(leafy):
    with pytest.raises(UnsupportedRegimeError):
        speed_exact_lambda1(leafy)


def test_formula_with_exact_constant_pool(binary):
    # d-ary escape probability 1 - lam/d makes the formula collapse to
    # (d - lam)/(d + lam) with zero variance
    for lam in (0.25, 0.5, 1.0, 1.5):
        pool = constant_pool(1 - lam / 2, -0.5, lam)
        fs = speed_formula_mc(binary, lam, pool, 500, seed=1)
        assert fs.speed == pytest.approx((2 - lam) / (2 + lam), abs=1e-12)
        assert fs.stderr == pytest.approx(0.0, abs=1e-12)
    assert speed_formula_mc(binary, 0.5, constant_pool(0.75, -0.5, 0.5),
                            500, seed=1).speed == pytest.approx(0.6, abs=1e-12)


def test_formula_lambda_zero_is_one(mix23):
    pool = constant_pool(1.0, 0.0, 0.0)
    fs = speed_formula_mc(mix23, 0.0, pool, 400, seed=2)
    assert fs.speed == 1.0


def test_formula_matches_exact_at_unit_bias(mix23):
    pool = sample_pool(mix23, 1.0, 10, 20000, seed=3, method="tree")
    fs = speed_formula_mc(mix23, 1.0, pool, 50000, seed=3)
    assert abs(fs.speed - 5 / 12) < 3 * fs.stderr


def test_formula_agrees_with_simulation(mix23):
    lam = 0.5
    pool = sample_pool(mix23, lam, 10, 20000, seed=5, method="tree")
    fs = speed_formula_mc(mix23, lam, pool, 50000, seed=5)
    est = simulate_speed(mix23, lam, 20000, 16, seed=5)
    assert abs(fs.speed - est.mean) < 3 * np.hypot(fs.stderr, est.stderr)


def test_formula_validates_inputs(mix23, leafy):
    pool = constant_pool(0.6, -0.2, 1.0)
    with pytest.raises(UnsupportedRegimeError):
        speed_formula_mc(leafy, 1.0, pool, 100, seed=1)
    with pytest.raises(ValueError):
        speed_formula_mc(mix23, 2.5, constant_pool(0.6, -0.2, 2.5), 100, seed=1)
    with pytest.raises(ValueError, match="pool"):
        speed_formula_mc(mix23, 0.5, pool, 100, seed=1)  # pool at bias 1


@pytest.mark.parametrize("law", ["2:0.5,3:0.5", "2:0.3,5:0.7"])
def test_delta_stderr_is_calibrated_at_unit_bias(law):
    # at unit bias the depth-n speed is exactly sum p_k (k-1)/(k+1) at every
    # depth, so the z-scores of 200 independent estimates against it must
    # look standard normal. Bands fixed before any run: the SD within
    # +-5 standard errors of an SD over 200 values, the mean within
    # 4/sqrt(200)
    dist = parse_pmf_text(law)
    exact = speed_exact_lambda1(dist)
    z = []
    for seed in range(200):
        pool = sample_pool(dist, 1.0, 3, 200, seed=seed)
        fs = speed_formula_mc(dist, 1.0, pool, 4000, seed=seed)
        z.append((fs.speed - exact) / fs.stderr)
    assert 0.75 <= np.std(z, ddof=1) <= 1.25
    assert abs(np.mean(z)) <= 0.28


def test_delta_kernel_ratio_stderr_matches_closed_form():
    # the delta method for a ratio of means, written out: with
    # r = mean(num)/mean(den), var(r) ~= (var num - 2 r cov(num, den)
    # + r^2 var den) / (M mean(den)^2)
    rng = np.random.default_rng(20)
    for m in (2, 3, 50, 5000):
        den = rng.uniform(0.5, 2.0, m)
        num = 0.4 * den + rng.normal(0.0, 0.3, m)
        means, r, psi = _delta(np.stack((num, den)), _ratio)
        se = _stderr(psi)
        assert means == [num.mean(), den.mean()]
        assert r == num.mean() / den.mean()
        c = np.cov(num, den, ddof=1)
        var = (c[0, 0] - 2 * r * c[0, 1] + r * r * c[1, 1]) / (m * den.mean() ** 2)
        assert se == pytest.approx(np.sqrt(var), rel=1e-12, abs=0.0)


def test_single_tuple_estimates_have_zero_stderr(mix23):
    pool = sample_pool(mix23, 0.5, 4, 50, seed=21, method="tree")
    fs = speed_formula_mc(mix23, 0.5, pool, 1, seed=21)
    assert fs.stderr == 0.0
    assert inequality8(mix23, 0.5, make_tuple_pool(mix23, pool, 1, seed=21)).mc_stderr == 0.0
    curve = speed_curve(mix23, [0.0, 0.4, 0.8], n=4, samples=50, tuples=1, seed=21)
    for point in curve.points:
        assert point.speed_formula_stderr == 0.0
        assert point.ineq8_stderr == (None if point.lam == 0.0 else 0.0)
    for pair in curve.report.pairs:
        assert pair.stderr == 0.0
    assert curve.report.pairs[1].diff == (curve.points[1].speed_formula
                                          - curve.points[2].speed_formula)


def test_degenerate_denominator_raises():
    # nu = 1 tuples with tiny betas push lam - 1 + sum below zero
    path = make_distribution({1: 1.0})
    pool = constant_pool(0.3, -0.1, 0.1)
    with pytest.raises(DegenerateTupleError):
        make_tuple_pool(path, pool, 50, seed=1)
    # the error names the first bad tuple of a mixed draw
    law = make_distribution({1: 0.5, 2: 0.5})
    pool = BetaPool(beta=np.linspace(0.01, 0.9, 200), dbeta=np.full(200, -0.1),
                    level=0, lam=0.1, method="tree")
    nus, plan = _draw_tuples(law, 200, 500, 3)
    d = 0.1 - 1.0 + np.add.reduceat(pool.beta[plan.index], plan.off)
    j = int(np.flatnonzero(d <= 0.0)[0])
    assert j > 0
    with pytest.raises(DegenerateTupleError) as err:
        make_tuple_pool(law, pool, 500, seed=3)
    assert (err.value.index, err.value.nu, err.value.denominator) == (j, nus[j], d[j])


def test_tuple_pool_structure(mix23):
    pool = sample_pool(mix23, 1.0, 6, 2000, seed=8, method="tree")
    tp = make_tuple_pool(mix23, pool, 300, seed=8)
    assert len(tp) == 300
    # tuple j lists its nu_j + 1 members as pool indices from plan.off[j] on
    index, off = tp.plan.index, tp.plan.off
    assert (tp.nus + 1).sum() == index.size
    assert np.array_equal(off, np.cumsum(tp.nus + 1) - (tp.nus + 1))
    assert ((0 <= index) & (index < len(pool))).all()
    assert np.array_equal(tp.beta_sums, np.add.reduceat(pool.beta[index], off))
    assert (tp.denominators > 0).all()


def test_tuple_denominator_floor(mix23):
    # lam - 1 + sum beta >= m1 - lam/m1 over a large tuple draw; the shared
    # trees give each bias the pool sample_pool would draw on its own
    for pool in sample_pools_shared_trees(mix23, (0.5, 1.1), 10, 20000, seed=9):
        tp = make_tuple_pool(mix23, pool, 1_000_000, seed=9)
        assert float(tp.denominators.min()) >= 2 - pool.lam / 2


def test_inequality8_exact_binary_unit_bias(binary):
    # with constant beta = 1/2, beta' = -1/2: lhs = 0 and rhs = 2/9
    tp = make_tuple_pool(binary, constant_pool(0.5, -0.5, 1.0), 2000, seed=10)
    rep = inequality8(binary, 1.0, tp)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2 / 9, abs=1e-12)
    assert rep.holds and rep.margin == pytest.approx(2 / 9, abs=1e-12)
    # exact moments via rational arithmetic
    assert rep.e1 == pytest.approx(2 / 3, abs=1e-12)
    assert rep.e3 == pytest.approx(1 / 3, abs=1e-12)


def test_inequality8_exact_binary_half_bias(binary):
    # beta = 3/4, beta' = -1/2 at lam = 1/2: moments are 6/7, 8/49, 3/7, 16/49
    tp = make_tuple_pool(binary, constant_pool(0.75, -0.5, 0.5), 2000, seed=11)
    rep = inequality8(binary, 0.5, tp)
    exact = {
        "e1": Fraction(6, 7), "e2": Fraction(8, 49),
        "e3": Fraction(3, 7), "e4": Fraction(16, 49),
    }
    for name, frac in exact.items():
        assert getattr(rep, name) == pytest.approx(float(frac), abs=1e-12)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(float(Fraction(36, 49)), abs=1e-12)
    assert rep.holds and rep.margin > 0


def test_inequality8_regime_validation(mix23):
    pool = constant_pool(0.6, -0.3, 1.0)
    tp = make_tuple_pool(mix23, pool, 200, seed=12)
    with pytest.raises(UnsupportedRegimeError):
        inequality8(make_distribution({1: 0.5, 3: 0.5}), 1.0, tp)
    with pytest.raises(UnsupportedRegimeError):
        inequality8(mix23, 0.0, tp)
    with pytest.raises(UnsupportedRegimeError):
        inequality8(mix23, 2.0, tp)
    with pytest.raises(ValueError, match="bias"):
        inequality8(mix23, 0.5, tp)  # tuples built at bias 1


def test_inequality8_reported_above_threshold(mix23):
    # above the certified threshold the verdict is reported, not asserted
    lam = 1.5  # between lambda_star (1.1716) and m1 = 2
    pool = sample_pool(mix23, lam, 8, 4000, seed=13, method="tree")
    tp = make_tuple_pool(mix23, pool, 5000, seed=13)
    rep = inequality8(mix23, lam, tp)
    assert isinstance(rep.holds, bool)


def test_curve_deterministic_binary(binary):
    grid = [0.25 * i for i in range(7)]
    curve = speed_curve(binary, grid, n=8, samples=40, tuples=400, seed=14)
    for point in curve.points:
        assert point.speed_formula == pytest.approx(
            (2 - point.lam) / (2 + point.lam), abs=1e-12)
    assert curve.report.strictly_decreasing is True
    assert curve.report.lambda_star == pytest.approx(1.1715729, abs=1e-6)


def test_equal_speeds_are_not_a_decrease(mix23):
    # at biases 0 and 1e-17 every formula term is the same float, so the
    # first pair's difference is exactly 0.0: an eligible pair that does not
    # decrease, which makes the verdict False
    curve = speed_curve(mix23, [0.0, 1e-17, 0.5], 3, 64, 500, 1)
    tie, step = curve.report.pairs
    assert tie.within_certified and tie.diff == 0.0
    assert tie.decreasing is False
    assert step.within_certified and step.decreasing is True
    assert curve.report.strictly_decreasing is False


def test_curve_mix_verdict_and_margins(mix23):
    grid = [round(0.13 * i, 10) for i in range(10)]  # 0 .. 1.17
    curve = speed_curve(mix23, grid, n=8, samples=1500, tuples=20000, seed=15)
    rep = curve.report
    assert rep.strictly_decreasing is True
    assert all(p.z > 3 for p in rep.pairs)
    for point in curve.points[1:]:
        assert point.ineq8_holds is True
        assert point.ineq8_margin > 3 * point.ineq8_stderr
    assert curve.points[0].speed_formula == 1.0
    assert curve.points[0].ineq8_margin is None


def test_curve_crn_pairing_beats_independent_runs(mix23):
    grid = [0.5, 0.6]
    curve = speed_curve(mix23, grid, n=6, samples=2000, tuples=20000, seed=16)
    pair = curve.report.pairs[0]
    a, b = curve.points
    unpaired = np.hypot(a.speed_formula_stderr, b.speed_formula_stderr)
    assert pair.stderr < unpaired / 3
    assert pair.diff == pytest.approx(a.speed_formula - b.speed_formula)


def test_curve_validates_grid(mix23):
    with pytest.raises(ValueError):
        speed_curve(mix23, [], 4, 10, 10, seed=1)
    with pytest.raises(ValueError):
        speed_curve(mix23, [0.5, 0.5], 4, 10, 10, seed=1)
    with pytest.raises(ValueError):
        speed_curve(mix23, [0.0, 2.5], 4, 10, 10, seed=1)
    with pytest.raises(ValueError):
        speed_curve(mix23, [-0.1, 0.5], 4, 10, 10, seed=1)


def test_curve_refuses_verdict_for_small_m1():
    dist = make_distribution({1: 0.5, 4: 0.5})
    curve = speed_curve(dist, [0.0, 0.2, 0.4], n=5, samples=300,
                        tuples=2000, seed=17)
    assert curve.report.strictly_decreasing is None
    assert "below 2" in curve.report.refused_reason
    assert curve.points[1].ineq8_margin is None


@pytest.mark.parametrize("n", [0, 1, 3, 6])
@pytest.mark.parametrize("pmf", ["2:1", "2:0.5,3:0.5", "1:0.5,4:0.5", "1:0.5,12:0.5",
                                 "2:0.3,3:0.3,4:0.4"])
def test_zero_bias_speed_is_exactly_one(pmf, n):
    # every beta is S/(0 + S) = 1, so each tuple's two terms are nu/nu = 1.0
    # and the delta method has nothing to spread: +0.0, with no special case
    dist = parse_pmf_text(pmf)
    pools = [sample_pool(dist, 0.0, n, 20, seed=n, method=method)
             for method in ("tree", "population")]
    for tuples in (1, 2, 1000):
        point = speed_curve(dist, [0.0], n, 20, tuples, seed=n).points[0]
        estimates = [(point.speed_formula, point.speed_formula_stderr)]
        for pool in pools:
            fs = speed_formula_mc(dist, 0.0, pool, tuples, seed=n)
            estimates.append((fs.speed, fs.stderr))
        for speed, stderr in estimates:
            assert speed == 1.0
            assert stderr == 0.0 and math.copysign(1.0, stderr) == 1.0


def test_curve_determinism(mix23):
    grid = [0.0, 0.4, 0.8]
    a = speed_curve(mix23, grid, n=6, samples=400, tuples=4000, seed=19)
    b = speed_curve(mix23, grid, n=6, samples=400, tuples=4000, seed=19)
    for pa, pb in zip(a.points, b.points):
        assert pa.speed_formula == pb.speed_formula
        assert pa.ineq8_margin == pb.ineq8_margin


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("m", [2, 3, 1000, 50000])
def test_delta_influences_match_the_plain_expressions(k, m):
    rng = np.random.default_rng(1000 * k + m)
    for _ in range(5):
        terms = [rng.standard_normal(m) * 10.0 ** rng.integers(-6, 6) + rng.random()
                 for _ in range(k)]
        grad = tuple(rng.standard_normal(k))
        x = np.stack(terms)
        means, value, psi = _delta(x, lambda *e: (sum(e), grad))
        mean = np.stack(terms).mean(axis=1)
        assert means == [float(v) for v in mean] == [float(t.mean()) for t in terms]
        assert value == sum(means)
        assert np.array_equal(x, np.stack(terms) - mean[:, None])  # centred in place
        assert np.array_equal(psi, np.array(grad) @ (np.stack(terms) - mean[:, None]))
        assert _stderr(psi) == math.sqrt(float(np.sum(psi ** 2)) / ((m - 1) * m))


def test_stderr_of_one_tuple_is_zero():
    means, _, psi = _delta(np.array([[2.0], [3.0]]), _ratio)
    assert means == [2.0, 3.0] and psi.tolist() == [0.0]
    assert _stderr(psi) == 0.0


def _pair_stderr_exact(a, b):
    """The delta-method stderr of mean(a0)/mean(a1) - mean(b0)/mean(b1) over
    paired rows, g' Sigma g / M with the sample covariance Sigma, in exact
    rationals from the float terms; only the final square root is in float."""
    m = a.shape[1]
    rows = [[Fraction(float(v)) for v in row] for row in (*a, *b)]
    means = [sum(row) / m for row in rows]
    centred = [[v - mu for v in row] for row, mu in zip(rows, means)]
    ra, rb = means[0] / means[1], means[2] / means[3]
    grad = (1 / means[1], -ra / means[1], -1 / means[3], rb / means[3])
    var = sum(gk * gl * sum(u * v for u, v in zip(ck, cl))
              for gk, ck in zip(grad, centred) for gl, cl in zip(grad, centred))
    return math.sqrt(var / ((m - 1) * m))


def test_pair_stderr_matches_exact_arithmetic():
    # two nearly equal ratio points, as on a fine bias grid: the pair's
    # variance is a tiny difference of large covariance terms, which the
    # influence difference psi_a - psi_b computes without cancellation.
    # Gate fixed before any run: relative error <= 1e-8
    rng = np.random.default_rng(30)
    m, delta = 200, 1e-7
    for _ in range(5):
        den = rng.uniform(0.5, 2.0, m)
        a = np.stack((0.4 * den + rng.normal(0.0, 0.3, m), den))
        b = a * (1.0 + delta * rng.standard_normal((2, m)))
        exact = _pair_stderr_exact(a, b)
        psi_a, psi_b = _delta(a.copy(), _ratio)[2], _delta(b.copy(), _ratio)[2]
        assert _stderr(psi_a - psi_b) == pytest.approx(exact, rel=1e-8, abs=0.0)


def _flat_reference_curve(dist, grid, n, samples, tuples, seed):
    """speed_curve's floats the plain way: flat member gathers, reduceat
    sums, np.stack'ed terms and each tuple's influence, a pair's being the
    difference of its points'."""
    def delta(terms, fn):
        x = np.stack(terms)
        value, grad = fn(*[float(v) for v in x.mean(axis=1)])
        return value, np.array(grad) @ (x - x.mean(axis=1)[:, None])

    def stderr(psi):
        m = psi.size
        return math.sqrt(float(np.sum(psi ** 2)) / ((m - 1) * m)) if m > 1 else 0.0

    pools = sample_pools_shared_trees(dist, grid, n, samples, seed)
    nus, plan = _draw_tuples(dist, samples, tuples, seed)
    offsets, idx = plan.off, plan.index
    points, speeds = [], []
    for pool in pools:
        lam = pool.lam
        betas, dbetas = pool.beta[idx], pool.dbeta[idx]
        sb = np.add.reduceat(betas, offsets)
        d = lam - 1.0 + sb
        b0 = betas[offsets]
        speed, psi = delta(((nus - lam) * b0 / d, (nus + lam) * b0 / d), _ratio)
        speeds.append((speed, psi))
        point = (1.0, 0.0) if lam == 0.0 else (speed, stderr(psi))
        if 0.0 < lam < dist.m1 and dist.m1 >= 2:
            sc = sb + (1.0 - lam) * np.add.reduceat(dbetas, offsets)
            w_nu, w_one = nus / (nus + 1.0), 1.0 / (nus + 1.0)
            f, g = sb / d, sc / (d * d)
            margin, psi = delta((w_nu * f, w_one * g, w_one * f, w_nu * g), lambda e1, e2, e3, e4: (
                e1 * e3 / lam - (e1 * e2 - e3 * e4), (e3 / lam - e2, -e1, e1 / lam + e4, e3)))
            point += (margin, stderr(psi))
        points.append(point)
    pairs = [(sa - sb, stderr(pa - pb)) for (sa, pa), (sb, pb) in zip(speeds, speeds[1:])]
    return points, pairs


@pytest.mark.parametrize("law, grid", [
    ("2:0.5,3:0.5", [0.0, 0.3, 0.6, 0.9, 1.17]),
    ("2:0.3,3:0.3,4:0.4", [0.0, 0.4, 0.8, 1.2]),
    ("1:0.5,12:0.5", [0.0, 0.3, 0.6, 0.9]),  # 13-member tuples: reduceat
])
@pytest.mark.parametrize("tuples", [1, 2, 777, 4000])
def test_curve_matches_flat_reference(law, grid, tuples):
    # the pool-indexed plan, the in-place terms and the carried influences
    # must give every float of the plain computation bit for bit
    dist = parse_pmf_text(law)
    for seed in (31, 32):
        curve = speed_curve(dist, grid, n=4, samples=60, tuples=tuples, seed=seed)
        points, pairs = _flat_reference_curve(dist, grid, 4, 60, tuples, seed)
        for point, ref in zip(curve.points, points, strict=True):
            got = (point.speed_formula, point.speed_formula_stderr)
            if point.ineq8_margin is not None:
                got += (point.ineq8_margin, point.ineq8_stderr)
            assert got == ref
        assert [(p.diff, p.stderr) for p in curve.report.pairs] == pairs


def test_curve_tuple_memory_does_not_grow_with_the_grid(mix23):
    # only the current point's terms and the previous point's influences are
    # kept, so beyond its pools the scan's peak is the same for 14 and for 56
    # grid points
    def peak_beyond_pools(points):
        grid = [1.1 * i / points for i in range(points)]
        tracemalloc.start()
        try:
            speed_curve(mix23, grid, n=2, samples=20, tuples=20000, seed=22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - 16 * points * 20

    assert peak_beyond_pools(56) <= peak_beyond_pools(14) + 20000 * 8


def test_curve_size_predictor(mix23):
    assert _curve_bytes(mix23, 14, 2000, 50_000) < 2**24  # the README curve
    assert _curve_bytes(mix23, 14, 2000, 10**9) > MAX_FOREST_LEVEL_BYTES
    assert _curve_bytes(mix23, 10**5, 2000, 50_000) > MAX_FOREST_LEVEL_BYTES
    assert _curve_bytes(mix23, 10**5, 1000, 50_000) < MAX_FOREST_LEVEL_BYTES


def test_curve_refuses_an_over_budget_size_before_any_draw(mix23, monkeypatch):
    asked = []

    def predict(*args):
        asked.append(args)
        return MAX_FOREST_LEVEL_BYTES + 1.0

    def never(*args, **kwargs):
        raise AssertionError("a pool was drawn")

    monkeypatch.setattr(speed_mod, "_curve_bytes", predict)
    monkeypatch.setattr(speed_mod, "sample_pools_shared_trees", never)
    with pytest.raises(ValueError, match="GiB limit"):
        speed_curve(mix23, [0.0, 0.5, 1.0], 3, 40, 500, seed=1)
    assert asked == [(mix23, 3, 40, 500)]


def _curve_with_speeds(dist, speeds, monkeypatch):
    # every tuple's speed terms are (speed, 1), so each grid point's formula
    # speed is the given one, with stderr 0
    def fill(tp, lam, out):
        out[0], out[1] = speeds[lam], 1.0
        return out

    monkeypatch.setattr(speed_mod, "_speed_terms", fill)
    return speed_curve(dist, list(speeds), 2, 16, 50, seed=1)


def test_an_increase_just_past_the_certified_end_is_not_judged(mix23, monkeypatch):
    # the one increasing pair ends one ulp past lambda* + _CERTIFIED_SLACK, so
    # only the decreasing pair below it is eligible
    end = float(np.nextafter(mix23.monotonicity_threshold() + _CERTIFIED_SLACK, np.inf))
    rep = _curve_with_speeds(mix23, {0.5: 0.6, 1.0: 0.4, end: 0.5}, monkeypatch).report
    assert [(p.decreasing, p.within_certified) for p in rep.pairs] == [(True, True),
                                                                      (False, False)]
    assert rep.strictly_decreasing is True


@pytest.mark.parametrize("slack", [0.0, _CERTIFIED_SLACK])
def test_an_increase_ending_at_the_certified_end_is_a_violation(mix23, monkeypatch, slack):
    end = mix23.monotonicity_threshold() + slack
    rep = _curve_with_speeds(mix23, {0.5: 0.6, 1.0: 0.4, end: 0.5}, monkeypatch).report
    assert [(p.decreasing, p.within_certified) for p in rep.pairs] == [(True, True),
                                                                      (False, True)]
    assert rep.strictly_decreasing is False


def test_a_grid_past_the_certified_end_gives_no_verdict(mix23):
    lam_star = mix23.monotonicity_threshold()
    assert 1.2 > lam_star
    rep = speed_curve(mix23, [1.2, 1.5, 1.9], 3, 50, 500, seed=2).report
    assert (rep.lambda_star, rep.refused_reason) == (lam_star, None)
    assert not any(p.within_certified for p in rep.pairs)
    assert rep.strictly_decreasing is None


def test_inequality8_does_not_hold_at_equality(mix23):
    # a pool of zero betas makes every beta sum 0, so e1 = e3 = 0 and
    # lhs = rhs = 0 exactly: the strict criterion does not hold
    lam = 1.5  # every denominator is lam - 1 = 0.5
    tp = make_tuple_pool(mix23, constant_pool(0.0, -0.3, lam), 500, seed=3)
    assert not tp.beta_sums.any()
    rep = inequality8(mix23, lam, tp)
    assert rep.lhs == rep.rhs == 0.0
    assert rep.holds is False


def test_a_tuple_count_below_one_is_refused(mix23):
    with pytest.raises(ValueError, match=r"^tuple count must be >= 1, got 0$"):
        make_tuple_pool(mix23, constant_pool(0.6, -0.3, 1.0), 0, seed=1)
