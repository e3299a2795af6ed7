"""Annealed speed formula, the strict-decrease inequality and curve scans.

The speed at bias lam is the ratio of two expectations over tuples
(nu, beta_0..beta_nu): numerator weight (nu-lam)*beta_0/(lam-1+sum beta_i),
denominator weight (nu+lam)*beta_0/(lam-1+sum beta_i). A symmetrized variant
replaces beta_0 by the tuple average; both are evaluated as Monte Carlo means
over tuples assembled from a sample pool, with delta-method standard errors.

``inequality8`` evaluates the four cross moments whose combination being
below (1/lam) * E1 * E3 is equivalent to a strictly negative speed slope, and
reports the margin with a tuple-resampling standard error.

``speed_curve`` scans a bias grid with common random numbers: one tree set
and one tuple stream serve every grid point, so consecutive-point differences
are paired and the strict-decrease test is not drowned by Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .beta import BetaPool, sample_pools_shared_trees
from .errors import DegenerateTupleError, UnsupportedRegimeError
from .offspring import OffspringDistribution
from .rng import D_TUPLE, substream

_CERTIFIED_SLACK = 1e-12


@dataclass
class TuplePool:
    """Flattened tuples (nu_j, beta_0..beta_nu, beta'_0..beta'_nu) sharing the
    member indices of their source pool, so beta and beta' of a member always
    come from the same realization."""

    nus: np.ndarray       # (M,)
    offsets: np.ndarray   # (M,) exclusive starts into the member arrays
    betas: np.ndarray     # flat, length sum(nus + 1)
    dbetas: np.ndarray
    lam: float
    level: int

    def __len__(self) -> int:
        return self.nus.size

    @property
    def beta_sums(self) -> np.ndarray:
        return np.add.reduceat(self.betas, self.offsets)

    @property
    def denominators(self) -> np.ndarray:
        return self.lam - 1.0 + self.beta_sums

    def tuple_at(self, j: int) -> tuple[int, np.ndarray, np.ndarray]:
        lo = int(self.offsets[j])
        hi = lo + int(self.nus[j]) + 1
        return int(self.nus[j]), self.betas[lo:hi], self.dbetas[lo:hi]


def _draw_tuple_indices(dist: OffspringDistribution, pool_size: int, count: int,
                        seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = substream(seed, D_TUPLE, 0)
    nus = dist.draw_counts(rng, count).astype(np.int64)
    sizes = nus + 1
    offsets = np.cumsum(sizes) - sizes
    idx = rng.integers(0, pool_size, size=int(sizes.sum()))
    return nus, offsets, idx


def _bind_tuples(nus, offsets, idx, pool: BetaPool) -> TuplePool:
    tp = TuplePool(nus=nus, offsets=offsets, betas=pool.beta[idx],
                   dbetas=pool.dbeta[idx], lam=pool.lam, level=pool.level)
    d = tp.denominators
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        j = int(bad[0])
        raise DegenerateTupleError(j, int(nus[j]), float(d[j]))
    return tp


def make_tuple_pool(dist: OffspringDistribution, pool: BetaPool, count: int,
                    seed: int) -> TuplePool:
    """Assemble ``count`` tuples by drawing nu from the offspring law and
    nu+1 member pairs (with replacement) from the pool."""
    if count < 1:
        raise ValueError(f"tuple count must be >= 1, got {count}")
    nus, offsets, idx = _draw_tuple_indices(dist, len(pool), count, seed)
    return _bind_tuples(nus, offsets, idx, pool)


def _ratio_with_stderr(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    # delta method for a ratio of means: with r = mean(num)/mean(den),
    # var(r) ~= (var(num) - 2 r cov(num, den) + r^2 var(den)) / (M * mean(den)^2)
    m = num.size
    mean_n = num.mean()
    mean_d = den.mean()
    r = mean_n / mean_d
    if m < 2:
        return float(r), 0.0
    cov = np.cov(num, den, ddof=1)
    var = (cov[0, 0] - 2.0 * r * cov[0, 1] + r * r * cov[1, 1]) / (m * mean_d * mean_d)
    return float(r), float(math.sqrt(max(var, 0.0)))


def _delta_stderr(terms, grad) -> float:
    """Delta-method standard error of a smooth function of the means of the
    paired per-tuple ``terms``, given its gradient there (0 for one tuple)."""
    if terms[0].size < 2:
        return 0.0
    sigma = np.cov(np.stack(terms), ddof=1)
    grad = np.array(grad)
    var = float(grad @ sigma @ grad) / terms[0].size
    return math.sqrt(max(var, 0.0))


def _speed_terms(tp: TuplePool, lam: float):
    """Per-tuple numerator/denominator weights, plain and symmetrized."""
    d = tp.denominators
    sb = tp.beta_sums
    b0 = tp.betas[tp.offsets]
    nu = tp.nus
    num = (nu - lam) * b0 / d
    den = (nu + lam) * b0 / d
    shared = sb / ((nu + 1.0) * d)
    sym_num = (nu - lam) * shared
    sym_den = (nu + lam) * shared
    return num, den, sym_num, sym_den


@dataclass
class FormulaSpeed:
    speed: float
    stderr: float
    sym_speed: float
    sym_stderr: float
    lam: float
    level: int
    tuples: int
    bootstrap_stderr: float | None = None


def speed_formula_mc(dist: OffspringDistribution, lam: float, pool: BetaPool,
                     tuples: int, seed: int, bootstrap: int = 0) -> FormulaSpeed:
    """Evaluate the speed formula by Monte Carlo over tuples from ``pool``.

    Also evaluates the symmetrized form as an internal consistency check;
    the two are different estimators of the same ratio. ``bootstrap`` > 0
    adds a resampling standard error as a slower cross-check of the
    delta-method one.
    """
    if dist.has_leaves:
        raise UnsupportedRegimeError("speed formula needs a leafless offspring law")
    if not (0.0 <= lam < dist.m):
        raise ValueError(f"bias must be in [0, m), got {lam:.9g} with m={dist.m:.9g}")
    if pool.lam != lam:
        raise ValueError(f"pool was sampled at bias {pool.lam:.9g}, not {lam:.9g}")
    tp = make_tuple_pool(dist, pool, tuples, seed)
    num, den, sym_num, sym_den = _speed_terms(tp, lam)
    speed, stderr = _ratio_with_stderr(num, den)
    sym_speed, sym_stderr = _ratio_with_stderr(sym_num, sym_den)
    boot = None
    if bootstrap > 0:
        rng = substream(seed, D_TUPLE, 1)
        m = len(tp)
        reps = np.empty(bootstrap)
        for b in range(bootstrap):
            pick = rng.integers(0, m, size=m)
            reps[b] = num[pick].mean() / den[pick].mean()
        boot = float(reps.std(ddof=1))
    return FormulaSpeed(speed=speed, stderr=stderr, sym_speed=sym_speed,
                        sym_stderr=sym_stderr, lam=lam, level=pool.level,
                        tuples=tuples, bootstrap_stderr=boot)


def speed_exact_lambda1(dist: OffspringDistribution) -> float:
    """Closed-form speed at unit bias: sum of p_k * (k-1)/(k+1).

    Evaluated in exact rational arithmetic on the stored probabilities, then
    rounded once, so pmfs with exactly representable probabilities give the
    correctly rounded value.
    """
    if dist.has_leaves:
        raise UnsupportedRegimeError("closed-form unit-bias speed needs a leafless law")
    total = sum((Fraction(p) * Fraction(k - 1, k + 1) for k, p in dist.entries),
                Fraction(0))
    return float(total)


@dataclass
class Ineq8Report:
    """The four cross moments, the two sides of the strict-decrease
    criterion, and the margin with its tuple-resampling standard error."""

    e1: float
    e2: float
    e3: float
    e4: float
    lhs: float
    rhs: float
    margin: float
    mc_stderr: float
    holds: bool
    lam: float
    tuples: int


def _ineq8_terms(tp: TuplePool, lam: float):
    d = tp.denominators
    sb = tp.beta_sums
    sc = sb + (1.0 - lam) * np.add.reduceat(tp.dbetas, tp.offsets)
    nu = tp.nus
    w_nu = nu / (nu + 1.0)
    w_one = 1.0 / (nu + 1.0)
    f = sb / d
    g = sc / (d * d)
    return w_nu * f, w_one * g, w_one * f, w_nu * g


def _ineq8_from_terms(t1, t2, t3, t4, lam: float) -> Ineq8Report:
    e1, e2, e3, e4 = (float(t.mean()) for t in (t1, t2, t3, t4))
    lhs = e1 * e2 - e3 * e4
    rhs = e1 * e3 / lam
    margin = rhs - lhs
    stderr = _delta_stderr([t1, t2, t3, t4],
                           [e3 / lam - e2, -e1, e1 / lam + e4, e3])
    return Ineq8Report(e1=e1, e2=e2, e3=e3, e4=e4, lhs=lhs, rhs=rhs,
                       margin=margin, mc_stderr=stderr, holds=lhs < rhs,
                       lam=lam, tuples=int(t1.size))


def inequality8(dist: OffspringDistribution, lam: float,
                tuple_pool: TuplePool) -> Ineq8Report:
    """Evaluate the strict-decrease criterion at one bias from joint tuples.

    Defined for 0 < lam < m1 with m1 >= 2. The verdict is reported as is;
    nothing is asserted here.
    """
    if dist.m1 < 2:
        raise UnsupportedRegimeError(
            f"criterion needs minimum branching >= 2, got m1={dist.m1}")
    if lam == 0.0:
        raise UnsupportedRegimeError("criterion is undefined at zero bias")
    if not (0.0 < lam < dist.m1):
        raise UnsupportedRegimeError(
            f"criterion needs bias in (0, m1), got {lam:.9g} with m1={dist.m1}")
    if tuple_pool.lam != lam:
        raise ValueError(
            f"tuples were built at bias {tuple_pool.lam:.9g}, not {lam:.9g}")
    t1, t2, t3, t4 = _ineq8_terms(tuple_pool, lam)
    return _ineq8_from_terms(t1, t2, t3, t4, lam)


# Curve scan ----------------------------------------------------------------


@dataclass
class SpeedCurvePoint:
    lam: float
    speed_formula: float
    speed_formula_stderr: float
    speed_mc: float | None = None
    speed_mc_stderr: float | None = None
    ineq8_margin: float | None = None
    ineq8_stderr: float | None = None
    ineq8_holds: bool | None = None


@dataclass
class PairCheck:
    lam_lo: float
    lam_hi: float
    diff: float            # speed(lam_lo) - speed(lam_hi)
    stderr: float          # paired, via common random numbers
    z: float
    decreasing: bool
    within_certified: bool


@dataclass
class MonotonicityReport:
    lambda_star: float | None
    pairs: list
    strictly_decreasing: bool | None
    refused_reason: str | None = None


@dataclass
class SpeedCurve:
    points: list
    report: MonotonicityReport
    level: int
    samples: int
    tuples: int


def speed_curve(dist: OffspringDistribution, lambda_grid, n: int, samples: int,
                tuples: int, seed: int, mc_steps: int = 0,
                mc_replicas: int = 0) -> SpeedCurve:
    """Scan the speed formula over a bias grid with common random numbers.

    One set of ``samples`` trees and one tuple stream are drawn once; every
    grid point re-runs the recursions on the same trees and reassembles the
    same tuples, so consecutive-point comparisons share all randomness. The
    zero-bias point is pinned to its exact value 1. The monotonicity verdict
    covers consecutive pairs up to the certified threshold and is refused
    when the minimum branching number is below 2.

    With mc_steps positive and mc_replicas at least 2, an independent walker
    estimate is attached to every point as a cross-check column; both zero
    leaves it off, and any other pair is refused.
    """
    if samples < 1 or tuples < 1:
        raise ValueError(f"need samples >= 1 and tuples >= 1, got {samples} and {tuples}")
    if not (mc_steps == mc_replicas == 0 or (mc_steps >= 1 and mc_replicas >= 2)):
        raise ValueError("the walker cross-check needs steps >= 1 and replicas >= 2, "
                         f"or both 0; got {mc_steps} and {mc_replicas}")
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("empty bias grid")
    if any(b - a <= 0 for a, b in zip(grid, grid[1:])):
        raise ValueError("bias grid must be strictly increasing")
    if grid[0] < 0.0:
        raise ValueError(f"bias must be >= 0, got {grid[0]:.9g}")
    if grid[-1] >= dist.m:
        raise ValueError(
            f"grid point {grid[-1]:.9g} is not below mean branching {dist.m:.9g}")
    if dist.has_leaves:
        raise UnsupportedRegimeError("curve scan needs a leafless offspring law")

    pools = sample_pools_shared_trees(dist, grid, n, samples, seed)
    nus, offsets, idx = _draw_tuple_indices(dist, samples, tuples, seed)

    lam_star = None
    if dist.m1 >= 2:
        lam_star = dist.monotonicity_threshold()

    points = []
    num_by_lam = []
    den_by_lam = []
    for pool in pools:
        lam = pool.lam
        tp = _bind_tuples(nus, offsets, idx, pool)
        num, den, _, _ = _speed_terms(tp, lam)
        num_by_lam.append(num)
        den_by_lam.append(den)
        if lam == 0.0:
            speed, stderr = 1.0, 0.0
        else:
            speed, stderr = _ratio_with_stderr(num, den)
        point = SpeedCurvePoint(lam=lam, speed_formula=speed,
                                speed_formula_stderr=stderr)
        if lam > 0.0 and dist.m1 >= 2 and lam < dist.m1:
            rep = _ineq8_from_terms(*_ineq8_terms(tp, lam), lam)
            point.ineq8_margin = rep.margin
            point.ineq8_stderr = rep.mc_stderr
            point.ineq8_holds = rep.holds
        points.append(point)

    if mc_steps > 0:
        from .walker import simulate_speed
        for point in points:
            est = simulate_speed(dist, point.lam, mc_steps, mc_replicas, seed)
            point.speed_mc = est.mean
            point.speed_mc_stderr = est.stderr

    pairs = []
    for i in range(len(grid) - 1):
        diff, se = _paired_ratio_diff(num_by_lam[i], den_by_lam[i],
                                      num_by_lam[i + 1], den_by_lam[i + 1])
        z = diff / se if se > 0 else (math.inf if diff != 0 else 0.0)
        within = lam_star is not None and grid[i + 1] <= lam_star + _CERTIFIED_SLACK
        pairs.append(PairCheck(lam_lo=grid[i], lam_hi=grid[i + 1], diff=diff,
                               stderr=se, z=z, decreasing=diff > 0.0,
                               within_certified=within))

    if dist.m1 < 2:
        report = MonotonicityReport(
            lambda_star=None, pairs=pairs, strictly_decreasing=None,
            refused_reason=f"minimum branching {dist.m1} is below 2; "
                           "no certified range to test")
    else:
        eligible = [p for p in pairs if p.within_certified]
        verdict = all(p.decreasing for p in eligible) if eligible else None
        report = MonotonicityReport(lambda_star=lam_star, pairs=pairs,
                                    strictly_decreasing=verdict)
    return SpeedCurve(points=points, report=report, level=n,
                      samples=samples, tuples=tuples)


def _paired_ratio_diff(num_a, den_a, num_b, den_b) -> tuple[float, float]:
    """Difference of two ratio estimates whose per-tuple terms are paired,
    with the delta-method standard error of the difference."""
    na, da = num_a.mean(), den_a.mean()
    nb, db = num_b.mean(), den_b.mean()
    ra, rb = na / da, nb / db
    return float(ra - rb), _delta_stderr([num_a, den_a, num_b, den_b],
                                         [1.0 / da, -ra / da, -1.0 / db, rb / db])
