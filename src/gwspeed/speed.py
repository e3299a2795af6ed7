"""Annealed speed formula, the strict-decrease inequality and curve scans.

The speed at bias lam is the ratio of two expectations over tuples
(nu, beta_0..beta_nu): numerator weight (nu-lam)*beta_0/(lam-1+sum beta_i),
denominator weight (nu+lam)*beta_0/(lam-1+sum beta_i), both evaluated as
Monte Carlo means over tuples assembled from a sample pool.

``inequality8`` evaluates the four cross moments whose combination being
below (1/lam) * E1 * E3 is equivalent to a strictly negative speed slope, and
reports the margin.

``speed_curve`` scans a bias grid with common random numbers: one tree set
and one tuple stream serve every grid point, so consecutive-point differences
are paired and the strict-decrease test is not drowned by Monte Carlo noise.

Every estimate here (the ratio, the paired difference of two ratios, the
criterion margin) is a smooth function of the means of paired per-tuple
terms, and one kernel, ``_delta``, returns it with its delta-method standard
error. A tuple pool sums its betas once, when it is built. The tuples'
layout does not depend on the bias, so ``speed_curve`` builds one block-sum
plan (``beta._block_plan``) per tuple draw and hands it to the tuple pool of
every grid point; the beta and beta' sums add in reduceat's order either
way, so the values are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .beta import BetaPool, _block_plan, _block_sums, sample_pools_shared_trees
from .errors import DegenerateTupleError, UnsupportedRegimeError, _check_bias
from .offspring import OffspringDistribution
from .rng import D_TUPLE, substream

_CERTIFIED_SLACK = 1e-12


@dataclass
class TuplePool:
    """Flattened tuples (nu_j, beta_0..beta_nu, beta'_0..beta'_nu) sharing the
    member indices of their source pool, so beta and beta' of a member always
    come from the same realization. The per-tuple beta sums and formula
    denominators lam - 1 + sum beta_i are computed once, at construction.
    ``sum_ranks`` is the rank part of the tuples' ``beta._block_plan``,
    shared by the pools of a bias grid; None sums with reduceat."""

    nus: np.ndarray       # (M,)
    offsets: np.ndarray   # (M,) exclusive starts into the member arrays
    betas: np.ndarray     # flat, length sum(nus + 1)
    dbetas: np.ndarray
    lam: float
    level: int
    sum_ranks: list | None = None
    beta_sums: np.ndarray = field(init=False)
    denominators: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta_sums = _block_sums(self.betas, self.offsets, self.sum_ranks)
        self.denominators = self.lam - 1.0 + self.beta_sums

    def __len__(self) -> int:
        return self.nus.size

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


def _bind_tuples(nus, offsets, idx, pool: BetaPool, sum_ranks=None) -> TuplePool:
    tp = TuplePool(nus=nus, offsets=offsets, betas=pool.beta[idx],
                   dbetas=pool.dbeta[idx], lam=pool.lam, level=pool.level,
                   sum_ranks=sum_ranks)
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


def _moments(terms) -> tuple[np.ndarray, np.ndarray | None]:
    """The means of the paired ``terms`` and their covariance (None for one
    tuple), by ``np.cov(x, ddof=1)``'s own steps on one stacked copy ``x``
    centred in place: bit-identical to ``np.cov`` and to each term's
    ``.mean()``, without ``np.cov``'s second copy of the data."""
    x = np.stack(terms)
    mean = x.mean(axis=1)
    m = x.shape[1]
    if m < 2:
        return mean, None
    x -= mean[:, None]
    return mean, np.dot(x, x.T.conj()) * (1.0 / (m - 1))


def _delta(terms, fn) -> tuple[list[float], float, float]:
    """The means of the paired per-tuple ``terms``, the value of ``fn`` there
    and its delta-method standard error (0 for one tuple) from the
    ``_moments`` covariance. ``fn`` maps the means to (value, gradient)."""
    mean, sigma = _moments(terms)
    means = [float(v) for v in mean]
    value, grad = fn(*means)
    if sigma is None:
        return means, value, 0.0
    m = terms[0].size
    grad = np.array(grad)
    var = float(grad @ sigma @ grad) / m
    return means, value, math.sqrt(max(var, 0.0))


def _ratio(num: float, den: float):
    """A ratio of means and its gradient: the speed."""
    r = num / den
    return r, (1.0 / den, -r / den)


def _ratio_diff(num_a: float, den_a: float, num_b: float, den_b: float):
    """Difference of two ratios of paired means: the monotonicity pair check."""
    (ra, ga), (rb, gb) = _ratio(num_a, den_a), _ratio(num_b, den_b)
    return ra - rb, (*ga, -gb[0], -gb[1])


def _speed_terms(tp: TuplePool, lam: float):
    """Per-tuple numerator/denominator weights of the speed ratio."""
    d = tp.denominators
    b0 = tp.betas[tp.offsets]
    nu = tp.nus
    return (nu - lam) * b0 / d, (nu + lam) * b0 / d


@dataclass
class FormulaSpeed:
    speed: float
    stderr: float
    lam: float
    level: int
    tuples: int


def speed_formula_mc(dist: OffspringDistribution, lam: float, pool: BetaPool,
                     tuples: int, seed: int) -> FormulaSpeed:
    """Evaluate the speed formula by Monte Carlo over tuples from ``pool``,
    with its delta-method standard error."""
    if dist.has_leaves:
        raise UnsupportedRegimeError("speed formula needs a leafless offspring law")
    if not (0.0 <= lam < dist.m):
        raise ValueError(f"bias must be in [0, m), got {lam:.9g} with m={dist.m:.9g}")
    if pool.lam != lam:
        raise ValueError(f"pool was sampled at bias {pool.lam:.9g}, not {lam:.9g}")
    tp = make_tuple_pool(dist, pool, tuples, seed)
    _, speed, stderr = _delta(_speed_terms(tp, lam), _ratio)
    return FormulaSpeed(speed=speed, stderr=stderr, lam=lam, level=pool.level,
                        tuples=tuples)


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
    criterion, and the margin with its delta-method standard error."""

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
    tp = tuple_pool
    d = tp.denominators
    sb = tp.beta_sums
    sc = sb + (1.0 - lam) * _block_sums(tp.dbetas, tp.offsets, tp.sum_ranks)
    nu = tp.nus
    w_nu = nu / (nu + 1.0)
    w_one = 1.0 / (nu + 1.0)
    f = sb / d
    g = sc / (d * d)

    def margin(e1, e2, e3, e4):
        return (e1 * e3 / lam - (e1 * e2 - e3 * e4),
                (e3 / lam - e2, -e1, e1 / lam + e4, e3))

    (e1, e2, e3, e4), value, stderr = _delta(
        (w_nu * f, w_one * g, w_one * f, w_nu * g), margin)
    lhs = e1 * e2 - e3 * e4
    rhs = e1 * e3 / lam
    return Ineq8Report(e1=e1, e2=e2, e3=e3, e4=e4, lhs=lhs, rhs=rhs,
                       margin=value, mc_stderr=stderr, holds=lhs < rhs,
                       lam=lam, tuples=len(tp))


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
    if n < 0:
        raise ValueError(f"truncation depth must be >= 0, got {n}")
    if samples < 1 or tuples < 1:
        raise ValueError(f"need samples >= 1 and tuples >= 1, got {samples} and {tuples}")
    if not (mc_steps == mc_replicas == 0 or (mc_steps >= 1 and mc_replicas >= 2)):
        raise ValueError("the walker cross-check needs steps >= 1 and replicas >= 2, "
                         f"or both 0; got {mc_steps} and {mc_replicas}")
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("empty bias grid")
    for lam in grid:
        _check_bias(lam)
    if any(b - a <= 0 for a, b in zip(grid, grid[1:])):
        raise ValueError("bias grid must be strictly increasing")
    if grid[-1] >= dist.m:
        raise ValueError(
            f"grid point {grid[-1]:.9g} is not below mean branching {dist.m:.9g}")
    if dist.has_leaves:
        raise UnsupportedRegimeError("curve scan needs a leafless offspring law")

    pools = sample_pools_shared_trees(dist, grid, n, samples, seed)
    nus, offsets, idx = _draw_tuple_indices(dist, samples, tuples, seed)
    sum_ranks = _block_plan(nus + 1)[1]

    lam_star = None
    if dist.m1 >= 2:
        lam_star = dist.monotonicity_threshold()

    points = []
    terms = []
    for pool in pools:
        lam = pool.lam
        tp = _bind_tuples(nus, offsets, idx, pool, sum_ranks)
        terms.append(_speed_terms(tp, lam))
        if lam == 0.0:
            speed, stderr = 1.0, 0.0
        else:
            _, speed, stderr = _delta(terms[-1], _ratio)
        point = SpeedCurvePoint(lam=lam, speed_formula=speed,
                                speed_formula_stderr=stderr)
        if lam > 0.0 and dist.m1 >= 2 and lam < dist.m1:
            rep = inequality8(dist, lam, tp)
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
        _, diff, se = _delta(terms[i] + terms[i + 1], _ratio_diff)
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

