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
terms. One kernel, ``_delta``, returns its value and each tuple's influence
psi, the gradient at the means dotted with the tuple's centred terms, and
``_stderr`` turns the influences into the delta-method standard error
sqrt(sum psi^2 / ((M - 1) M)). A pair of grid points needs no covariance of
its own: its influence is the difference of the two points'. A tuple pool is
its counts and the ``beta._block_plan`` of its draw (``_draw_tuples``), which
lists the members as pool indices and sums every grid point's beta and beta'
straight from the pool, in reduceat's order, so the values are bit-identical.
Callers fill the terms in place, and ``speed_curve`` keeps of the previous
point only its speed and its influences. So beyond its pools a scan's memory
does not grow with the grid, and ``speed_curve`` refuses a scan predicted over
``tree.MAX_FOREST_LEVEL_BYTES`` before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .beta import (BetaPool, _block_plan, _BlockPlan, _block_sums, _check_forest_depth,
                   sample_pools_shared_trees)
from .errors import DegenerateTupleError, UnsupportedRegimeError, _check_bias, _check_depth
from .offspring import OffspringDistribution
from .rng import D_TUPLE, substream
from .tree import _check_budget

_CERTIFIED_SLACK = 1e-12


@dataclass
class TuplePool:
    """Tuples (nu_j, beta_0..beta_nu, beta'_0..beta'_nu) held as the
    ``_draw_tuples`` plan that the pools of a bias grid share, whose
    ``index`` lists members by pool index (so a member's beta and beta' come
    from one realization) and whose ``off`` starts each tuple. The beta sums
    and denominators lam - 1 + sum beta_i are computed once, at construction,
    straight from the pool; a non-positive denominator raises
    ``DegenerateTupleError`` for the first such tuple."""

    nus: np.ndarray       # (M,)
    plan: _BlockPlan      # blocks of nus + 1 members, length sum(nus + 1)
    pool: BetaPool
    beta_sums: np.ndarray = field(init=False)
    denominators: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta_sums = self.sums(self.pool.beta)
        self.denominators = d = self.lam - 1.0 + self.beta_sums
        bad = np.flatnonzero(d <= 0.0)
        if bad.size:
            j = int(bad[0])
            raise DegenerateTupleError(j, int(self.nus[j]), float(d[j]))

    lam = property(lambda self: self.pool.lam)

    def __len__(self) -> int:
        return self.nus.size

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Per-tuple member sums of the pool values ``x``, bit for bit reduceat's."""
        return _block_sums(x, self.plan)


def _draw_tuples(dist: OffspringDistribution, pool_size: int, count: int,
                 seed: int) -> tuple[np.ndarray, _BlockPlan]:
    """Counts of ``count`` tuples and the ``beta._block_plan`` of their
    members, read through the members' pool indices."""
    rng = substream(seed, D_TUPLE, 0)
    nus = dist.draw_counts(rng, count).astype(np.int64)
    return nus, _block_plan(nus + 1, rng.integers(0, pool_size, size=int((nus + 1).sum())))


def make_tuple_pool(dist: OffspringDistribution, pool: BetaPool, count: int,
                    seed: int) -> TuplePool:
    """Assemble ``count`` tuples by drawing nu from the offspring law and
    nu+1 member pairs (with replacement) from the pool."""
    if count < 1:
        raise ValueError(f"tuple count must be >= 1, got {count}")
    return TuplePool(*_draw_tuples(dist, len(pool), count, seed), pool)


def _delta(x: np.ndarray, fn) -> tuple[list[float], float, np.ndarray]:
    """The row means of ``x`` (k paired per-tuple terms by M tuples),
    ``fn``'s value there and each tuple's influence psi = grad . (x_j - mean),
    with ``x`` centred in place; ``fn`` maps the means to (value, gradient)."""
    mean = x.mean(axis=1)
    x -= mean[:, None]
    means = [float(v) for v in mean]
    value, grad = fn(*means)
    return means, value, np.array(grad) @ x


def _stderr(psi: np.ndarray) -> float:
    """The delta-method standard error from the tuples' influences,
    sqrt(sum psi^2 / ((M - 1) M)), which is g' Sigma g / M written without
    Sigma; 0 for one tuple."""
    m = psi.size
    return math.sqrt(float(np.square(psi).sum()) / ((m - 1) * m)) if m > 1 else 0.0


def _ratio(num: float, den: float):
    """A ratio of means and its gradient: the speed."""
    r = num / den
    return r, (1.0 / den, -r / den)


def _speed_terms(tp: TuplePool, lam: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (2, M) with the per-tuple numerator/denominator weights
    (nu -+ lam) * beta_0 / (lam - 1 + sum beta_i) of the speed ratio."""
    np.subtract(tp.nus, lam, out=out[0])
    np.add(tp.nus, lam, out=out[1])
    out *= tp.pool.beta[tp.plan.first]
    out /= tp.denominators
    return out


@dataclass
class FormulaSpeed:
    speed: float
    stderr: float


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
    _, speed, psi = _delta(_speed_terms(tp, lam, np.empty((2, tuples))), _ratio)
    return FormulaSpeed(speed=speed, stderr=_stderr(psi))


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


def inequality8(dist: OffspringDistribution, lam: float,
                tuple_pool: TuplePool) -> Ineq8Report:
    """Evaluate the strict-decrease criterion at one bias from joint tuples.

    Defined for 0 < lam < m1 with m1 >= 2. The verdict is reported as is;
    nothing is asserted here.
    """
    if dist.m1 < 2:
        raise UnsupportedRegimeError(
            f"criterion needs minimum branching >= 2, got m1={dist.m1}")
    if not (0.0 < lam < dist.m1):
        raise UnsupportedRegimeError(
            f"criterion needs bias in (0, m1), got {lam:.9g} with m1={dist.m1}")
    if tuple_pool.lam != lam:
        raise ValueError(
            f"tuples were built at bias {tuple_pool.lam:.9g}, not {lam:.9g}")
    tp = tuple_pool
    d = tp.denominators
    sb = tp.beta_sums
    sc = sb + (1.0 - lam) * tp.sums(tp.pool.dbeta)
    nu = tp.nus
    w_nu = nu / (nu + 1.0)
    w_one = 1.0 / (nu + 1.0)
    f = sb / d
    g = sc / (d * d)
    x = np.empty((4, len(tp)))
    for row, (w, h) in zip(x, ((w_nu, f), (w_one, g), (w_one, f), (w_nu, g))):
        np.multiply(w, h, out=row)

    def margin(e1, e2, e3, e4):
        return (e1 * e3 / lam - (e1 * e2 - e3 * e4),
                (e3 / lam - e2, -e1, e1 / lam + e4, e3))

    (e1, e2, e3, e4), value, psi = _delta(x, margin)
    lhs = e1 * e2 - e3 * e4
    rhs = e1 * e3 / lam
    return Ineq8Report(e1=e1, e2=e2, e3=e3, e4=e4, lhs=lhs, rhs=rhs,
                       margin=value, mc_stderr=_stderr(psi), holds=lhs < rhs)


# Curve scan ----------------------------------------------------------------


@dataclass
class SpeedCurvePoint:
    lam: float
    speed_formula: float
    speed_formula_stderr: float
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


def _curve_bytes(dist: OffspringDistribution, points: int, samples: int, tuples: int) -> float:
    """Predicted bytes of a curve scan's pools (beta and beta' per sample and
    grid point) and tuple stage: 16 a member and 192 a tuple, above the
    tracemalloc peak (196 bytes a tuple on 2:0.5,3:0.5, 744 on 40:1)."""
    return 16.0 * points * samples + tuples * (16.0 * (dist.m + 1) + 192.0)


def _check_curve_size(dist: OffspringDistribution, n: int, points: int, samples: int,
                      tuples: int) -> None:
    """Refuse, before any draw, a depth-n curve scan over the memory budget."""
    _check_forest_depth(dist, n)
    _check_budget(_curve_bytes(dist, points, samples, tuples),
                  f"{points} pools of {samples} samples and {tuples} tuples")


def speed_curve(dist: OffspringDistribution, lambda_grid, n: int, samples: int,
                tuples: int, seed: int) -> SpeedCurve:
    """Scan the speed formula over a bias grid with common random numbers.

    One set of ``samples`` trees and one tuple stream are drawn once; every
    grid point re-runs the recursions on the same trees and reassembles the
    same tuples, so consecutive-point comparisons share all randomness. At
    zero bias every beta is 1, so each tuple's two terms are nu/nu and the
    point comes out as exactly 1 with stderr 0. The monotonicity verdict
    covers consecutive pairs up to the certified threshold and is refused
    when the minimum branching number is below 2.
    """
    _check_depth(n)
    if samples < 1 or tuples < 1:
        raise ValueError(f"need samples >= 1 and tuples >= 1, got {samples} and {tuples}")
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
    _check_curve_size(dist, n, len(grid), samples, tuples)

    pools = sample_pools_shared_trees(dist, grid, n, samples, seed)
    tuple_draw = _draw_tuples(dist, samples, tuples, seed)

    lam_star = dist.monotonicity_threshold() if dist.m1 >= 2 else None

    points, pairs = [], []
    terms = np.empty((2, tuples))
    for i, pool in enumerate(pools):
        lam = pool.lam
        tp = TuplePool(*tuple_draw, pool)
        _, speed, psi = _delta(_speed_terms(tp, lam, terms), _ratio)
        point = SpeedCurvePoint(lam=lam, speed_formula=speed,
                                speed_formula_stderr=_stderr(psi))
        if lam > 0.0 and dist.m1 >= 2 and lam < dist.m1:
            rep = inequality8(dist, lam, tp)
            point.ineq8_margin = rep.margin
            point.ineq8_stderr = rep.mc_stderr
            point.ineq8_holds = rep.holds
        points.append(point)
        if i:
            # the pair's influence is the difference of the two points'
            diff, se = prev_speed - speed, _stderr(prev_psi - psi)
            z = diff / se if se > 0 else (math.inf if diff != 0 else 0.0)
            within = lam_star is not None and lam <= lam_star + _CERTIFIED_SLACK
            pairs.append(PairCheck(lam_lo=grid[i - 1], lam_hi=lam, diff=diff,
                                   stderr=se, z=z, decreasing=diff > 0.0,
                                   within_certified=within))
        prev_speed, prev_psi = speed, psi

    eligible = [p for p in pairs if p.within_certified]  # none without lam_star
    verdict = all(p.decreasing for p in eligible) if eligible else None
    refused = None if lam_star else (f"minimum branching {dist.m1} is below 2; "
                                     "no certified range to test")
    return SpeedCurve(points, MonotonicityReport(lam_star, pairs, verdict, refused))

