"""Annealed speed formula, the strict-decrease inequality and curve scans.

Every estimate reads one set of per-tuple terms. For a tuple (nu, beta_0..
beta_nu) with beta sum S, beta' sum S' and c = lam - 1, let f = S/(c + S),
g = (S + (1 - lam) S')/(c + S)^2, a = nu/(nu + 1), b = 1/(nu + 1), and let
e1..e4 be the means of a f, b g, b f and a g. The speed is
(e1 - lam e3)/(e1 + lam e3): Aidekon's ratio of (nu -+ lam) beta_0/(c + S)
with beta_0 replaced by its mean S/(nu + 1) given nu and the members.
``inequality8`` reports the criterion margin e1 e3/lam - (e1 e2 - e3 e4).
As df/dlam = -g, the speed's slope is exactly -2 lam margin/(e1 + lam e3)^2
on any fixed tuples.

``speed_curve`` scans a bias grid with common random numbers: one tree set
and one tuple stream serve every grid point, so consecutive-point differences
are paired and the strict-decrease test is not drowned by Monte Carlo noise.

One kernel, ``_delta``, returns a smooth function of the term means and each
tuple's influence psi, the gradient at the means dotted with the tuple's
centred terms; ``_stderr`` turns influences into the delta-method standard
error sqrt(sum psi^2 / ((M - 1) M)), and a pair of grid points has the
difference of its points' influences. A tuple pool is its counts, their
weights and the ``beta._block_plan`` of its draw (``_draw_tuples``), which
sums every grid point's beta and beta' straight from the pool, bit for bit
as reduceat. ``speed_curve`` refills one term buffer at every grid point and
keeps of the previous point only its speed and influences, so beyond its
pools its memory does not grow with the grid; it refuses a scan predicted
over ``tree.MAX_FOREST_LEVEL_BYTES`` before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

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
    ``_draw_tuples`` draw that the pools of a bias grid share: the counts,
    their weights, and the plan whose ``index`` lists members by pool index
    (so a member's beta and beta' come from one realization) and whose
    ``off`` starts each tuple. The beta sums and denominators lam - 1 +
    sum beta_i are computed once, at construction, straight from the pool; a
    non-positive denominator raises ``DegenerateTupleError`` for the first."""

    nus: np.ndarray       # (M,)
    weights: tuple[np.ndarray, np.ndarray]  # nu/(nu+1) and 1/(nu+1), (M,) each
    plan: _BlockPlan      # blocks of nus + 1 members, length sum(nus + 1)
    pool: BetaPool
    beta_sums: np.ndarray = field(init=False)
    denominators: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta_sums = self.sums(self.pool.beta)
        self.denominators = d = self.lam - 1.0 + self.beta_sums
        if d.min() <= 0.0:
            j = int(np.flatnonzero(d <= 0.0)[0])
            raise DegenerateTupleError(j, int(self.nus[j]), float(d[j]))

    lam = property(lambda self: self.pool.lam)

    def __len__(self) -> int:
        return self.nus.size

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Per-tuple member sums of the pool values ``x``, bit for bit reduceat's."""
        return _block_sums(x, self.plan)


def _draw_tuples(dist: OffspringDistribution, pool_size: int, count: int, seed: int) -> tuple:
    """Counts of ``count`` tuples, their weights nu/(nu+1) and 1/(nu+1), and
    the ``beta._block_plan`` of their members, read through pool indices."""
    rng = substream(seed, D_TUPLE, 0)
    nus = dist.draw_counts(rng, count).astype(np.int64)
    plan = _block_plan(nus + 1, rng.integers(0, pool_size, size=int((nus + 1).sum())))
    nu1 = nus + 1.0
    return nus, (nus / nu1, 1.0 / nu1), plan


def make_tuple_pool(dist: OffspringDistribution, pool: BetaPool, count: int,
                    seed: int) -> TuplePool:
    """Assemble ``count`` tuples by drawing nu from the offspring law and
    nu+1 member pairs (with replacement) from the pool."""
    if count < 1:
        raise ValueError(f"tuple count must be >= 1, got {count}")
    return TuplePool(*_draw_tuples(dist, len(pool), count, seed), pool)


def _tuple_terms(tp: TuplePool, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the tuples' terms: with 2 rows a f and b f, which
    the speed reads, with 4 rows a f, b g, b f and a g, which the margin
    reads (the speed's are rows 0 and 2). Only 4 rows sum the beta'."""
    (a, b), d = tp.weights, tp.denominators
    f = tp.beta_sums / d
    rows = ((a, f), (b, f))
    if len(out) == 4:
        g = tp.beta_sums + (1.0 - tp.lam) * tp.sums(tp.pool.dbeta)
        g /= d * d
        rows = ((a, f), (b, g), (b, f), (a, g))
    for row, (w, h) in zip(out, rows, strict=True):
        np.multiply(w, h, out=row)
    return out


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


def _speed(lam: float, e1: float, e3: float):
    """The speed (e1 - lam e3)/(e1 + lam e3) and its gradient; at zero bias
    it is e1/e1 = 1 with gradient 0."""
    den = e1 + lam * e3
    return (e1 - lam * e3) / den, (2.0 * lam * e3 / (den * den), -2.0 * lam * e1 / (den * den))


def _margin(lam: float, e1: float, e2: float, e3: float, e4: float):
    """The criterion margin e1 e3/lam - (e1 e2 - e3 e4) and its gradient."""
    return (e1 * e3 / lam - (e1 * e2 - e3 * e4),
            (e3 / lam - e2, -e1, e1 / lam + e4, e3))


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
    _, speed, psi = _delta(_tuple_terms(tp, np.empty((2, tuples))), partial(_speed, lam))
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


def _ineq8_report(lam: float, means: list[float], margin: float, psi: np.ndarray) -> Ineq8Report:
    e1, e2, e3, e4 = means
    lhs = e1 * e2 - e3 * e4
    rhs = e1 * e3 / lam
    return Ineq8Report(e1=e1, e2=e2, e3=e3, e4=e4, lhs=lhs, rhs=rhs,
                       margin=margin, mc_stderr=_stderr(psi), holds=lhs < rhs)


def inequality8(dist: OffspringDistribution, lam: float, tuple_pool: TuplePool) -> Ineq8Report:
    """Evaluate the strict-decrease criterion at one bias from joint tuples.

    Defined for 0 < lam < m1 with m1 >= 2. The verdict is reported as is;
    nothing is asserted here. The speed is not evaluated, so a pool whose
    beta sums are all 0 still gets a report.
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
    x = _tuple_terms(tuple_pool, np.empty((4, len(tuple_pool))))
    return _ineq8_report(lam, *_delta(x, partial(_margin, lam)))


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
    tracemalloc peak's growth a tuple (172 bytes on 2:0.5,3:0.5, 760 on 40:1)."""
    return 16.0 * points * samples + tuples * (16.0 * (dist.m + 1) + 192.0)


def _check_curve_size(dist: OffspringDistribution, n: int, points: int, samples: int,
                      tuples: int) -> None:
    """Refuse, before any draw, a depth-n curve scan over the memory budget."""
    _check_forest_depth(dist, n)
    _check_budget(_curve_bytes(dist, points, samples, tuples),
                  f"{points} pools of {samples} samples and {tuples} tuples")


def speed_curve(dist: OffspringDistribution, lambda_grid, n: int, samples: int,
                tuples: int, seed: int, margins: bool = True) -> SpeedCurve:
    """Scan the speed formula over a bias grid with common random numbers.

    One set of ``samples`` trees and one tuple stream are drawn once; every
    grid point re-runs the recursions on the same trees and reassembles the
    same tuples, so consecutive-point comparisons share all randomness. At
    zero bias the speed is e1/e1 with gradient 0, so the point comes out as
    exactly 1 with stderr 0. The monotonicity verdict covers consecutive
    pairs up to the certified threshold and is refused when the minimum
    branching number is below 2. With ``margins`` false no criterion margin
    is evaluated and every point's stays None; the speeds, pairs and verdict
    are the same.
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
    terms = np.empty((4 if margins else 2, tuples))
    for i, pool in enumerate(pools):
        lam = pool.lam
        tp = TuplePool(*tuple_draw, pool)
        if margins and lam > 0.0 and dist.m1 >= 2 and lam < dist.m1:
            # one centring of the four rows serves the margin and the speed,
            # whose rows a f and b f are rows 0 and 2
            rep = _ineq8_report(lam, *_delta(_tuple_terms(tp, terms), partial(_margin, lam)))
            speed, grad = _speed(lam, rep.e1, rep.e3)
            psi = np.array(grad) @ terms[::2]
            criterion = (rep.margin, rep.mc_stderr, rep.holds)
        else:
            _, speed, psi = _delta(_tuple_terms(tp, terms[:2]), partial(_speed, lam))
            criterion = ()
        points.append(SpeedCurvePoint(lam, speed, _stderr(psi), *criterion))
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

