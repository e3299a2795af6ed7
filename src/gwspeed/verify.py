"""Named verification suites behind the CLI ``verify`` subcommand.

Each suite returns a list of check results; rendering is plain text with one
line per check and numbers at 9 significant digits, so a fixed (pmf, seed)
pair reproduces the report byte for byte. Monte Carlo checks in these suites
use a 4 sigma gate: they run at user-chosen seeds, where the pinned-seed
3 sigma acceptance gate would fail spuriously about once per hundred checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beta import (beta_derivative_path_sum, check_bounds, compute_beta,
                   sample_pools_shared_trees)
from .errors import UnsupportedRegimeError, VerificationError
from .network import (build_conductances, conductance_sandwich,
                      effective_conductance_to_level, regular_escape_probability,
                      regular_return_gf)
from .offspring import OffspringDistribution
from .speed import make_tuple_pool, speed_curve, speed_exact_lambda1
from .tree import attach_star_root, sample_truncated_tree
from .walker import hitting_beta_mc, lemma0_compare

_MC_GATE = 4.0


@dataclass
class CheckResult:
    ok: bool
    name: str
    detail: str


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def suite_bounds(dist: OffspringDistribution, seed: int) -> list[CheckResult]:
    """Sample-level envelope, derivative and denominator bounds on tree pools."""
    out = []
    m1, m2 = dist.m1, dist.m2
    lams = [0.125 * m1, 0.25 * m1, 0.5 * m1, 0.55 * m1]
    n, count = 10, 3000
    pools = sample_pools_shared_trees(dist, lams, n, count, seed)
    for pool in pools:
        rep = check_bounds(pool, m1, m2, pool.lam)
        detail = (f"lambda={_fmt(pool.lam)} samples={count} "
                  f"envelope={rep.envelope_violations} "
                  f"derivative={rep.derivative_violations} "
                  f"denominator={rep.denominator_violations}")
        out.append(CheckResult(rep.ok, "bounds/pool", detail))
        if pool.lam < m1:
            tp = make_tuple_pool(dist, pool, 20000, seed)
            dmin = float(tp.denominators.min())
            thr = m1 - pool.lam / m1
            out.append(CheckResult(
                dmin >= thr, "bounds/tuple-denominator",
                f"lambda={_fmt(pool.lam)} min={_fmt(dmin)} floor={_fmt(thr)}"))
    return out


def suite_oracles(dist: OffspringDistribution, seed: int) -> list[CheckResult]:
    """Cross-checks between the recursion, the network reduction, the
    derivative path sum, finite differences and Monte Carlo hitting."""
    out = []
    m1 = dist.m1
    lams = [0.25 * m1, 0.5 * m1, 0.75 * m1]

    worst_pair = 0.0
    worst_deriv = 0.0
    for i in range(20):
        tree = sample_truncated_tree(dist, 6, seed=seed + i)
        attach_star_root(tree)
        for n in (1, 3, 6):
            for lam in lams:
                table = compute_beta(tree, n, lam)
                cond = effective_conductance_to_level(
                    build_conductances(tree, lam), n)
                worst_pair = max(worst_pair,
                                 abs(table.root_beta - cond) / table.root_beta)
                ps = beta_derivative_path_sum(table)
                scale = max(1.0, abs(ps))
                worst_deriv = max(worst_deriv,
                                  abs(table.root_dbeta - ps) / scale)
    out.append(CheckResult(worst_pair <= 1e-12, "oracles/beta-vs-conductance",
                           f"trees=20 worst_rel={worst_pair:.3e}"))
    out.append(CheckResult(worst_deriv <= 1e-12, "oracles/derivative-vs-path-sum",
                           f"trees=20 worst_rel={worst_deriv:.3e}"))

    tree = sample_truncated_tree(dist, 8, seed=seed + 101)
    h = 1e-4
    worst_fd = 0.0
    for lam in lams:
        table = compute_beta(tree, 8, lam)
        up = compute_beta(tree, 8, lam + h).root_beta
        dn = compute_beta(tree, 8, lam - h).root_beta
        worst_fd = max(worst_fd, abs((up - dn) / (2 * h) - table.root_dbeta))
    out.append(CheckResult(worst_fd <= 1e-5, "oracles/finite-difference",
                           f"h=0.0001 worst_abs={worst_fd:.3e}"))

    worst_quad = 0.0
    for d in (dist.m1, dist.m2):
        for lam in np.linspace(0.0, 1.5 * d, 10):
            for z in np.linspace(0.1, 1.0, 5):
                u = regular_return_gf(d, float(lam), float(z))
                resid = abs(u - (lam / (lam + d)) * z - (d / (lam + d)) * z * u * u)
                worst_quad = max(worst_quad, resid)
    out.append(CheckResult(worst_quad <= 1e-12, "oracles/return-gf-quadratic",
                           f"grid=100 worst_resid={worst_quad:.3e}"))
    comp = max(abs(regular_return_gf(d, lam, 1.0)
                   + regular_escape_probability(d, lam) - 1.0)
               for d in (2, 3, 5) for lam in (0.0, 0.5, 1.0, 2.0, 4.0))
    out.append(CheckResult(comp == 0.0, "oracles/gf-escape-complement",
                           f"worst_abs={comp:.3e}"))

    sandwich_ok, sandwich_detail = True, "trees=25 ordering held"
    for i in range(25):
        tree = sample_truncated_tree(dist, 5, seed=seed + 300 + i)
        try:
            low, mid, high = conductance_sandwich(tree, 0.5 * m1, 5)
        except VerificationError as exc:
            sandwich_ok, sandwich_detail = False, f"tree={i} {exc}"
            break
        # conductance_sandwich allows float slack; this check does not
        if not low <= mid <= high:
            sandwich_ok = False
            sandwich_detail = (f"tree={i} ordering held only within float slack: "
                               f"{low:.17g} <= {mid:.17g} <= {high:.17g}")
            break
    out.append(CheckResult(sandwich_ok, "oracles/conductance-sandwich",
                           sandwich_detail))

    worst_z = 0.0
    for j, (n, lam) in enumerate(((2, 0.25 * m1), (4, 0.5 * m1), (6, 0.75 * m1))):
        tree = sample_truncated_tree(dist, n, seed=seed + 400 + j)
        b = compute_beta(tree, n, lam).root_beta
        est = hitting_beta_mc(tree, lam, n, 4000, seed=seed + 500 + j)
        sig = float(np.sqrt(b * (1.0 - b) / 4000)) or 1e-300
        worst_z = max(worst_z, abs(est.estimate - b) / sig)
    out.append(CheckResult(worst_z < _MC_GATE, "oracles/hitting-mc",
                           f"combos=3 worst_z={_fmt(worst_z)} gate={_fmt(_MC_GATE)}"))
    return out


def suite_lemma0(dist: OffspringDistribution, seed: int) -> list[CheckResult]:
    """Speed agreement between the bare tree and its parent-extended variant."""
    out = []
    for lam in (0.25 * dist.m1, 0.5 * dist.m1, 0.9 * dist.m1):
        est_t, est_s, z = lemma0_compare(dist, lam, 20000, 16, seed)
        out.append(CheckResult(
            z < _MC_GATE, "lemma0/speed-match",
            f"lambda={_fmt(lam)} T={_fmt(est_t.mean)} Tstar={_fmt(est_s.mean)} "
            f"z={_fmt(z)} gate={_fmt(_MC_GATE)}"))
    return out


def suite_monotonicity(dist: OffspringDistribution, seed: int) -> list[CheckResult]:
    """Strict decrease of the formula speed over the certified bias range,
    checked at two truncation depths, plus the criterion margins."""
    if dist.m1 < 2:
        return [CheckResult(True, "monotonicity/skipped",
                            f"m1={dist.m1} below 2; no certified range")]
    lam_star = dist.monotonicity_threshold()
    grid = [lam_star * i / 13 for i in range(14)]
    out = []
    for n, count in ((7, 600), (10, 600)):
        curve = speed_curve(dist, grid, n, count, 10000, seed)
        rep = curve.report
        out.append(CheckResult(
            bool(rep.strictly_decreasing), "monotonicity/strict-decrease",
            f"depth={n} pairs={len(rep.pairs)} "
            f"min_pair_z={_fmt(min(p.z for p in rep.pairs))}"))
        margins = [(p.lam, p.ineq8_margin, p.ineq8_stderr)
                   for p in curve.points if p.ineq8_margin is not None]
        ok = all(m > 3.0 * s for _, m, s in margins)
        # a one-point law's pool is one number, so a stderr can be exactly 0
        worst = min(m / s if s > 0 else (math.inf if m != 0 else 0.0)
                    for _, m, s in margins)
        out.append(CheckResult(
            ok, "monotonicity/criterion-margin",
            f"depth={n} points={len(margins)} min_margin_over_stderr={_fmt(worst)}"))
    ex1 = speed_exact_lambda1(dist)
    near = min(grid[1:], key=lambda g: abs(g - 1.0))
    out.append(CheckResult(True, "monotonicity/unit-bias-reference",
                           f"exact_speed_at_1={_fmt(ex1)} nearest_grid={_fmt(near)}"))
    return out


SUITES = {"bounds": suite_bounds, "oracles": suite_oracles, "lemma0": suite_lemma0,
          "monotonicity": suite_monotonicity}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, dist: OffspringDistribution, seed: int) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         f"{', '.join(SUITE_NAMES + ('all',))}")
    if dist.has_leaves:
        raise UnsupportedRegimeError("verify needs a leafless offspring law")
    return [r for key in (SUITES if name == "all" else [name])
            for r in SUITES[key](dist, seed)]


def render_report(results: list[CheckResult], dist: OffspringDistribution,
                  seed: int) -> str:
    lines = [f"pmf {dist} seed {seed}"]
    for r in results:
        lines.append(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
