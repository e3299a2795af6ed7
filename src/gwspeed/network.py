"""Electric-network view of the tree with its artificial root attached.

Every edge {x, y} away from the artificial root carries conductance
lambda**(-(min depth)-1); the edge into the artificial root carries 1, so the
weighted degree there is exactly 1 and the effective conductance to the
boundary equals the probability of reaching the boundary level before the
artificial root. Effective conductance is computed by exact series-parallel
reduction, which on a tree is linear time.

For very small bias the raw conductances lambda**(-k-1) overflow doubles on
deep truncations, so below ``SMALL_LAMBDA`` the reduction runs on resistances
rescaled by lambda**depth per level, which is overflow-free and algebraically
identical. For a bias so large that lambda**n overflows, resistances are
carried in units of lambda**n instead (``_unit_depth``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegimeError, VerificationError, _check_bias
from .tree import QuenchedTree

SMALL_LAMBDA = 0.1


@dataclass
class WeightedTreeNetwork:
    """One truncated tree, with its artificial root, at one bias."""

    tree: QuenchedTree
    lam: float


def build_conductances(tree: QuenchedTree, lam: float) -> WeightedTreeNetwork:
    """The tree with its artificial root attached, as a network at bias lam.

    Requires a finite lam > 0; the walk-network correspondence degenerates
    at zero bias.
    """
    if not 0.0 < lam < math.inf:
        raise UnsupportedRegimeError(
            f"conductances need a finite bias > 0, got {lam:.9g}")
    if tree.star_root is None:
        raise ValueError("tree has no artificial root; attach it first")
    return WeightedTreeNetwork(tree=tree, lam=lam)


def effective_conductance_to_level(net: WeightedTreeNetwork, n: int) -> float:
    """Exact series-parallel conductance between the artificial root and the
    set of depth-n vertices. Equals the probability of hitting depth n before
    the artificial root when starting there."""
    return _conductance_to_level(net.tree, net.lam, n)


def _unit_depth(lam: float, n: int) -> int:
    """0, or n when lam ** n passes the largest float. The unscaled reduction
    carries resistances in units of lam ** unit_depth: a large bias's edge terms
    lam ** (k + 1 - n) are then at most 1, and its conductance, below the
    smallest normal float, comes out subnormal or 0, as compute_beta's does."""
    try:
        lam ** float(n)
        return 0
    except OverflowError:
        return n


def _conductance_to_level(tree: QuenchedTree, lam: float, n: int) -> float:
    """The reduction behind ``effective_conductance_to_level``. It needs no
    artificial root in the arena: the unit edge above the root is added last."""
    start, nu = tree.levels(n)
    counts = (nu[start[k]:start[k + 1]] for k in range(n))
    return _reduce_levels([(np.cumsum(c) - c, None) for c in counts],
                          start[n + 1] - start[n], lam)


def _reduce_levels(levels: list[tuple], width: int, lam: float) -> float:
    """Series-parallel reduction of a tree given top down as one (offsets,
    index) pair a level: the children of a level's vertices are the blocks at
    ``offsets`` of the level below's values, read through ``index`` (None: in
    place). The bottom level has ``width`` vertices."""
    n = len(levels)
    # subtree resistance below each vertex of the current level
    resist = np.zeros(width)
    scaled = lam < SMALL_LAMBDA
    top = _unit_depth(lam, n)
    for k in range(n - 1, -1, -1):
        if scaled:
            # resistances carried in units of lam**(depth+1):
            # rho(x) = 1 / sum_i 1/(1 + lam*rho(child_i))
            inv = 1.0 / (1.0 + lam * resist)
        else:
            inv = 1.0 / (lam ** (k + 1.0 - top) + resist)
        off, index = levels[k]
        resist = 1.0 / np.add.reduceat(inv if index is None else inv[index], off)
    root_r = float(resist[0])
    if scaled:
        return 1.0 / (1.0 + lam * root_r)
    half = lam ** (-top / 2.0)  # lam ** -top in two factors: one rounding to subnormal
    return half * (half / (half * half + root_r))


def regular_return_gf(d: int, lam: float, z: float) -> float:
    """Generating function of the first return to the parent on the d-ary
    tree: ((lam+d) - sqrt((lam+d)**2 - 4*d*lam*z**2)) / (2*d*z), evaluated
    rationalized, as 2*z*r / (1 + sqrt(1 - 4*z**2*r*d/(lam+d))) with
    r = lam/(lam+d), which neither squares lam nor subtracts close numbers.

    At z = 1 the expression simplifies to min(lam, d)/d, which is returned
    exactly. z must lie in (0, 1].
    """
    if d < 1:
        raise ValueError(f"branching d must be >= 1, got {d}")
    _check_bias(lam)
    if not (0.0 < z <= 1.0):
        raise ValueError(f"z must be in (0, 1], got {z:.9g}")
    if z == 1.0:
        return min(lam, d) / d
    s = lam + d
    r = lam / s
    return 2.0 * z * r / (1.0 + math.sqrt(1.0 - 4.0 * z * z * r * d / s))


def regular_escape_probability(d: int, lam: float) -> float:
    """Probability of never hitting the parent on the d-ary tree: 1 - min(lam, d)/d."""
    if d < 1:
        raise ValueError(f"branching d must be >= 1, got {d}")
    _check_bias(lam)
    return 1.0 - min(lam, d) / d


def _regular_conductance(d: int, lam: float, n: int) -> float:
    """``_conductance_to_level`` on the d-regular tree to depth n, with one
    vertex a level whose d children all read the one vertex below."""
    return _reduce_levels([((0,), np.zeros(d, dtype=np.intp))] * n, 1, lam)


def conductance_sandwich(tree: QuenchedTree, lam: float,
                         n: int) -> tuple[float, float, float]:
    """Effective conductance of the tree bracketed by the regular trees built
    from its minimum and maximum branching numbers.

    Returns (low, mid, high). Increasing every edge conductance cannot
    decrease the effective conductance, so the ordering is a hard invariant;
    a violation beyond float tolerance raises VerificationError.
    """
    if not 0.0 < lam < math.inf:
        raise UnsupportedRegimeError(f"sandwich needs a finite bias > 0, got {lam:.9g}")
    m1, m2 = tree.dist.m1, tree.dist.m2
    if m1 < 1:
        raise UnsupportedRegimeError("sandwich needs a leafless offspring law")
    c_mid = _conductance_to_level(tree, lam, n)
    c_low = _regular_conductance(m1, lam, n)
    c_high = _regular_conductance(m2, lam, n)
    slack = 1e-12 * max(1.0, abs(c_mid))
    if not (c_low <= c_mid + slack and c_mid <= c_high + slack):
        raise VerificationError(
            f"conductance ordering violated: {c_low:.17g} <= {c_mid:.17g} "
            f"<= {c_high:.17g} fails"
        )
    return c_low, c_mid, c_high
