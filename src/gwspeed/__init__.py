"""Biased random walks on Galton-Watson trees: escape probabilities computed
exactly on truncated trees, Monte Carlo speed estimation, the annealed speed
formula, and numerical verification of the strict-decrease criterion."""

from .beta import (BetaPool, BetaTable, BoundReport, beta_derivative_path_sum,
                   check_bounds, compute_beta, sample_pool,
                   sample_pools_shared_trees)
from .errors import (DegenerateTupleError, InvalidStateError,
                     UnsupportedRegimeError, VerificationError)
from .network import (WeightedTreeNetwork, build_conductances,
                      conductance_sandwich, effective_conductance_to_level,
                      regular_escape_probability, regular_return_gf)
from .offspring import (OffspringDistribution, make_distribution,
                        parse_pmf_json, parse_pmf_text)
from .speed import (FormulaSpeed, Ineq8Report, MonotonicityReport, SpeedCurve,
                    SpeedCurvePoint, TuplePool, inequality8, make_tuple_pool,
                    speed_curve, speed_exact_lambda1, speed_formula_mc)
from .tree import QuenchedTree, attach_star_root, sample_truncated_tree
from .walker import (HittingEstimate, SpeedEstimate, WalkState, hitting_beta_mc,
                     lemma0_compare, simulate_speed, transition_step)

__version__ = "0.1.0"

__all__ = [
    "BetaPool", "BetaTable", "BoundReport", "DegenerateTupleError",
    "FormulaSpeed", "HittingEstimate", "Ineq8Report", "InvalidStateError",
    "MonotonicityReport", "OffspringDistribution", "QuenchedTree",
    "SpeedCurve", "SpeedCurvePoint", "SpeedEstimate", "TuplePool",
    "UnsupportedRegimeError", "VerificationError", "WalkState",
    "WeightedTreeNetwork",
    "attach_star_root", "beta_derivative_path_sum", "build_conductances",
    "check_bounds", "compute_beta", "conductance_sandwich",
    "effective_conductance_to_level",
    "hitting_beta_mc", "inequality8", "lemma0_compare",
    "make_distribution", "make_tuple_pool", "parse_pmf_json", "parse_pmf_text",
    "regular_escape_probability", "regular_return_gf", "sample_pool",
    "sample_pools_shared_trees", "sample_truncated_tree", "simulate_speed",
    "speed_curve", "speed_exact_lambda1", "speed_formula_mc",
    "transition_step",
]
