"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed inputs (bad pmf text, out-of-range
arguments). The classes below mark situations a caller may want to handle
separately from generic validation.
"""

import math


def _check_bias(lam: float) -> None:
    """Refuse a negative or non-finite bias (NaN passes a plain ``lam < 0``)."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"bias must be >= 0 and finite, got {lam:.9g}")


def _check_depth(n: int) -> None:
    """Refuse a negative truncation depth."""
    if n < 0:
        raise ValueError(f"truncation depth must be >= 0, got {n}")


class UnsupportedRegimeError(ValueError):
    """A parameter combination outside the regime an operation is defined for,
    e.g. requesting the monotonicity threshold when the minimum branching
    number is below 2."""


class InvalidStateError(RuntimeError):
    """An operation was applied to an object in the wrong state, e.g. attaching
    a second artificial root."""


class VerificationError(RuntimeError):
    """A computation broke an invariant it checks on its own result, e.g. the
    conductance sandwich ordering, or a Monte Carlo walk that did not absorb
    within its round cap. The CLI reports it with exit code 2."""


class DegenerateTupleError(ValueError):
    """A sampled tuple produced a non-positive denominator in the speed
    formula. Cannot happen when the minimum branching number is at least 2."""

    def __init__(self, index: int, nu: int, denominator: float):
        self.index = index
        self.nu = nu
        self.denominator = denominator
        super().__init__(
            f"tuple {index} (nu={nu}) has non-positive denominator "
            f"{denominator:.9g}"
        )
