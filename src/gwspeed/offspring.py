"""Finite-support offspring laws and the scalar quantities derived from them.

An offspring law is an explicit pmf ``{k: p_k}`` on nonnegative integers with
finite support. From it we expose the mean ``m``, the support extremes ``m1``
and ``m2``, the extinction probability q (smallest fixed point of the
generating function) and the bias threshold up to which strict speed
decrease is certified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedRegimeError

PROB_SUM_TOL = 1e-12
DEFAULT_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 10**6


@dataclass(frozen=True)
class OffspringDistribution:
    """Validated finite-support offspring pmf.

    ``entries`` is a tuple of (k, p_k) pairs sorted by k. Instances are
    immutable and safe to share across threads or processes.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("offspring pmf is empty")
        ks = [k for k, _ in self.entries]
        for k, p in self.entries:
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"offspring count {k!r} is not an integer")
            if k < 0:
                raise ValueError(f"negative offspring count {k}")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"probability {p:.9g} for k={k} is outside (0, 1]")
        if len(set(ks)) != len(ks):
            raise ValueError("duplicate offspring counts in pmf")
        total = math.fsum(p for _, p in self.entries)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total:.9g}")
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @cached_property
    def m(self) -> float:
        """Mean offspring number."""
        return math.fsum(k * p for k, p in self.entries)

    @cached_property
    def m1(self) -> int:
        """Smallest offspring count with positive probability."""
        return self.entries[0][0]

    @cached_property
    def m2(self) -> int:
        """Largest offspring count with positive probability."""
        return self.entries[-1][0]

    @property
    def has_leaves(self) -> bool:
        return self.m1 == 0

    def pgf(self, s: float) -> float:
        """Probability generating function sum(p_k * s**k) for s in [0, 1]."""
        if not (0.0 <= s <= 1.0):
            raise ValueError(f"pgf argument {s:.9g} outside [0, 1]")
        return math.fsum(p * s**k for k, p in self.entries)

    def extinction_probability(self, tol: float = DEFAULT_FIXED_POINT_TOL) -> float:
        """Smallest fixed point of the pgf in [0, 1).

        Iterates s <- pgf(s) from s = 0; iterating from below converges
        monotonically to the smallest fixed point. Requires m > 1.
        """
        if self.m <= 1.0:
            raise UnsupportedRegimeError(
                f"extinction probability needs mean offspring > 1, got {self.m:.9g}"
            )
        s = 0.0
        for _ in range(_FIXED_POINT_MAX_ITER):
            nxt = self.pgf(s)
            if abs(nxt - s) < tol:
                return nxt
            s = nxt
        return s

    def monotonicity_threshold(self) -> float:
        """Upper end of the bias range with certified strict speed decrease,
        m1 / (1 + sqrt(1 - 1/m1)). Defined for m1 >= 2; lies in (1, m1)."""
        if self.m1 < 2:
            raise UnsupportedRegimeError(
                f"monotonicity threshold needs minimum branching >= 2, got m1={self.m1}"
            )
        return self.m1 / (1.0 + math.sqrt(1.0 - 1.0 / self.m1))

    # Sampling ------------------------------------------------------------

    @cached_property
    def _support(self) -> np.ndarray:
        # the counts' dtype: int16, widened only when m2 does not fit in it
        dtype = next(t for t in (np.int16, np.int32, np.int64) if self.m2 <= np.iinfo(t).max)
        return np.array([k for k, _ in self.entries], dtype=dtype)

    @cached_property
    def _cum(self) -> np.ndarray:
        cum = np.cumsum([p for _, p in self.entries])
        cum[-1] = 1.0  # guard against fp undershoot
        return cum

    def draw_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample offspring counts, vectorized: an array of length size, int16
        unless m2 needs a wider integer."""
        u = rng.random(size)
        if len(self.entries) == 1:
            return np.full(size, self._support[0])
        if len(self.entries) == 2:
            return np.where(u < self._cum[0], self._support[0], self._support[1])
        return self._support[np.searchsorted(self._cum, u, side="right")]

    # Serialization --------------------------------------------------------

    def to_text(self) -> str:
        return ",".join(f"{k}:{p:.9g}" for k, p in self.entries)

    def __str__(self) -> str:
        return self.to_text()


def make_distribution(entries) -> OffspringDistribution:
    """Build a validated distribution from (k, p_k) pairs or a {k: p_k} map."""
    if isinstance(entries, dict):
        entries = list(entries.items())
    normalized = []
    for k, p in entries:
        try:
            ik, fp = int(k), float(p)
        except (TypeError, ValueError):
            raise ValueError(f"cannot read pmf entry {k!r}: {p!r}") from None
        if ik != float(k):
            raise ValueError(f"offspring count {k!r} is not an integer")
        normalized.append((ik, fp))
    return OffspringDistribution(tuple(normalized))


def parse_pmf_text(text: str) -> OffspringDistribution:
    """Parse the compact form "k:p,k:p,...", e.g. "2:0.5,3:0.5"."""
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k_str, p_str = part.split(":")
            entries.append((int(k_str), float(p_str)))
        except ValueError:
            raise ValueError(f"cannot parse pmf entry {part!r}, expected k:p") from None
    if not entries:
        raise ValueError("empty pmf text")
    return make_distribution(entries)


def parse_pmf_json(text: str) -> OffspringDistribution:
    """Parse the JSON object form {"pmf": {"2": 0.5, "3": 0.5}}."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("pmf JSON is nested too deeply to decode") from None
    if not isinstance(obj, dict) or "pmf" not in obj or not isinstance(obj["pmf"], dict):
        raise ValueError('pmf JSON must be an object {"pmf": {"k": p, ...}}')
    return make_distribution(obj["pmf"])
