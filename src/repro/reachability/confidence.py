"""Confidence intervals for sampled reachability probabilities.

Definition 10 of the paper builds a two-sided ``1 - alpha`` interval
around the sampled success fraction using the normal approximation of
the binomial distribution; the greedy selection heuristic FT+M+CI uses
the interval to prune candidate edges whose flow upper bound falls below
another candidate's lower bound.  The Wilson score interval is provided
as a better-behaved alternative for extreme fractions (an extension over
the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: Minimum number of samples before the Central Limit Theorem based
#: interval may be used for pruning (paper Section 6.3).
MIN_SAMPLES_FOR_PRUNING = 30


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval ``[lower, upper]`` around ``estimate``."""

    estimate: float
    lower: float
    upper: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.estimate <= self.upper):
            # allow for small floating point wobble, otherwise reject
            if self.lower - 1e-12 > self.estimate or self.estimate > self.upper + 1e-12:
                raise ValueError(
                    f"inconsistent interval [{self.lower}, {self.upper}] "
                    f"around {self.estimate}"
                )

    @property
    def width(self) -> float:
        """Width of the interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Return True if ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def dominates(self, other: "ConfidenceInterval") -> bool:
        """Return True if this interval lies entirely above ``other``.

        Used for the CI pruning rule: candidate ``e`` dominates ``e'``
        when ``lb(e) > ub(e')``.
        """
        return self.lower > other.upper


def standard_normal_quantile(p: float) -> float:
    """Return the ``p``-quantile of the standard normal distribution.

    Uses the Acklam rational approximation (relative error below 1.15e-9),
    avoiding a SciPy dependency in the core library.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {p!r}")
    # Coefficients of the Acklam approximation.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def normal_confidence_interval(
    successes: int, n_samples: int, alpha: float = 0.01
) -> ConfidenceInterval:
    """Normal-approximation interval for a binomial proportion (Definition 10).

    The interval is ``p_hat ± z * sqrt(p_hat (1 - p_hat) / n)`` where
    ``z`` is the ``1 - alpha/2`` standard-normal quantile, clamped to
    ``[0, 1]``.

    Note
    ----
    The paper's Equation 6 omits the ``1/sqrt(n)`` factor in its half
    width; we include it, as the Central Limit Theorem requires, so the
    interval actually shrinks with the number of samples.
    """
    _validate_counts(successes, n_samples)
    p_hat = successes / n_samples
    z = standard_normal_quantile(1.0 - alpha / 2.0)
    lower, upper = normal_bounds(p_hat, n_samples, z)
    return ConfidenceInterval(estimate=p_hat, lower=lower, upper=upper, alpha=alpha)


def normal_bounds(p_hat: float, n_samples: int, z: float) -> Tuple[float, float]:
    """Definition 10's bounds ``p_hat ± z * sqrt(p_hat (1 - p_hat) / n)`` in ``[0, 1]``.

    The one implementation of the normal-approximation half width: the
    binomial interval above and the F-tree's per-vertex interval bounds
    (FT+M+CI pruning) both call it.
    """
    half_width = z * (p_hat * (1.0 - p_hat) / n_samples) ** 0.5
    return max(0.0, p_hat - half_width), min(1.0, p_hat + half_width)


def wilson_confidence_interval(
    successes: int, n_samples: int, alpha: float = 0.01
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    More reliable than the normal approximation when the success
    fraction is close to 0 or 1 or the sample count is small.
    """
    _validate_counts(successes, n_samples)
    p_hat = successes / n_samples
    z = standard_normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    denominator = 1.0 + z2 / n_samples
    centre = (p_hat + z2 / (2.0 * n_samples)) / denominator
    half_width = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / n_samples + z2 / (4.0 * n_samples * n_samples))
        / denominator
    )
    return ConfidenceInterval(
        estimate=p_hat,
        lower=max(0.0, centre - half_width),
        upper=min(1.0, centre + half_width),
        alpha=alpha,
    )


def _validate_counts(successes: int, n_samples: int) -> None:
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    if successes < 0 or successes > n_samples:
        raise ValueError(
            f"successes must lie in [0, n_samples], got {successes!r} of {n_samples!r}"
        )
