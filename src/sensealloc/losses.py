"""Expected-loss evaluators under resource-dependent disturbances.

For the square loss the expectation over additive zero-mean noise splits
exactly into the clean mean-squared error plus the aggregate noise variance
sum_i w_i^2 sigma_i^2(r_i).  For the hinge loss the expectation over Gaussian
margin noise has a closed form in the normal pdf/cdf.  The adversarial hinge
objective replaces the expectation by the worst ellipsoid perturbation, whose
value is the same aggregate scale plus the total hinge slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, NoiseModel, ResourceVector, _as_weights, noise_variance
from .errors import InvalidInputError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LossValue:
    """Expected square loss split into its clean and noise-driven parts;
    total is the exact sum of the two by construction."""

    data_term: float
    noise_term: float

    @property
    def total(self) -> float:
        return self.data_term + self.noise_term


def square_loss_total(ds: Dataset, w, b: float, r: ResourceVector,
                      nm: NoiseModel) -> LossValue:
    """Expected square loss: mean_i (y_i - w.x_i - b)^2 plus the noise
    variance along the classifier direction."""
    weights = _as_weights(w)
    noise = noise_variance(weights, r, nm)
    resid = ds.labels - (ds.features @ weights + b)
    return LossValue(data_term=float(np.mean(resid**2)), noise_term=noise)


def _phi(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _normal_cdf(z):
    """Phi(z) = erfc(-z / sqrt 2) / 2 by ``math.erfc`` on each element; erfc
    keeps the lower tail accurate where 1 + erf would cancel."""
    return 0.5 * np.vectorize(math.erfc, otypes=[float])(-z / _SQRT_2)


def gaussian_hinge_expected(margin, sigma: float):
    """E[max(0, 1 - (m + Z))] with Z ~ Normal(0, sigma^2).

    Closed form (1-m) Phi((1-m)/sigma) + sigma phi((1-m)/sigma); collapses to
    the plain hinge max(0, 1-m) as sigma -> 0.  Accepts scalar or array
    margins.  The normal CDF comes from the complementary error function
    (accurate to machine precision), so its error never limits test
    tolerances.
    """
    if not 0 <= sigma < math.inf:
        raise InvalidInputError(f"sigma must be nonnegative and finite, got {sigma}")
    m = np.asarray(margin, dtype=float)
    u = 1.0 - m
    if sigma == 0.0:
        out = np.maximum(u, 0.0)
        return float(out) if out.ndim == 0 else out
    z = u / sigma
    out = u * _normal_cdf(z) + sigma * _phi(z)
    return float(out) if out.ndim == 0 else out


def expected_hinge_total(ds: Dataset, w, b: float, r: ResourceVector,
                         nm: NoiseModel) -> float:
    """Average over samples of the Gaussian-smoothed hinge loss at the
    aggregate noise scale."""
    weights = _as_weights(w)
    sigma = math.sqrt(noise_variance(weights, r, nm))
    margins = ds.labels * (ds.features @ weights + b)
    return float(np.mean(gaussian_hinge_expected(margins, sigma)))


def robust_hinge_objective(ds: Dataset, w, b: float, r: ResourceVector,
                           nm: NoiseModel) -> float:
    """Worst-case hinge objective against the ellipsoid uncertainty set:
    sqrt(sum w_i^2 sigma_i^2(r_i)) + sum_i max(0, 1 - y_i (w.x_i + b)).

    The first term is the adversary's best response sup w.delta over the
    ellipsoid; the second is the total hinge slack on the clean data.
    """
    if not ds.is_classification():
        raise InvalidInputError("robust hinge objective requires labels in {-1, +1}")
    weights = _as_weights(w)
    support = math.sqrt(noise_variance(weights, r, nm))
    margins = ds.labels * (ds.features @ weights + b)
    return support + float(np.sum(np.maximum(0.0, 1.0 - margins)))
