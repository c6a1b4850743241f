"""Domain types: datasets, linear classifiers, resource vectors, noise models.

A noise model maps the resource r_i spent on acquiring feature i to the
standard deviation sigma_i(r_i) of the additive disturbance on that feature.
Every built-in family is positive, strictly decreasing, and convex in r (and
so is sigma_i^2), which is what the allocation solvers rely on.  Solvers see
a family only through :class:`NoiseModel`, which scales its unit curve.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InfeasibleAllocationError, InvalidInputError, InvalidNoiseModelError

ArrayLike = Union[np.ndarray, Sequence[float]]

#: Relative floor applied to allocations when a model does not fix its own:
#: sigma is never evaluated below ``FLOOR_FRACTION * budget``.
FLOOR_FRACTION = 1e-9


def _frozen_array(values: ArrayLike, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RngConfig:
    """Seed plus named sub-streams so data generation and noise injection
    never share random state."""

    seed: int

    def stream(self, label: str) -> np.random.Generator:
        """Return a generator keyed by (seed, label); same inputs, same bits."""
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "little")
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(key,)))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (M x d) with labels in {-1, +1} or real-valued targets."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.labels, dtype=float).ravel()
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise InvalidInputError("dataset needs at least one sample and one feature")
        if X.shape[0] != y.shape[0]:
            raise InvalidInputError(f"feature rows {X.shape[0]} != label count {y.shape[0]}")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise InvalidInputError("dataset contains NaN or Inf entries")
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise InvalidInputError("feature_names length mismatch")
        object.__setattr__(self, "features", _frozen_array(X))
        object.__setattr__(self, "labels", _frozen_array(y))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def is_classification(self) -> bool:
        """True when every label is exactly +1 or -1."""
        return bool(np.all(np.abs(self.labels) == 1.0))

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass(frozen=True)
class LinearClassifier:
    """Weights w and bias b of the linear rule sign(w.x + b)."""

    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if not np.all(np.isfinite(w)) or not np.isfinite(self.bias):
            raise InvalidInputError("classifier has non-finite entries")
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def decision(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Margins of exactly zero are classified as +1."""
        return np.where(self.decision(X) >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class ResourceVector:
    """Nonnegative per-feature allocation summing to at most the budget."""

    alloc: np.ndarray
    budget: float

    def __post_init__(self):
        r = np.asarray(self.alloc, dtype=float).ravel()
        if not 0 < self.budget < math.inf:
            raise InfeasibleAllocationError(
                f"budget must be positive and finite, got {self.budget}")
        total = float(r.sum())
        if np.any(r < 0) or math.isnan(total):
            raise InfeasibleAllocationError("negative or NaN allocation entry")
        if total > self.budget * (1 + 1e-9) + 1e-12:
            raise InfeasibleAllocationError(
                f"allocation sum {total:.12g} exceeds budget {self.budget:.12g}"
            )
        object.__setattr__(self, "alloc", _frozen_array(r))
        object.__setattr__(self, "budget", float(self.budget))

    @property
    def dim(self) -> int:
        return self.alloc.shape[0]

    def is_saturated(self, rtol: float = 1e-8) -> bool:
        return abs(self.alloc.sum() - self.budget) <= rtol * self.budget

    @staticmethod
    def uniform(budget: float, d: int) -> "ResourceVector":
        return ResourceVector(np.full(d, budget / d), budget)


def _as_weights(w) -> np.ndarray:
    if isinstance(w, LinearClassifier):
        return w.weights
    weights = np.asarray(w, dtype=float).ravel()
    if not np.isfinite(weights).all():
        raise InvalidInputError("classifier weights must be finite")
    return weights


class _Closed:
    """Closed-form unit curve s, convex by construction: sigma = s(r),
    dsigma_sq = d(s^2)/dr, marginal_inverse(a, nu) = r where -a d(s^2)/dr = nu."""

    domain, cap, needs_check = (1e-6, 1e3), math.inf, False

    def __init__(self, table):
        self.table = table  # closed forms ignore it; kept as given


class _Inverse(_Closed):
    @staticmethod
    def sigma(r):
        with np.errstate(divide="ignore"):
            return np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), np.inf)

    dsigma_sq = staticmethod(lambda r: -2.0 / r**3)
    marginal_inverse = staticmethod(lambda a, nu: np.cbrt(2.0 * a / nu))


class _InverseSqrt(_Closed):
    sigma = staticmethod(lambda r: _Inverse.sigma(np.sqrt(np.maximum(r, 0.0))))
    dsigma_sq = staticmethod(lambda r: -1.0 / r**2)
    marginal_inverse = staticmethod(lambda a, nu: np.sqrt(a / nu))


class _Quantization(_Closed):
    sigma = staticmethod(lambda r: np.exp2(-r))
    dsigma_sq = staticmethod(lambda r: -2.0 * np.log(2.0) * np.exp2(-2.0 * r))
    marginal_inverse = staticmethod(
        lambda a, nu: np.log2(np.maximum(2.0 * math.log(2.0) * a / nu, 1e-300)) / 2.0)


class _Tabulated:
    """Piecewise-linear s through a (r_grid, s_grid) table, flat beyond it."""

    needs_check = True

    def __init__(self, table):
        if table is None:
            raise InvalidNoiseModelError("tabulated family requires a table")
        r_grid = np.asarray(table[0], dtype=float)
        s_grid = np.asarray(table[1], dtype=float)
        if r_grid.ndim != 1 or r_grid.shape != s_grid.shape or r_grid.size < 2:
            raise InvalidNoiseModelError("table must be two equal-length 1-D arrays")
        if r_grid[0] <= 0 or np.any(np.diff(r_grid) <= 0):
            raise InvalidNoiseModelError("table resource grid must be positive and increasing")
        self.table = (_frozen_array(r_grid), _frozen_array(s_grid))
        self.domain, self.cap = (r_grid[0], r_grid[-1]), r_grid[-1]

    def sigma(self, r):
        return np.interp(r, *self.table)

    def dsigma_sq(self, r):
        """Central differences, one-sided at the table ends and zero beyond."""
        h = np.maximum(1e-6 * np.maximum(np.abs(r), 1.0), 1e-9)
        lo, hi = np.clip(r - h, *self.domain), np.clip(r + h, *self.domain)
        return (self.sigma(hi) ** 2 - self.sigma(lo) ** 2) / np.where(hi > lo, hi - lo, 1.0)

    def marginal_inverse(self, a, nu):
        """Lockstep bisection to brentq's tolerance; 0 where the marginal at the
        table start is at most nu, the table end where it still exceeds nu."""
        gap = lambda r: -a * self.dsigma_sq(r) - nu
        lo, hi = np.full(np.shape(a), self.domain[0]), np.full(np.shape(a), self.cap)
        below, above = gap(lo) <= 0, gap(hi) >= 0
        while np.any(hi - lo > 1e-14 + 8.9e-16 * (mid := 0.5 * (lo + hi))):
            up = gap(mid) > 0
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        return np.where(below, 0.0, np.where(above, self.cap, mid))


#: Unit curve of each family, built from the model's table; the keys are the
#: families accepted by :class:`NoiseModel`.
_CURVES = {"inverse": _Inverse, "inverse_sqrt": _InverseSqrt,
           "quantization": _Quantization, "tabulated": _Tabulated}
FAMILIES = tuple(_CURVES)


@dataclass(frozen=True)
class NoiseModel:
    """Per-feature disturbance scale as a function of allocated resource.

    family:
        "inverse"       sigma_i(r) = scale_i / r
        "inverse_sqrt"  sigma_i(r) = scale_i / sqrt(r)   (variance ~ 1/r)
        "quantization"  sigma_i(r) = scale_i * 2**(-r)   (r counts bits)
        "tabulated"     scale_i times the piecewise-linear interpolation of `table`
    scale:
        positive finite scalar, or one such multiplier c_i per feature.
    floor:
        smallest allocation at which sigma is evaluated (positive, finite);
        None defers to ``FLOOR_FRACTION * budget`` at the point of use.
        Guards the sigma(0) = inf singularity of the inverse families.
    table:
        (r_grid, sigma_grid) pair, required for family "tabulated".
    """

    family: str
    scale: Union[float, np.ndarray] = 1.0
    floor: Optional[float] = None
    table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.family not in _CURVES:
            raise InvalidNoiseModelError(f"unknown family {self.family!r}")
        curve = _CURVES[self.family](self.table)
        scale = np.asarray(self.scale, dtype=float)
        if not np.all(np.isfinite(scale) & (scale > 0)):
            raise InvalidNoiseModelError("scale constants must be positive and finite")
        if self.floor is not None and not 0 < self.floor < math.inf:
            raise InvalidNoiseModelError(f"floor must be positive and finite, got {self.floor}")
        object.__setattr__(self, "table", curve.table)
        object.__setattr__(self, "scale", scale if scale.ndim else float(scale))
        object.__setattr__(self, "_curve", curve)

    def floor_for(self, budget: float) -> float:
        return self.floor if self.floor is not None else FLOOR_FRACTION * budget

    def bracket(self, budget: float) -> Tuple[float, float]:
        """(floor, cap) bounding each feature's resource in a solve at this
        budget; cap is the table end, else inf.  Tables are validated first."""
        if self._curve.needs_check:
            self.validate()
        return self.floor_for(budget), self._curve.cap

    def feature_scale(self, i: int) -> float:
        c = np.asarray(self.scale, dtype=float)
        return float(c) if c.ndim == 0 else float(c[i])

    def sigma(self, r: ArrayLike) -> np.ndarray:
        """sigma_i(r_i) elementwise; inverse families return inf at r = 0."""
        return self.scale * self._curve.sigma(np.asarray(r, dtype=float))

    def sigma_sq(self, r: ArrayLike) -> np.ndarray:
        return self.sigma(r) ** 2

    def dsigma_sq(self, r: ArrayLike) -> np.ndarray:
        """d(sigma_i^2)/dr at r; analytic for built-ins, central differences
        for tabulated models."""
        return self.scale**2 * self._curve.dsigma_sq(np.asarray(r, dtype=float))

    def marginal_inverse(self, nu: float, w2: ArrayLike) -> np.ndarray:
        """Resource at which -w2_i * d(sigma_i^2)/dr equals nu > 0, elementwise;
        not clamped to :meth:`bracket`."""
        return self._curve.marginal_inverse(np.asarray(w2, dtype=float) * self.scale**2, nu)

    def validate(self, lo: Optional[float] = None, hi: Optional[float] = None, n: int = 64):
        """Sampled sanity check: sigma positive, strictly decreasing, and
        midpoint-convex (same for sigma^2) on a grid in (lo, hi).

        Raises InvalidNoiseModelError on the first violated property.  The
        check runs on the unit curve, since a positive scale changes none of
        these; it mainly protects against bad tabulated models.
        """
        lo = self._curve.domain[0] if lo is None else lo
        hi = self._curve.domain[1] if hi is None else hi
        grid = np.geomspace(lo, hi, n)
        sigma = self._curve.sigma(grid)
        for values, name in ((sigma, "sigma"), (sigma**2, "sigma^2")):
            if np.any(values <= 0) or not np.all(np.isfinite(values)):
                raise InvalidNoiseModelError(f"{name} is not positive and finite on the grid")
            if np.any(np.diff(values) >= 0):
                raise InvalidNoiseModelError(f"{name} is not strictly decreasing")
            # geometric grid is not equispaced; check convexity on chords
            t = (grid[1:-1] - grid[:-2]) / (grid[2:] - grid[:-2])
            chord = (1 - t) * values[:-2] + t * values[2:]
            if np.any(values[1:-1] > chord * (1 + 1e-9) + 1e-12):
                raise InvalidNoiseModelError(f"{name} violates convexity on the sampled grid")


def check_allocation_feasible(w, r: ResourceVector, nm: NoiseModel) -> np.ndarray:
    """Return the effective floor-clamped allocation, raising when a feature
    with nonzero weight sits below the evaluation floor."""
    weights = _as_weights(w)
    floor = nm.floor_for(r.budget)
    below = (r.alloc < floor) & (weights != 0.0)
    if np.any(below):
        idx = int(np.flatnonzero(below)[0])
        raise InfeasibleAllocationError(
            f"feature {idx} has weight {weights[idx]:.3g} but allocation "
            f"{r.alloc[idx]:.3g} below floor {floor:.3g}"
        )
    return np.maximum(r.alloc, floor)


def noise_variance(w, r: ResourceVector, nm: NoiseModel) -> float:
    """Sum of w_i^2 sigma_i^2(r_i); zero-weight features contribute nothing."""
    weights = _as_weights(w)
    clamped = check_allocation_feasible(weights, r, nm)
    active = weights != 0.0
    return float(np.sum(weights[active] ** 2 * nm.sigma_sq(clamped)[active]))


def sigma_aggregate(w, r: ResourceVector, nm: NoiseModel) -> float:
    """Disturbance scale along the classifier direction:
    sqrt(sum_i w_i^2 sigma_i(r_i)^2)."""
    return float(np.sqrt(noise_variance(w, r, nm)))


def synthetic_label(points: np.ndarray, a: float, noise: ArrayLike = 0.0) -> np.ndarray:
    """Label rule for the three-feature benchmark: sign(z - x - a*y + noise),
    with the zero-margin tie broken to +1."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    margin = pts[:, 2] - pts[:, 0] - a * pts[:, 1] + np.asarray(noise, dtype=float)
    return np.where(margin >= 0.0, 1.0, -1.0)


def generate_synthetic(a: float, n: int, label_noise_sd: float = 0.05,
                       rng: Optional[RngConfig] = None) -> Dataset:
    """Sample n points (x, y, z) uniformly from the unit box centered at the
    origin and label them by the plane z = x + a*y through its center.

    Centering the box on the divider keeps the two classes balanced for any
    slope a.  Gaussian label noise (sd ``label_noise_sd``) blurs the boundary
    so the classes are not linearly separable.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1 samples, got {n}")
    rng = rng if rng is not None else RngConfig(0)
    gen = rng.stream("synthetic-data")
    pts = gen.uniform(-0.5, 0.5, size=(n, 3))
    noise = gen.normal(0.0, label_noise_sd, size=n) if label_noise_sd > 0 else 0.0
    labels = synthetic_label(pts, a, noise)
    return Dataset(pts, labels, feature_names=("x", "y", "z"))


def inject_noise(ds: Dataset, r: ResourceVector, nm: NoiseModel, scale: float = 1.0 / 3.0,
                 rng: Optional[RngConfig] = None, scale_mode: str = "sd") -> Dataset:
    """Return a copy of ds with X_ij + delta_ij, delta_ij ~ Normal(0, s_j)
    i.i.d. across samples.

    scale_mode "sd" reads s_j = scale * sigma_j(r_j) as a standard deviation
    (the default, matching the test-noise convention of the experiments);
    "variance" reads scale * sigma_j(r_j) as a variance instead.
    """
    if scale_mode not in ("sd", "variance"):
        raise InvalidInputError("scale_mode must be 'sd' or 'variance'")
    clamped = np.maximum(r.alloc, nm.floor_for(r.budget))
    sigma = nm.sigma(clamped)
    sd = scale * sigma if scale_mode == "sd" else np.sqrt(scale * sigma)
    if scale == 0.0:
        return Dataset(ds.features.copy(), ds.labels.copy(), ds.feature_names)
    rng = rng if rng is not None else RngConfig(0)
    gen = rng.stream("noise-injection")
    delta = gen.normal(0.0, 1.0, size=ds.features.shape) * sd
    return Dataset(ds.features + delta, ds.labels.copy(), ds.feature_names)
