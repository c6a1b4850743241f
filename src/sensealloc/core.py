"""Domain types: datasets, linear classifiers, resource vectors, noise models.

A noise model maps the resource r_i spent on acquiring feature i to the
standard deviation sigma_i(r_i) of the additive disturbance on that feature.
Every noise model is positive, strictly decreasing, and convex in r (and so
is sigma_i^2), which is what the allocation solvers rely on: the closed forms
by construction, a table because it is checked exactly when it is built.
A :class:`NoiseModel` is a scale c_i times a unit curve s.  The water-fill
multiplies c into the weights and works on the unit curve itself; everything
else sees a family only through :meth:`NoiseModel.sigma`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    InfeasibleAllocationError,
    InvalidInputError,
    InvalidNoiseModelError,
)

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

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")

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

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.labels, dtype=float).ravel()
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise InvalidInputError("dataset needs at least one sample and one feature")
        if X.shape[0] != y.shape[0]:
            raise InvalidInputError(f"feature rows {X.shape[0]} != label count {y.shape[0]}")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise InvalidInputError("dataset contains NaN or Inf entries")
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
        return Dataset(self.features[idx], self.labels[idx])


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

    @staticmethod
    def uniform(budget: float, d: int) -> "ResourceVector":
        if d < 1:
            raise InvalidInputError(f"a uniform allocation needs at least one feature, got d={d}")
        return ResourceVector(np.full(d, budget / d), budget)


def _check_allocated(ds: Dataset, r: ResourceVector) -> None:
    """Raise unless r allocates to exactly the features of ds."""
    if r.dim != ds.n_features:
        raise InvalidInputError(f"allocation of {r.dim} entries for {ds.n_features} features")


def _as_weights(w) -> np.ndarray:
    weights = np.asarray(w, dtype=float).ravel()
    if not np.isfinite(weights).all():
        raise InvalidInputError("classifier weights must be finite")
    return weights


class _Closed:
    """Closed-form unit curve s, convex by construction: sigma = s(r),
    dsigma_sq = d(s^2)/dr for both sides.  At a level theta >= ``lowest``,
    mapped to the marginal nu by ``level``, weight u takes one endless piece
    r = max(floor, c (offset - theta)) with c = slope(|u|), offset(|u|)."""

    table, start, cap, lowest = None, 0.0, math.inf, -math.inf
    offset = staticmethod(lambda u: 0.0)

    def __init__(self, table):
        if table is not None:
            raise InvalidNoiseModelError("only the tabulated family takes a table")

    def dsigma_sq_sides(self, r):
        return (self.dsigma_sq(r),) * 2

    def pieces(self, u, floor, R):
        """(top, bottom, c, lo, hi, base), one column of pieces; bottom is None
        and base the floor.  A weight whose piece would start past the float
        range (floor / c overflows) keeps the floor: its piece has slope 0."""
        u = np.abs(u)[:, None]
        c = self.slope(u)
        rises = c > floor / np.finfo(float).max
        c = np.where(rises, c, 0.0)
        top = self.offset(u) - np.divide(floor, c, out=np.zeros(c.shape), where=rises)
        return top, None, c, floor, math.inf, floor


def _reciprocal(x, positive):
    """1/x where ``positive``, inf elsewhere (r <= 0 and NaN included)."""
    return np.divide(1.0, x, out=np.full(np.shape(x), np.inf), where=positive)


def _power(x, p):
    """x**p for an integer p, with x capped where x**p would pass the float
    range (there 1 / x**p is below 2^-1022 and rounds to about 0 anyway)."""
    return np.minimum(x, 2.0 ** (1023 // p)) ** p


class _Inverse(_Closed):
    """r = |u|^(2/3) tau with tau = -theta, so nu = 2 / tau^3."""
    sigma = staticmethod(lambda r: _reciprocal(r, r > 0))
    dsigma_sq = staticmethod(lambda r: -2.0 / _power(r, 3))
    slope = staticmethod(lambda u: np.cbrt(u) ** 2)
    level = staticmethod(lambda theta: -2.0 / theta / theta / theta)  # theta**3 may overflow


class _InverseSqrt(_Closed):
    """r = |u| tau with tau = -theta = nu^(-1/2)."""
    sigma = staticmethod(lambda r: _reciprocal(np.sqrt(np.maximum(r, 0.0)), r > 0))
    dsigma_sq = staticmethod(lambda r: -1.0 / _power(r, 2))
    slope = staticmethod(lambda u: u)
    level = staticmethod(lambda theta: 1.0 / theta / theta)


class _Quantization(_Closed):
    """r = log2|u| - theta with nu = 2 ln2 4^theta."""
    sigma = staticmethod(lambda r: np.exp2(-r))
    dsigma_sq = staticmethod(lambda r: -2.0 * np.log(2.0) * np.exp2(-2.0 * r))
    slope, offset = staticmethod(np.ones_like), staticmethod(np.log2)
    level = staticmethod(lambda theta: 2.0 * math.log(2.0) * 4.0**theta)


class _Tabulated:
    """Piecewise-linear s through a (r_grid, s_grid) table, flat beyond it.

    On segment k, s has slope m_k, so the unit marginal h = -d(s^2)/dr =
    -2 s m_k is linear in r; at knot k it jumps from -2 s_k m_{k-1} down to
    -2 s_k m_k.  ``marginals`` lists the segment start and end values
    [h(r_0+), h(r_1-), h(r_1+), ..., h(r_n-)]; for positive, strictly
    decreasing s they never rise exactly when s is convex at every knot
    (m_{k-1} <= m_k), the whole admissibility of a piecewise-linear table.

    The level theta of ``pieces`` is nu itself, at least 0.  Weight u has a
    piece per segment above the floor: r = r_k + (u^2 h(r_k+) - theta) /
    (2 u^2 m_k^2) for theta from u^2 h(r_k+) down to u^2 h(r_{k+1}-).  A knot's
    jump is the gap between two pieces; nothing lies past the cap.  Of its K
    pieces, ``pieces`` returns only those that a bracket on the level of the
    budget leaves undecided, at most max(1, K / n) + 3 a feature: O(n log K)
    a probe to find the bracket, and a kernel over at most about K + 4 n
    pieces in place of 2 n K breakpoints.
    """

    lowest, level = 0.0, staticmethod(lambda theta: theta)

    def __init__(self, table):
        if table is None:
            raise InvalidNoiseModelError("tabulated family requires a table")
        r_grid = np.asarray(table[0], dtype=float)
        s_grid = np.asarray(table[1], dtype=float)
        if r_grid.ndim != 1 or r_grid.shape != s_grid.shape or r_grid.size < 2:
            raise InvalidNoiseModelError("table must be two equal-length 1-D arrays")
        if not (r_grid[0] > 0 and np.all(np.diff(r_grid) > 0) and r_grid[-1] < math.inf):
            raise InvalidNoiseModelError("table resource grid must be positive, finite and "
                                         "increasing")
        if not (s_grid[0] < math.inf and np.all(np.diff(s_grid) < 0) and s_grid[-1] > 0):
            raise InvalidNoiseModelError("table sigma must be positive, finite and strictly "
                                         "decreasing")
        self.table = (_frozen_array(r_grid), _frozen_array(s_grid))
        self.start, self.cap, self.knots = r_grid[0], r_grid[-1], self.table[0]
        self._slopes = np.diff(s_grid) / np.diff(r_grid)
        self._sided = np.concatenate(([0.0], self._slopes, [0.0]))  # flat outside the table
        self.marginals = np.column_stack((-2.0 * s_grid[:-1] * self._slopes,
                                          -2.0 * s_grid[1:] * self._slopes)).ravel()
        self._half_dr = np.append(0.5 / self._slopes**2, 0.0)  # 0: no piece past the cap
        self._tops = np.append(self.marginals[::2], 0.0)
        if np.any(np.diff(self.marginals) > 1e-9 * self.marginals[:-1]):
            raise InvalidNoiseModelError("table marginal rises at a knot: not decreasing "
                                         "and convex")

    def sigma(self, r):
        return np.interp(r, *self.table)

    def dsigma_sq(self, r):
        return self.dsigma_sq_sides(r)[0]

    def dsigma_sq_sides(self, r):
        """Exact one-sided derivatives 2 s(r) m_k, right then left, m_k the
        slope of the segment on that side of r; zero where s is flat."""
        s2 = 2.0 * self.sigma(r)
        return (s2 * self._sided[np.searchsorted(self.knots, r, side="right")],
                s2 * self._sided[np.searchsorted(self.knots, r, side="left")])

    def pieces(self, u, floor, R):
        """(top, bottom, c, lo, hi, base): the pieces that can hold the level
        of budget R, one row per feature, and the resource ``base`` that each
        feature holds in the pieces spent below them."""
        seg = self._segments(u, floor)
        return self._window(seg, *self._bracket(seg, floor, R))

    def _segments(self, u, floor):
        """(a, ends, half_dr, tops, bottoms, keys): a = u^2, or 0 for a weight
        too small for its slopes (and their sums) to stay finite, whose
        marginal is 0 to working precision; and for the K segments above the
        floor, their K + 1 ends (the floor, then the knots past it),
        1 / (2 m_k^2) and the unit marginals h(r_k+) and h(r_{k+1}-) at
        either end.  half_dr and tops end in a 0 for the empty piece past the
        cap.  keys, the running minimum of bottoms negated, ascend even where
        the table check let a marginal rise by up to 1e-9 at a knot."""
        k = int(np.searchsorted(self.knots, floor, side="right")) - 1  # the floor's segment
        ends, half_dr = np.maximum(self.knots[k:], floor), self._half_dr[k:]
        tops = self._tops[k:].copy()
        tops[0] = -self.dsigma_sq(floor)
        bottoms = self.marginals[2 * k + 1::2]
        a = u * u
        a = np.where(a * (np.finfo(float).max * 2.0**-60) >= half_dr.max(), a, 0.0)
        return a, ends, half_dr, tops, bottoms, -np.minimum.accumulate(bottoms)

    @staticmethod
    def _spent(a, tops, keys, theta):
        """How many pieces of each feature the level theta (or each row of a
        column of levels) has spent: those before the first whose end marginal
        a h(r_{k+1}-) lies below theta, none for a = 0.  theta / a is capped
        at the top marginal, since it may pass the float range."""
        capped = np.minimum(theta, a * tops[0])
        unit = np.divide(capped, a, out=np.full(capped.shape, np.inf), where=a > 0)
        return np.searchsorted(keys, -unit, side="right")

    def _bracket(self, seg, floor, R):
        """How many pieces of each feature the levels high and low spend, for
        a bracket low <= high around the level of budget R.  Alone, each of
        the n features with slopes would take r_bar = R / n (net of the
        floors of the others) at its level a h(r_bar), so the water level
        lies between the least and the greatest of these; at a knot the
        least takes h(r_bar+) and the greatest h(r_bar-).  r_bar is at
        least the floor; at the table start, where sigma is flat to the
        left, both take h(r_bar+) (R within ulps of n floor).  Bisection (of
        log theta, or of theta while low is 0) narrows the bracket until no
        feature has more than max(1, K / n) of its K segment ends inside it,
        or it no longer splits, so the window holds O(n + K) pieces however
        the weights spread.  Each probe sums r = lo + c (top - theta) on the
        piece that ``_spent`` finds, as the solve does, in O(n log K)."""
        a, ends, half_dr, tops, _, keys = seg
        spent = np.zeros((2, a.size), dtype=np.intp)  # none for a = 0
        sloped = a > 0
        b = a[sloped]
        if not b.size:
            return spent
        own = R - (a.size - b.size) * floor
        right, left = self.dsigma_sq_sides(max(own / b.size, floor))
        low, high = b.min() * -right, b.max() * -(left or right)
        j_low, j_high = self._spent(b, tops, keys, np.array([[low], [high]]))
        most = max(1, keys.size // b.size)
        while (j_low - j_high).max() > most:
            mid = math.sqrt(low) * math.sqrt(high) or 0.5 * high
            if not low < mid < high:
                break
            j = self._spent(b, tops, keys, mid)
            held = ends[j] + half_dr[j] / b * np.maximum(b * tops[j] - mid, 0.0)
            if held.sum() >= own:
                low, j_low = mid, j
            else:
                high, j_high = mid, j
        spent[:, sloped] = j_high, j_low
        return spent

    def _window(self, seg, first, stop):
        """Per feature, the pieces from the last one that the high end of the
        bracket spends (``first`` pieces spent) to the first one that its low
        end leaves idle (``stop`` spent), padded with empty pieces (c = 0,
        top = bottom = 0) to one row per feature, and ``base``, the resource
        in the pieces before them.  The spent and the idle piece at either
        end keep the level a piece inside the window, whatever the rounding
        of the bracket."""
        a, ends, half_dr, tops, bottoms, _ = seg
        first = np.maximum(first - 1, 0)
        stop = np.where(a > 0, np.minimum(stop + 2, bottoms.size), 0)
        cols = first[:, None] + np.arange((stop - first).max(initial=0))
        keep, cols = cols < stop[:, None], np.minimum(cols, bottoms.size - 1)
        a = a[:, None]
        c = np.divide(half_dr[cols], a, out=np.zeros(cols.shape), where=keep)
        return (np.where(keep, a * tops[cols], 0.0), np.where(keep, a * bottoms[cols], 0.0), c,
                ends[cols], ends[cols + 1], ends[first][:, None])


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
        Guards the sigma(0) = inf singularity of the inverse families.  A
        table's sigma is flat below its start, so the floor never lies below
        the table start.
    table:
        (r_grid, sigma_grid) pair, required for family "tabulated" and
        rejected by the others.  Sigma must be positive, finite, strictly
        decreasing and convex at every knot, or the model does not construct.
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
        floor = self.floor if self.floor is not None else FLOOR_FRACTION * budget
        return max(floor, self._curve.start)

    def _scale_for(self, x: np.ndarray) -> Union[float, np.ndarray]:
        """The scale, once it is known to serve the features along the last
        axis of x: a scalar, or one constant per feature (or a single one)."""
        if isinstance(self.scale, np.ndarray):
            d = x.shape[-1] if x.ndim else 1
            if self.scale.size not in (1, d):
                raise InvalidNoiseModelError(f"{self.scale.size} scale constants for {d} features")
        return self.scale

    def sigma(self, r: ArrayLike) -> np.ndarray:
        """sigma_i(r_i) elementwise, features along the last axis of r; inverse
        families return inf at r = 0."""
        r = np.asarray(r, dtype=float)
        return self._scale_for(r) * self._curve.sigma(r)

    def sigma_sq(self, r: ArrayLike) -> np.ndarray:
        return self.sigma(r) ** 2

    def sigma_at(self, r: ResourceVector) -> np.ndarray:
        """sigma_i(r_i) at an allocation, each r_i raised to the floor for
        its budget: the one place sigma is read at an allocation."""
        return self.sigma(np.maximum(r.alloc, self.floor_for(r.budget)))


def noise_variance(w, r: ResourceVector, nm: NoiseModel) -> float:
    """Sum of w_i^2 sigma_i^2(r_i); zero-weight features contribute nothing.
    Raises when a feature with nonzero weight sits below the evaluation floor."""
    weights = _as_weights(w)
    if weights.shape[0] != r.dim:
        raise InvalidInputError(f"{weights.shape[0]} weights for {r.dim} allocated features")
    floor = nm.floor_for(r.budget)
    active = weights != 0.0
    below = (r.alloc < floor) & active
    if np.any(below):
        idx = int(np.flatnonzero(below)[0])
        raise InfeasibleAllocationError(
            f"feature {idx} has weight {weights[idx]:.3g} but allocation "
            f"{r.alloc[idx]:.3g} below floor {floor:.3g}"
        )
    return float(np.sum(weights[active] ** 2 * nm.sigma_at(r)[active] ** 2))


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
    if not math.isfinite(a):
        raise InvalidInputError(f"slope a must be finite, got {a}")
    if not 0.0 <= label_noise_sd < math.inf:
        raise InvalidInputError(f"label_noise_sd must be finite and >= 0, got {label_noise_sd}")
    rng = rng if rng is not None else RngConfig(0)
    gen = rng.stream("synthetic-data")
    pts = gen.uniform(-0.5, 0.5, size=(n, 3))
    noise = gen.normal(0.0, label_noise_sd, size=n) if label_noise_sd > 0 else 0.0
    labels = synthetic_label(pts, a, noise)
    return Dataset(pts, labels)


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
    _check_allocated(ds, r)
    sigma = nm.sigma_at(r)
    sd = scale * sigma if scale_mode == "sd" else np.sqrt(scale * sigma)
    if scale == 0.0:
        return Dataset(ds.features.copy(), ds.labels.copy())
    rng = rng if rng is not None else RngConfig(0)
    gen = rng.stream("noise-injection")
    delta = gen.normal(0.0, 1.0, size=ds.features.shape) * sd
    return Dataset(ds.features + delta, ds.labels.copy())
