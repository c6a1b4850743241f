"""Independent closed-form, brute-force and Monte-Carlo oracles.

Everything here validates solver output through a separate route: the
closed-form allocations of the inverse and inverse-sqrt families and lattice
minimization instead of the water-fill's breakpoint search, sampling instead of
closed forms, active-set enumeration instead of sort-and-threshold.  The
search oracles are slow on purpose and guarded by explicit size caps.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import Dataset, NoiseModel, ResourceVector, RngConfig, _as_weights
from .errors import DegenerateClassifierError, GridTooLargeError, InvalidInputError

#: Size of the temporary in one block of the lattice search's min-plus step.
_BLOCK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class GridSpec:
    """Lattice description for the allocation grid search: step size,
    budget, and a cap on the number of candidate evaluations."""

    budget: float
    resolution: float
    max_points: float = 1e7

    def __post_init__(self):
        if not (self.resolution > 0 and self.budget > 0):
            raise InvalidInputError("budget and resolution must be positive")


def allocate_inverse_sqrt(w, R: float) -> ResourceVector:
    """Closed form for sigma_i = c/sqrt(r_i): r_i = R |w_i| / |w|_1."""
    weights = np.abs(_as_weights(w))
    total = weights.sum()
    if total == 0:
        raise DegenerateClassifierError("all classifier weights are zero")
    return ResourceVector(R * weights / total, R)


def allocate_inverse(w, R: float) -> ResourceVector:
    """Closed form for sigma_i = c/r_i: r_i = R |w_i|^(2/3) / sum |w_j|^(2/3)."""
    weights = np.abs(_as_weights(w)) ** (2.0 / 3.0)
    total = weights.sum()
    if total == 0:
        raise DegenerateClassifierError("all classifier weights are zero")
    return ResourceVector(R * weights / total, R)


def _sigma_sq_feature(nm: NoiseModel, c: float, r: np.ndarray) -> np.ndarray:
    """Oracle-local sigma_i^2 evaluation for a feature of scale c; own
    formulas for the analytic families so the search shares no code with the
    solver."""
    r = np.asarray(r, dtype=float)
    if nm.family == "inverse":
        with np.errstate(divide="ignore"):
            return np.where(r > 0, (c * c) / np.where(r > 0, r, 1.0) ** 2, np.inf)
    if nm.family == "inverse_sqrt":
        with np.errstate(divide="ignore"):
            return np.where(r > 0, (c * c) / np.where(r > 0, r, 1.0), np.inf)
    if nm.family == "quantization":
        return (c * c) * np.exp2(-2.0 * r)
    return (c * np.interp(r, nm.table[0], nm.table[1])) ** 2


def grid_alloc_search(w, nm: NoiseModel, R: float,
                      spec: Optional[GridSpec] = None) -> ResourceVector:
    """Exact argmin of the aggregate sigma over the budget lattice
    {r = k*h, sum k = R/h, k >= 0}.

    Implemented as a stage-wise minimization over features (the objective is
    a sum of per-feature costs), which visits the same lattice as full
    enumeration but needs d*(n+1)^2 candidate evaluations instead of
    C(n+d-1, d-1).  Ties resolve to the lexicographically smallest vector.
    Guarded to d <= 4 and to ``spec.max_points`` evaluations.
    """
    weights = _as_weights(w)
    d = weights.shape[0]
    if d > 4:
        raise GridTooLargeError(f"grid search supports d <= 4, got d={d}")
    if spec is None:
        spec = GridSpec(budget=R, resolution=1e-3 * R)
    n = int(round(spec.budget / spec.resolution))
    if n < 1:
        raise InvalidInputError("resolution coarser than the budget")
    work = d * (n + 1) ** 2
    if work > spec.max_points:
        raise GridTooLargeError(f"{work} candidate evaluations exceed cap {spec.max_points:g}")
    h = spec.budget / n
    levels = h * np.arange(n + 1)
    scales = np.broadcast_to(nm._scale_for(weights), d)

    costs = []
    for i in range(d):
        if weights[i] == 0.0:
            costs.append(np.zeros(n + 1))
        else:
            costs.append(weights[i] ** 2 * _sigma_sq_feature(nm, scales[i], levels))

    if d == 1:
        return ResourceVector(np.array([spec.budget]), spec.budget)

    # best[k][m]: minimal cost of spending exactly m lattice units on
    # features k..d-1 (computed back to front).  Row m of the window over
    # best[k + 1] padded with n leading infs, plus costs[k] reversed, holds
    # costs[k][j] + best[k + 1][m - j] at column n - j for every j <= m and
    # inf beyond; rows go in blocks of about _BLOCK_BYTES.
    best = np.zeros((d, n + 1))
    best[d - 1] = costs[d - 1]
    rows = max(1, _BLOCK_BYTES // (8 * (n + 1)))
    for k in range(d - 2, 0, -1):
        window = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((np.full(n, np.inf), best[k + 1])), n + 1)
        reversed_cost = costs[k][::-1]
        for m in range(0, n + 1, rows):
            best[k, m:m + rows] = (window[m:m + rows] + reversed_cost).min(axis=1)
    alloc = np.zeros(d, dtype=int)
    m = n
    for k in range(d - 1):
        cand = costs[k][: m + 1] + best[k + 1][m::-1]
        target = np.min(cand)
        j = int(np.flatnonzero(cand == target)[0])  # smallest j: lexicographic winner
        alloc[k] = j
        m -= j
    alloc[d - 1] = m
    return ResourceVector(levels[alloc], spec.budget)


def oracle_tabulated_waterfill(w, nm: NoiseModel, R: float) -> np.ndarray:
    """Water-fill of a tabulated model by bisection on the level, apart from
    the solver's pieces and breakpoint kernel.

    With a_i = (w_i c_i / max|w c|)^2, feature i holds rho(theta / a_i) at the
    level theta, where rho inverts the unit marginal h = -d(s^2)/dr of the
    table: h is linear in r on each segment and jumps down at the knots, so
    ``np.interp`` over the knot marginals reads rho off directly.  The level
    is bisected to adjacent floats on F(theta) = sum_i max(rho(theta / a_i),
    floor) = R.  Zero weights get 0, and a weight whose a_i underflows keeps
    the floor.  Past every cap the leftover is spread evenly over the
    weights with a_i > 0."""
    weights = _as_weights(w)
    r_grid, s_grid = (np.asarray(x, dtype=float) for x in nm.table)
    m = np.diff(s_grid) / np.diff(r_grid)
    marginals = np.column_stack((-2.0 * s_grid[:-1] * m, -2.0 * s_grid[1:] * m)).ravel()
    at = np.repeat(r_grid, 2)[1:-1]  # r at each entry of marginals
    u = np.abs(weights * nm._scale_for(weights))
    a = (u / u.max()) ** 2
    floor, live = nm.floor_for(R), a > 0

    def held(theta: float) -> np.ndarray:
        r = np.where(weights != 0.0, floor, 0.0)
        r[live] = np.maximum(np.interp(-theta / a[live], -marginals, at), floor)
        return r

    lo, hi = 0.0, float(marginals[0])  # F(hi) = the floors < R
    if held(lo).sum() <= R:
        r = held(lo)
        r[live] += (R - r.sum()) / int(live.sum())
        return r
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if held(mid).sum() >= R else (lo, mid)
    return held(lo)


def mc_expected_loss(ds: Dataset, w, b: float, r: ResourceVector, nm: NoiseModel,
                     loss_kind: str, n_draws: int, rng: RngConfig) -> Tuple[float, float]:
    """Monte-Carlo estimate of the expected loss under per-feature Gaussian
    noise with sd sigma_i(r_i); returns (mean, standard error)."""
    if n_draws < 1000:
        raise InvalidInputError("use at least 1000 draws")
    if isinstance(n_draws, bool) or not isinstance(n_draws, numbers.Integral):
        raise InvalidInputError(f"n_draws must be an integer, got {n_draws!r}")
    if loss_kind not in ("square", "hinge"):
        raise InvalidInputError(f"unknown loss kind {loss_kind!r}")
    weights = _as_weights(w)
    sd = np.where(weights == 0.0, 0.0, nm.sigma_at(r))  # zero-weight features never enter the loss
    gen = rng.stream("mc-expected-loss")
    clean = ds.features @ weights + b
    per_draw = np.empty(n_draws)
    done = 0
    while done < n_draws:
        k = min(2000, n_draws - done)
        # fresh noise per sample, per feature, per draw
        delta = gen.normal(0.0, 1.0, size=(k, ds.n_samples, ds.n_features)) * sd
        shifted = clean[None, :] + delta @ weights
        if loss_kind == "square":
            vals = (ds.labels[None, :] - shifted) ** 2
        else:
            vals = np.maximum(0.0, 1.0 - ds.labels[None, :] * shifted)
        per_draw[done:done + k] = vals.mean(axis=1)
        done += k
    mean = float(per_draw.mean())
    stderr = float(per_draw.std(ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
    return mean, stderr


def mc_ellipsoid_support(w, r: ResourceVector, nm: NoiseModel, n_draws: int,
                         rng: RngConfig) -> float:
    """Sampled sup of w.delta over the ellipsoid {x : sum (x_i/sigma_i)^2 <= 1}:
    the maximum over random boundary points (the sup of a linear function over
    a ball sits on the boundary)."""
    weights = _as_weights(w)
    sd = np.where(weights == 0.0, 0.0, nm.sigma_at(r))
    gen = rng.stream("mc-support")
    best = 0.0
    done = 0
    while done < n_draws:
        k = min(200_000, n_draws - done)
        g = gen.normal(size=(k, weights.shape[0]))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vals = (g * sd) @ weights
        best = max(best, float(vals.max()))
        done += k
    return best


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of f at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def oracle_project_simplex(v: np.ndarray, R: float, floor: float = 0.0) -> np.ndarray:
    """Projection onto {sum r = R, r >= floor} by enumerating every active
    set: fix a subset at the floor, spread the equality residual over the
    rest, keep the feasible candidate closest to v."""
    v = np.asarray(v, dtype=float).ravel()
    d = v.size
    best = None
    best_dist = math.inf
    for mask in itertools.product([False, True], repeat=d):
        fixed = np.array(mask)
        free = ~fixed
        n_free = int(free.sum())
        if n_free == 0:
            continue
        cand = np.full(d, floor)
        shift = (R - floor * fixed.sum() - v[free].sum()) / n_free
        cand[free] = v[free] + shift
        if np.any(cand[free] < floor - 1e-12):
            continue
        dist = float(np.sum((cand - v) ** 2))
        if dist < best_dist - 1e-15:
            best, best_dist = cand, dist
    return best


def oracle_project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """L1-ball projection through the simplex oracle on |v| with restored
    signs; identity when v is already inside."""
    v = np.asarray(v, dtype=float).ravel()
    if np.abs(v).sum() <= radius:
        return v.copy()
    mags = oracle_project_simplex(np.abs(v), radius, 0.0)
    return np.sign(v) * mags


def oracle_project_l2(v: np.ndarray, radius: float) -> np.ndarray:
    """L2-ball projection via the Lagrange condition u = v / (1 + mu) with mu
    chosen to land on the sphere when the cap binds."""
    v = np.asarray(v, dtype=float).ravel()
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v.copy()
    mu = norm / radius - 1.0
    return v / (1.0 + mu)


def oracle_integer_bits(w, R: int) -> np.ndarray:
    """Exhaustive integer bit allocation: argmin of sum w_i^2 4^(-r_i) over
    integer r >= 1 with sum r <= R; ties resolve lexicographically."""
    weights = _as_weights(w)
    d = weights.shape[0]
    best = None
    best_val = math.inf
    for combo in itertools.product(range(1, int(R) - d + 2), repeat=d):
        if sum(combo) > R:
            continue
        val = float(np.sum(weights**2 * np.exp2(-2.0 * np.asarray(combo, dtype=float))))
        if val < best_val:
            best, best_val = np.asarray(combo, dtype=float), val
    return best
