"""Resource-allocation solvers.

Minimizing the aggregate disturbance sqrt(sum_i w_i^2 sigma_i^2(r_i)) over the
budget simplex is a separable convex problem.  At the optimum every funded
feature shares a common marginal value -d sigma/d r_i = lambda, and features
whose marginal at the floor already falls below lambda receive nothing.  The
solver locates that common level by bisection; each step asks the noise
model for the resource at which every feature's marginal reaches the level
(:meth:`NoiseModel.marginal_inverse`) and clamps it to the model's
:meth:`NoiseModel.bracket`, so no noise formula lives in this module.
The closed forms for the inverse and inverse-sqrt families and the bit
budget are provided separately and double as cheap cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .core import NoiseModel, ResourceVector, _as_weights, noise_variance
from .errors import (
    BudgetTooSmallError,
    DegenerateClassifierError,
    InfeasibleSetError,
    InvalidNoiseModelError,
)


@dataclass(frozen=True)
class AllocationResult:
    """Allocation plus the stationarity certificate that produced it.

    lam is the common marginal -d sigma/d r_i shared by funded features
    (for the bit allocator it is the log-domain threshold instead);
    residual is the largest deviation from that stationarity condition.
    """

    r: ResourceVector
    lam: float
    funded: np.ndarray
    residual: float


def _neg_dvar(nm: NoiseModel, w2: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Marginal value of resource on the variance objective:
    g_i(r) = -w_i^2 * d(sigma_i^2)/dr, positive and decreasing in r."""
    return -w2 * nm.dsigma_sq(r)


def _invert_marginal(nm: NoiseModel, w2: np.ndarray, active: np.ndarray,
                     nu: float, floor: float, r_cap: float) -> np.ndarray:
    """Solve g_i(r) = nu per active feature, clamped to [floor, r_cap]."""
    r = np.zeros(w2.shape[0])
    r[active] = np.clip(nm.marginal_inverse(nu, w2)[active], floor, r_cap)
    return r


def _waterfill(weights: np.ndarray, nm: NoiseModel, R: float):
    """Core bisection: returns (allocation, nu) with nu the common marginal
    of the variance objective sum w_i^2 sigma_i^2."""
    d = weights.shape[0]
    w2 = weights**2
    active = w2 > 0.0
    floor, r_cap = nm.bracket(R)
    n_active = int(active.sum())
    if floor * n_active >= R:
        raise InfeasibleSetError(
            f"floor {floor:.3g} x {n_active} active features exceeds budget {R:.3g}"
        )

    g_floor = _neg_dvar(nm, w2, np.full(d, floor))
    g_at_R = _neg_dvar(nm, w2, np.full(d, min(float(R), r_cap)))
    nu_hi = float(np.max(g_floor[active])) * 2.0 + 1e-300
    nu_lo = max(float(np.min(g_at_R[active])) * 0.5, 1e-300)

    def excess(log_nu: float) -> float:
        r = _invert_marginal(nm, w2, active, math.exp(log_nu), floor, r_cap)
        return float(r.sum()) - R

    lo, hi = math.log(nu_lo), math.log(nu_hi)
    f_lo = excess(lo)
    for _ in range(200):
        if f_lo > 0 or n_active * r_cap <= R:
            break
        lo -= 2.0
        f_lo = excess(lo)
    if f_lo <= 0:
        # every feature is capped yet the budget is not spent; sigma is flat
        # beyond the cap, so spread the leftover evenly
        r = _invert_marginal(nm, w2, active, math.exp(lo), floor, r_cap)
        r[active] += (R - r.sum()) / n_active
        return r, math.exp(lo)
    log_nu = brentq(excess, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=500)
    nu = math.exp(log_nu)
    r = _invert_marginal(nm, w2, active, nu, floor, r_cap)
    funded = active & (r > floor * (1.0 + 1e-9))
    pool = funded if np.any(funded) else active
    r[pool] += (R - r.sum()) / pool.sum()  # close the residual budget gap exactly
    return r, nu


def _result_from(weights: np.ndarray, nm: NoiseModel, R: float, r: np.ndarray,
                 nu: float) -> AllocationResult:
    floor = nm.floor_for(R)
    clamped = np.maximum(r, floor)
    rv = ResourceVector(r, R)
    agg = math.sqrt(noise_variance(weights, rv, nm))
    active = weights != 0.0
    lam = nu / (2.0 * agg) if agg > 0 else 0.0
    funded_mask = active & (r > floor * (1.0 + 1e-6))
    marginals = _neg_dvar(nm, weights**2, clamped) / (2.0 * agg) if agg > 0 else np.zeros_like(r)
    residual = max(float(np.max(np.abs(marginals[funded_mask] - lam), initial=0.0)),
                   float(np.max(marginals[active & ~funded_mask] - lam, initial=0.0)))
    return AllocationResult(
        r=rv,
        lam=lam,
        funded=np.flatnonzero(funded_mask),
        residual=residual,
    )


def allocate_waterfill(w, nm: NoiseModel, R: float) -> AllocationResult:
    """Optimal allocation for a fixed classifier under a stochastic
    disturbance: minimizes sqrt(sum w_i^2 sigma_i^2(r_i)) over the budget
    simplex by bisection on the common marginal value.

    Features with w_i = 0 receive nothing; features with nonzero weight whose
    marginal at the floor is already below the water level stay clamped at
    the floor and are reported outside the funded set.  The bisection runs to
    machine precision; the result reports its stationarity residual.
    The solve runs on w / max|w|, so that w^2 neither underflows nor
    overflows; the allocation does not depend on the scale of w, and lam and
    the residual scale with it.
    """
    weights = _as_weights(w)
    if not 0 < R < math.inf:
        raise InfeasibleSetError(f"budget must be positive and finite, got {R}")
    if isinstance(nm.scale, np.ndarray) and nm.scale.size not in (1, weights.shape[0]):
        raise InvalidNoiseModelError(
            f"{nm.scale.size} scale constants for {weights.shape[0]} features")
    w_max = float(np.max(np.abs(weights), initial=0.0))
    if w_max == 0.0:
        raise DegenerateClassifierError("all classifier weights are zero")
    unit = weights / w_max
    r, nu = _waterfill(unit, nm, R)
    res = _result_from(unit, nm, R, r, nu)
    return replace(res, lam=res.lam * w_max, residual=res.residual * w_max)


def allocate_adversarial(w, nm: NoiseModel, R: float) -> AllocationResult:
    """Optimal allocation against a worst-case perturbation from the
    ellipsoid {x : sum (x_i / sigma_i(r_i))^2 <= 1}.

    The adversary's best response value sup w.delta equals
    sqrt(sum w_i^2 sigma_i^2(r_i)), so shaping the ellipsoid optimally is the
    same separable problem as the stochastic case and shares its stationarity
    condition w_i^2 sigma_i sigma_i' = const across funded features.
    """
    return allocate_waterfill(w, nm, R)


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


def allocate_quantization(w, R: float) -> AllocationResult:
    """Real-relaxed bit allocation for sigma_i = 2^(-r_i) with r_i >= 1.

    Funded features get r_i = 1 + log2|w_i| - lam where the threshold lam
    makes the budget balance; everything else (including zero weights) keeps
    the single mandatory bit.  lam is returned in this log2 convention.
    """
    weights = _as_weights(w)
    d = weights.shape[0]
    if R < d:
        raise BudgetTooSmallError(f"need at least one bit per feature: R={R} < d={d}")
    nonzero = np.flatnonzero(weights != 0.0)
    r = np.ones(d)
    if nonzero.size == 0:
        return AllocationResult(ResourceVector(r, R), 0.0, np.array([], dtype=int), 0.0)
    logs = np.log2(np.abs(weights[nonzero]))
    order = np.argsort(-logs, kind="stable")
    sorted_logs = logs[order]
    prefix = np.cumsum(sorted_logs)
    lam = None
    k_star = None
    for k in range(nonzero.size, 0, -1):
        cand = (prefix[k - 1] - R + d) / k
        if sorted_logs[k - 1] >= cand and (k == nonzero.size or sorted_logs[k] < cand):
            lam, k_star = float(cand), k
            break
    if lam is None:  # numerically impossible for a valid instance; fall back to all funded
        lam, k_star = float((prefix[-1] - R + d) / nonzero.size), nonzero.size
    funded_local = order[:k_star]
    funded = nonzero[funded_local]
    r[funded] = 1.0 + logs[funded_local] - lam
    return AllocationResult(ResourceVector(r, R), lam, np.sort(funded), 0.0)


def refine_integer_bits(ar: AllocationResult, w, R: float) -> ResourceVector:
    """Round the relaxed bit allocation to integers by trying every integer
    within +-1 of each coordinate, keeping sum <= R and r_i >= 1, and taking
    the combination with the smallest aggregate sigma (ties: lexicographic)."""
    weights = _as_weights(w)
    relaxed = ar.r.alloc
    w2 = weights**2
    cand = []
    for ri in relaxed:
        lo = max(1, math.ceil(ri - 1.0))
        hi = math.floor(ri + 1.0)
        cand.append(list(range(lo, max(lo, hi) + 1)))
    n_combos = np.prod([len(c) for c in cand])
    if n_combos > 1_000_000:
        raise BudgetTooSmallError(f"integer refinement would enumerate {n_combos} combinations")
    best = None
    best_val = math.inf
    for combo in itertools.product(*cand):
        if sum(combo) > R:
            continue
        val = float(np.sum(w2 * np.exp2(-2.0 * np.asarray(combo, dtype=float))))
        if val < best_val:  # first hit wins ties: product() iterates in lex order
            best, best_val = combo, val
    if best is None:
        best = tuple(max(1, math.floor(ri)) for ri in relaxed)
    return ResourceVector(np.asarray(best, dtype=float), R)


def _threshold(v: np.ndarray, target: float):
    """Sort-and-threshold kernel shared by the simplex and L1 projections
    (Duchi et al. 2008): theta with sum max(v_i - theta, 0) = target, and the
    smallest entry of v in the support.  The largest entry is always in the
    support, since cancellation in the cumulative sum can hide it."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    support = u - (css - target) / np.arange(1, v.shape[0] + 1) > 0
    support[0] = True
    rho = int(np.nonzero(support)[0].max()) + 1
    return (css[rho - 1] - target) / rho, u[rho - 1]


def simplex_projection_raw(v: np.ndarray, R: float, floor: float = 0.0) -> np.ndarray:
    """sort-and-threshold simplex projection on a bare array (hot-loop form
    of project_simplex, identical math)."""
    shifted = v - floor
    theta, smallest = _threshold(shifted, R - v.shape[0] * floor)
    out = np.maximum(shifted - theta, 0.0) + floor
    gap = R - float(out.sum())
    if gap != 0.0:
        # spread float dust (scales with the input magnitude) over entries
        # that can absorb it without crossing the floor, else over the support
        cand = out >= floor + abs(gap)
        if not np.any(cand):
            cand = shifted >= smallest
        out[cand] += gap / int(cand.sum())
    return out


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact Euclidean projection onto {u : sum |u_i| <= radius} by sorted
    soft-thresholding of the magnitudes."""
    v = np.asarray(v, dtype=float)
    mags = np.abs(v)
    total = mags.sum()
    if total <= radius:
        return v.copy()
    if not (math.isfinite(total) and radius >= 0):
        raise InfeasibleSetError(f"cannot project |v|_1 = {total} onto radius {radius}")
    theta, smallest = _threshold(mags, radius)
    if theta >= smallest:
        # only rounding gets here (theta = u_1 - radius rounds to u_1): the
        # support entries are equal to working precision, so share the radius
        support = mags >= smallest
        return np.where(support, np.sign(v) * (radius / int(support.sum())), 0.0)
    return np.sign(v) * np.maximum(mags - theta, 0.0)


def project_simplex(v, R: float, floor: float = 0.0) -> ResourceVector:
    """Euclidean projection of v onto {r : sum r_i = R, r_i >= floor} by the
    sort-and-threshold rule; exact for every finite input."""
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise InfeasibleSetError("cannot project a point with NaN or infinite entries")
    if not v.shape[0] * floor < R < math.inf:
        raise InfeasibleSetError(
            f"simplex empty or unbounded: R={R}, d*floor={v.shape[0] * floor}")
    return ResourceVector(simplex_projection_raw(v, R, floor), R)
