"""Resource-allocation solvers.

Minimizing the aggregate disturbance sqrt(sum_i w_i^2 sigma_i^2(r_i)) over the
budget simplex is a separable convex problem.  At the optimum every funded
feature shares a common marginal value -d sigma/d r_i = lambda, and features
whose marginal at the floor already falls below lambda receive nothing.  A
per-feature scale c_i enters only as w_i^2 c_i^2, so the water-fill folds it
into the weights once and solves on the model's unit curve s, whose
``pieces`` state every feature's optimal resource as linear pieces in one
level: the budget equation is then a breakpoint problem, solved exactly,
and no noise formula lives in this module.  A closed form gives each
feature one endless piece, so the budget sum is convex in the level and
Newton passes from the left find it without a sort (Michelot 1986).  A
table's pieces end, so its sum is not convex and it keeps the projections'
sort-and-threshold kernel with signed slopes (Kiwiel 2008).  A table brings
one piece per segment and feature, so its curve first brackets the level
and hands over only the pieces inside the bracket, with the resource of
those spent below it as each feature's ``base``.  A tabulated marginal
jumps at its knots, where a feature sits in the gap between two pieces; the
stationarity residual is measured against that subdifferential.  The
relaxed bit budget is the sort kernel with unit slopes, as are the
projections, whose sorted order the online traces depend on; integer bits
follow from it by marginal analysis, and the closed forms of the inverse
families are cross-checks in :mod:`sensealloc.oracles`.  Every
:class:`NoiseModel` is decreasing and convex once constructed, so no solver
checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import NoiseModel, ResourceVector, _as_weights
from .errors import (
    BudgetTooSmallError,
    DegenerateClassifierError,
    InfeasibleAllocationError,
    InfeasibleSetError,
    InvalidInputError,
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


def _waterfill(weights: np.ndarray, curve, floor: float, R: float):
    """Breakpoint search on the unit curve s: returns (allocation, nu) with nu
    the common marginal g_i(r) = -w_i^2 d(s^2)/dr of the variance objective
    sum w_i^2 s^2(r_i), each r_i in [floor, curve.cap] unless R exceeds every cap.
    A feature starts from its ``base`` (the floor, or what its spent pieces hold)."""
    active = weights != 0.0  # also where w^2 underflows: such a feature still needs the floor
    n_active = int(active.sum())
    if floor * n_active >= R:
        raise InfeasibleSetError(
            f"floor {floor:.3g} x {n_active} active features exceeds budget {R:.3g}"
        )
    top, bottom, c, lo, hi, base = curve.pieces(weights[active], floor, R)
    target = R - n_active * floor - np.sum(base - floor)
    endless = bottom is None  # the closed forms: the budget sum is convex in the level
    if endless:
        theta = _newton_level(top.ravel(), c.ravel(), target)
    else:  # a piece that ends gives its slope back there
        v = np.concatenate((top.ravel(), bottom.ravel()))
        theta = _threshold(v, target, np.concatenate((c.ravel(), -c.ravel())))[0]
    theta = max(theta, curve.lowest)
    rising = top > theta
    reach = lo + c * (top - theta)
    r_on = np.where(rising, np.minimum(reach, hi), base).max(axis=1, initial=floor)
    # close the float dust over the features inside a piece by more than the
    # dust, which it moves off no knot, floor or cap.  On endless pieces it is
    # a shift of the level, c a unit, so a feature funded far below the others
    # keeps its relative precision; a table's pieces share it evenly.  With
    # none inside, every feature sits where its whole subdifferential holds the
    # level, so the dust stays; only a budget left over past every cap (the
    # lowest level) is spread.
    gap = (R - n_active * floor) - np.sum(r_on - floor)  # in excess of the floors
    inside = np.any(rising & (lo + abs(gap) < reach) & (reach < hi - abs(gap)), axis=1)
    if np.any(inside):
        share = np.where(inside, c[:, 0] if endless else 1.0, 0.0)
        r_on += gap * share / share.sum()
    elif gap > 0 and theta == curve.lowest:
        funded = r_on > floor * (1.0 + 1e-9)
        pool = funded if np.any(funded) else np.ones_like(funded)
        r_on[pool] += gap / pool.sum()
    r = np.zeros(weights.shape[0])
    r[active] = r_on
    return r, curve.level(theta)


def _result_from(weights: np.ndarray, curve, floor: float, R: float, r: np.ndarray,
                 nu: float) -> AllocationResult:
    clamped = np.maximum(r, floor)
    rv = ResourceVector(r, R)
    active = weights != 0.0
    agg = math.sqrt(float(np.sum(weights[active]**2 * curve.sigma(clamped)[active]**2)))
    lam = nu / (2.0 * agg) if agg > 0 else 0.0
    funded_mask = active & (r > floor * (1.0 + 1e-6))
    # funded: distance of lam from the subdifferential [g(r+), g(r-)], which
    # is |g - lam| for the smooth families; at the floor: g(r+) - lam > 0
    marginal = lambda dvar: -weights**2 * dvar / (2.0 * agg) if agg > 0 else np.zeros_like(r)
    right, left = curve.dsigma_sq_sides(clamped)
    g = marginal(right)
    dist = np.abs(g - lam) if left is right else np.maximum(g - lam, lam - marginal(left))
    residual = max(0.0, float(np.max(dist[funded_mask], initial=0.0)),  # +0.0, not -0.0
                   float(np.max(g[active & ~funded_mask] - lam, initial=0.0)))
    return AllocationResult(
        r=rv,
        lam=lam,
        funded=np.flatnonzero(funded_mask),
        residual=residual,
    )


def allocate_waterfill(w, nm: NoiseModel, R: float) -> AllocationResult:
    """Optimal allocation for a fixed classifier under a stochastic
    disturbance: minimizes sqrt(sum w_i^2 sigma_i^2(r_i)) over the budget
    simplex by one breakpoint search for the common marginal value.

    Features with w_i = 0 receive nothing; features with nonzero weight whose
    marginal at the floor is already below the water level stay clamped at
    the floor and are reported outside the funded set.  The search is exact
    up to rounding; the result reports its stationarity residual.
    The model's scale c enters only as w*c, so the solve runs on the unit
    curve with the weights w*c / max|w*c|; the allocation does not depend
    on the size of w*c, and lam and the residual scale with it.  w*c is
    formed as (w / 2^e) * c with 2^e the power of two next to max|w|, so its
    largest entry stays finite and nonzero, and the division by that entry
    cancels 2^e exactly.
    """
    weights = _as_weights(w)
    if not 0 < R < math.inf:
        raise InfeasibleSetError(f"budget must be positive and finite, got {R}")
    if not np.any(weights):
        raise DegenerateClassifierError("all classifier weights are zero")
    e = int(np.frexp(np.max(np.abs(weights)))[1])
    scaled = np.ldexp(weights, -e) * nm._scale_for(weights)
    w_max = float(np.max(np.abs(scaled)))
    unit, floor = scaled / w_max, nm.floor_for(R)
    r, nu = _waterfill(unit, nm._curve, floor, R)
    res = _result_from(unit, nm._curve, floor, R, r, nu)
    # lam is inf (numpy warns) where the true value exceeds the float range
    lam, residual = np.ldexp([res.lam * w_max, res.residual * w_max], e).tolist()
    return replace(res, lam=lam, residual=residual)


def allocate_adversarial(w, nm: NoiseModel, R: float) -> AllocationResult:
    """Optimal allocation against a worst-case perturbation from the
    ellipsoid {x : sum (x_i / sigma_i(r_i))^2 <= 1}.

    The adversary's best response value sup w.delta equals
    sqrt(sum w_i^2 sigma_i^2(r_i)), so shaping the ellipsoid optimally is the
    same separable problem as the stochastic case and shares its stationarity
    condition w_i^2 sigma_i sigma_i' = const across funded features, so it is
    ``allocate_waterfill`` itself.  No library code calls it any more.
    """
    return allocate_waterfill(w, nm, R)


def allocate_quantization(w, R: float) -> AllocationResult:
    """Real-relaxed bit allocation for sigma_i = 2^(-r_i) with r_i >= 1.

    Funded features get r_i = 1 + log2|w_i| - lam, where the threshold lam
    balances the budget: sum max(log2|w_i| - lam, 0) = R - d over nonzero
    w_i, the projections' kernel with unit slopes.  Everything else
    (including zero weights) keeps the single mandatory bit.  lam is
    returned in this log2 convention.
    """
    weights = _as_weights(w)
    d = weights.shape[0]
    if not 0 < R < math.inf:
        raise InfeasibleSetError(f"budget must be positive and finite, got {R}")
    if not d:
        raise InfeasibleSetError(f"no features to spend the budget R={R} on")
    if R < d:
        raise BudgetTooSmallError(f"need at least one bit per feature: R={R} < d={d}")
    nonzero = np.flatnonzero(weights != 0.0)
    r = np.ones(d)
    if nonzero.size == 0:
        return AllocationResult(ResourceVector(r, R), 0.0, np.array([], dtype=int), 0.0)
    logs = np.log2(np.abs(weights[nonzero]))
    lam, smallest = _threshold(logs, R - d)
    r[nonzero] = 1.0 + np.maximum(logs - lam, 0.0)
    return AllocationResult(ResourceVector(r, R), float(lam), nonzero[logs >= smallest], 0.0)


def refine_integer_bits(ar: AllocationResult, w, R: float) -> ResourceVector:
    """Integer bits r_i >= 1 with sum floor(R) minimizing sum w_i^2 4^(-r_i),
    from the relaxed optimum ``ar`` by marginal analysis (Fox 1966).

    The objective is separable and convex in each integer r_i, so granting
    bits one at a time to the largest drop w_i^2 4^(-r_i) is exact.  Every bit
    the relaxed optimum grants in full is among them, and past those the
    relaxed optimum leaves at most one more bit per feature, so one bit goes
    to each of the floor(R) - sum features with the largest drop (ties: the
    later feature).  All-zero weights, for which every allocation is
    optimal, gain at most one bit each."""
    if not 0 < R < math.inf:
        raise InfeasibleAllocationError(f"budget must be positive and finite, got {R}")
    w2 = _as_weights(w) ** 2
    if w2.shape[0] != ar.r.dim:
        raise InvalidInputError(f"{w2.shape[0]} weights for {ar.r.dim} allocated features")
    bits = np.maximum(1.0, np.floor(ar.r.alloc))
    drop = w2 * np.exp2(-2.0 * bits)
    extra = max(0, math.floor(R) - int(bits.sum()))
    bits[np.lexsort((-np.arange(bits.size), -drop))[:extra]] += 1.0
    return ResourceVector(bits, R)


def _threshold(v: np.ndarray, target: float, c: np.ndarray | None = None):
    """Sort-and-threshold kernel (Duchi et al. 2008; Kiwiel 2008): theta with
    F(theta) = sum c_i max(v_i - theta, 0) = target, and the smallest entry of
    v in the support.  With unit slopes (c None) the largest entry is always
    in the support, since cancellation in the cumulative sum can hide it.
    A piece that ends gives its slope back as a negative one, so the support
    test compares F(v_i) with the target: it holds where the slope sum rounds
    around 0.  F is flat where that sum is not positive; theta is -inf where
    F stays below the target.  Signed slopes come only from a table, whose F
    is not convex; the closed forms' F is, and ``_newton_level`` solves it
    without a sort.  The projections and the bit budget keep the unit-slope
    sort, whose order fixes the rounding that the online traces repeat."""
    if c is None:
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        support = u - (css - target) / np.arange(1, v.shape[0] + 1) > 0
        support[0] = True
        rho = int(np.nonzero(support)[0].max()) + 1
        return (css[rho - 1] - target) / rho, u[rho - 1]
    order = np.argsort(v)[::-1]
    u, c = v[order], c[order]
    slope, area = np.cumsum(c), np.cumsum(c * u)
    support = np.flatnonzero(area - slope * u < target)  # F(u[0]) = 0: empty only if v is
    if not support.size:
        return -math.inf, None
    rho = int(support[-1])
    lower = float(u[rho + 1]) if rho + 1 < u.size else -math.inf
    theta = float(area[rho] - target) / float(slope[rho]) if slope[rho] > 0 else lower
    return min(max(theta, lower), float(u[rho])), u[rho]


def _newton_level(top: np.ndarray, c: np.ndarray, target: float) -> float:
    """theta with F(theta) = sum c_i max(top_i - theta, 0) = target for
    slopes c >= 0 with one positive, by Newton's method from the left
    (Michelot 1986; Condat 2016).  F is convex and decreasing, so the line
    through the pieces still rising at the last level lies below F and meets
    the target at or left of F's root: each pass drops the pieces that its
    level passes, no piece comes back, and a pass that drops none ends on
    the root, within n passes.  Rounding may put a level at the top of every
    piece left; that level stands."""
    pos = c > 0
    top, c = top[pos], c[pos]
    while True:
        theta = (float(c @ top) - target) / float(c.sum())
        rising = top > theta
        if rising.all() or not rising.any():
            return theta
        top, c = top[rising], c[rising]


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
    if not v.size:
        raise InfeasibleSetError(f"no coordinates of an empty point sum to R={R}")
    if not np.all(np.isfinite(v)):
        raise InfeasibleSetError("cannot project a point with NaN or infinite entries")
    if not v.shape[0] * floor < R < math.inf:
        raise InfeasibleSetError(
            f"simplex empty or unbounded: R={R}, d*floor={v.shape[0] * floor}")
    return ResourceVector(simplex_projection_raw(v, R, floor), R)
