"""Performance analysis: budget ratios, equal-loss budget search, convexity checks.

For the square loss with variance-inverse noise, reaching a given loss level
with a uniform allocation costs exactly d |w|_2^2 / |w|_1^2 times the budget
the optimal allocation needs, with w replaced by w*c under a per-feature
noise scale c.  The numeric budget search below reproduces
that ratio without using the identity, which makes the two routes a useful
cross-check on each other.  It is Newton's method from the left on the
convex, decreasing noise term of each rule, with no bracket and no
tolerance: the uniform rule starts at the smallest feasible budget, the
optimal rule at the uniform root over d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .allocation import allocate_waterfill
from .core import (
    Dataset,
    NoiseModel,
    ResourceVector,
    RngConfig,
    _as_weights,
    generate_synthetic,
    noise_variance,
)
from .errors import DegenerateClassifierError, InvalidInputError, UnattainableLossError
from .losses import square_loss_total


@dataclass(frozen=True)
class RatioReport:
    """Uniform-to-optimal budget ratio, by formula and by numeric search."""

    theoretical_ratio: float
    empirical_ratio: float


@dataclass(frozen=True)
class ConvexityReport:
    checks: int
    violations: int
    max_violation: float


def uniform_optimal_budget_ratio(w) -> float:
    """Ratio of budgets needed for equal square loss, uniform over optimal
    allocation: d |w|_2^2 / |w|_1^2.  Always in [1, d]."""
    weights = _as_weights(w)
    l1 = np.abs(weights).sum()
    if l1 == 0:
        raise DegenerateClassifierError("all classifier weights are zero")
    d = weights.shape[0]
    return float(d * np.sum(weights**2) / l1**2)


def equal_loss_budget(ds: Dataset, w, b: float, nm: NoiseModel, target_loss: float,
                      rule: str = "optimal") -> float:
    """Budget R at which the expected square loss hits target_loss under the
    given allocation rule ("uniform", or "optimal" = the water-fill).

    The data term does not depend on R, so R solves V(R) = target_loss minus
    the data term for the noise variance V of the rule.  V is convex and
    decreasing, and Newton's method from a budget left of the root finds it
    with no bracket: a tangent lies below V, so no step passes the root, and
    the search ends when V reaches the target or a step no longer moves R.
    The uniform rule starts at the smallest feasible budget (for a closed
    form with no fixed floor, 1e-6 divided by 8 until V lies above the
    target); the optimal rule starts at the uniform root over d, which lies
    left of its own root.  Targets at or below the clean-data MSE floor, met
    at every budget, or above every budget's loss have no budget to find.
    """
    if rule not in ("uniform", "optimal"):
        raise InvalidInputError(f"unknown allocation rule {rule!r}")
    weights = _as_weights(w)
    data = _data_term(ds, weights, b, nm)
    r_unif = _uniform_budget(weights, nm, data, target_loss)
    if rule == "uniform":
        return r_unif
    return _optimal_budget(weights, nm, target_loss - data, r_unif)


def _data_term(ds: Dataset, weights: np.ndarray, b: float, nm: NoiseModel) -> float:
    return square_loss_total(ds, weights, b, ResourceVector.uniform(1.0, weights.shape[0]),
                             nm).data_term


def _uniform_budget(weights: np.ndarray, nm: NoiseModel, data: float, target: float) -> float:
    """Root of V_u(R) = sum w^2 c^2 s^2(R/d) = target - data on the unit curve
    s, with slope sum w^2 c^2 s^2'(R/d) / d from the right."""
    if math.isnan(target):
        raise InvalidInputError("target loss is NaN")
    if target <= data:
        raise UnattainableLossError(f"target {target:.6g} at or below the MSE floor {data:.6g}")
    d, curve, excess = weights.shape[0], nm._curve, target - data
    a = float(np.sum((weights * nm._scale_for(weights)) ** 2))

    def value(R: float) -> tuple[float, float]:
        return (a * float(curve.sigma(R / d)) ** 2,
                a * float(curve.dsigma_sq_sides(R / d)[0]) / d)

    R = d * nm.floor_for(0.0)  # the smallest feasible budget: 0 without a fixed floor
    if not R:
        R = 1e-6
        while value(R)[0] < excess and R > 1e-30:
            R /= 8.0
    noise = value(R)[0]
    if noise < excess:
        raise InvalidInputError(f"target {target:.6g} is met at every budget: the loss is "
                                f"{data + noise:.6g} already at R = {R:.3g}")
    return _newton_from_left(value, R, excess)


def _optimal_budget(weights: np.ndarray, nm: NoiseModel, excess: float,
                    r_unif: float) -> float:
    """Root of the water-fill's V(R) = excess, whose slope -2 sqrt(V) lam comes
    with the solve (Boyd & Vandenberghe 2004, sec. 5.6).  Every r_i <= R, so
    V(R) >= V_u(d R) and the uniform root over d lies left of the root, as
    does the smallest feasible budget n r0 (the water-fill needs a hair more)."""

    def value(R: float) -> tuple[float, float]:
        res = allocate_waterfill(weights, nm, R)
        noise = noise_variance(weights, res.r, nm)
        return noise, -2.0 * math.sqrt(noise) * res.lam

    n = np.count_nonzero(weights)
    start = max(r_unif / weights.shape[0], math.nextafter(n * nm.floor_for(0.0), math.inf))
    return _newton_from_left(value, start, excess)


def _newton_from_left(value, R: float, excess: float) -> float:
    """Newton's method on a convex decreasing V, value(R) = (V, V'), from R with
    V(R) >= excess: each step lands at or left of the root, so R only rises.
    A flat V above the excess (a table past its caps) never reaches it."""
    noise, slope = value(R)
    while noise > excess:
        if not slope < 0:
            raise UnattainableLossError(f"loss never reaches the target: the noise term stays "
                                        f"at {noise:.6g} above {excess:.6g} for R >= {R:.6g}")
        nxt = R + (noise - excess) / -slope
        if not nxt > R:
            break
        R = nxt
        noise, slope = value(R)
    return float(R)


def budget_ratio_bounds(w_uniform, w_optimal) -> tuple[float, float]:
    """Sandwich on the end-to-end budget ratio when each regime trains its
    own classifier: ratio(w from uniform training) <= measured <= ratio(w
    from joint training)."""
    return (
        uniform_optimal_budget_ratio(w_uniform),
        uniform_optimal_budget_ratio(w_optimal),
    )


def ratio_report(ds: Dataset, w, b: float, nm: NoiseModel) -> RatioReport:
    """Run both equal-loss searches for one classifier, at a target loss of
    the data term plus |w|_1^2 / 10, and compare with the closed-form ratio
    of the scaled weights w*c."""
    weights = _as_weights(w)
    data = _data_term(ds, weights, b, nm)
    target_loss = data + np.abs(weights).sum() ** 2 / 10.0
    r_unif = _uniform_budget(weights, nm, data, target_loss)
    r_opt = _optimal_budget(weights, nm, target_loss - data, r_unif)
    return RatioReport(
        theoretical_ratio=uniform_optimal_budget_ratio(weights * nm.scale),
        empirical_ratio=r_unif / r_opt,
    )


def verify_convexity(loss_fn: Callable[[np.ndarray], float],
                     domain_sampler: Callable[[np.random.Generator], tuple],
                     n_checks: int = 1000,
                     rng: Optional[RngConfig] = None) -> ConvexityReport:
    """Midpoint-convexity probe along random segments.

    domain_sampler(gen) must return a pair of points (each accepted by
    loss_fn); a segment counts as a violation when the midpoint value exceeds
    the chord average by more than 1e-10 (plus a relative float cushion).
    Violations are reported, never raised; a clean run on a convex loss and a
    dirty run on a concave fixture are both informative.
    """
    gen = (rng if rng is not None else RngConfig(0)).stream("convexity-check")
    violations = 0
    worst = 0.0
    for _ in range(n_checks):
        a, c = domain_sampler(gen)
        a = np.asarray(a, dtype=float)
        c = np.asarray(c, dtype=float)
        mid = (a + c) / 2.0
        fa, fc, fm = loss_fn(a), loss_fn(c), loss_fn(mid)
        chord = 0.5 * (fa + fc)
        gap = fm - chord
        tol = 1e-10 + 1e-12 * max(abs(fa), abs(fc), 1.0)
        if gap > tol:
            violations += 1
            worst = max(worst, gap)
    return ConvexityReport(checks=n_checks, violations=violations, max_violation=worst)


def divider_weights(a: float) -> np.ndarray:
    """Classifier normal to the plane z = x + a*y: (-1, -a, 1)."""
    return np.array([-1.0, -a, 1.0])


def divider_ratio_formula(a: float) -> float:
    """Budget ratio for the 3-feature divider family: 3(2 + a^2)/(2 + a)^2."""
    return 3.0 * (2.0 + a * a) / (2.0 + a) ** 2


def ratio_sweep(a_values, nm: NoiseModel, n_samples: int = 400,
                seed: int = 0) -> list[tuple[float, float, float]]:
    """(a, theoretical, empirical) rows for a sweep of divider slopes; the
    empirical column comes from the numeric equal-loss budget searches."""
    rows = []
    for a in a_values:
        w = divider_weights(a)
        ds = generate_synthetic(a, n_samples, label_noise_sd=0.05,
                                rng=RngConfig(seed + int(round(100 * a))))
        rep = ratio_report(ds, w, 0.0, nm)
        rows.append((float(a), rep.theoretical_ratio, rep.empirical_ratio))
    return rows
