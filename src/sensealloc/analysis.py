"""Performance analysis: budget ratios, equal-loss budget search, convexity checks.

For the square loss with variance-inverse noise, reaching a given loss level
with a uniform allocation costs exactly d |w|_2^2 / |w|_1^2 times the budget
the optimal allocation needs, with w replaced by w*c under a per-feature
noise scale c.  The numeric budget search below reproduces
that ratio without using the identity, which makes the two routes a useful
cross-check on each other.
"""

from __future__ import annotations

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
    _brentq,
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
                      rule: str = "optimal", rtol: float = 1e-6) -> float:
    """Budget R at which the expected square loss hits target_loss under the
    given allocation rule ("uniform", or "optimal" = the water-fill).

    The loss is strictly decreasing in R, so the bracket grows geometrically
    from 1e-6 until it straddles the target and a root-finder polishes it to
    relative tolerance rtol.  Targets at or below the clean-data MSE floor,
    or met even as R -> 0, have no budget to find.
    """
    if rule not in ("uniform", "optimal"):
        raise InvalidInputError(f"unknown allocation rule {rule!r}")
    weights = _as_weights(w)
    d = weights.shape[0]
    floor = square_loss_total(ds, weights, b, ResourceVector.uniform(1.0, d), nm).data_term
    if target_loss <= floor:
        raise UnattainableLossError(
            f"target {target_loss:.6g} at or below the MSE floor {floor:.6g}"
        )

    def alloc(R: float) -> ResourceVector:
        if rule == "uniform":
            return ResourceVector.uniform(R, d)
        return allocate_waterfill(weights, nm, R).r

    def gap(R: float) -> float:  # the data term does not depend on R
        return floor + noise_variance(weights, alloc(R), nm) - target_loss

    lo, gap_lo = 1e-6, gap(1e-6)
    while gap_lo < 0 and lo > 1e-30:
        lo /= 8.0
        gap_lo = gap(lo)
    if gap_lo < 0:
        raise InvalidInputError(f"target {target_loss:.6g} is met at every budget: the loss "
                                f"tends to {target_loss + gap_lo:.6g} as R -> 0")
    hi = max(2e-6, 2.0 * lo)
    grow = 0
    while gap(hi) > 0:
        hi *= 8.0
        grow += 1
        if grow > 200:
            raise UnattainableLossError(
                f"loss never reaches {target_loss:.6g}; noise floor too high"
            )
    return _brentq(gap, lo, hi, xtol=2e-12, rtol=rtol, maxiter=300)


def budget_ratio_bounds(w_uniform, w_optimal) -> tuple[float, float]:
    """Sandwich on the end-to-end budget ratio when each regime trains its
    own classifier: ratio(w from uniform training) <= measured <= ratio(w
    from joint training)."""
    return (
        uniform_optimal_budget_ratio(w_uniform),
        uniform_optimal_budget_ratio(w_optimal),
    )


def ratio_report(ds: Dataset, w, b: float, nm: NoiseModel,
                 target_loss: Optional[float] = None) -> RatioReport:
    """Run both equal-loss searches for one classifier and compare with the
    closed-form ratio of the scaled weights w*c."""
    weights = _as_weights(w)
    if target_loss is None:
        floor = square_loss_total(
            ds, weights, b, ResourceVector.uniform(1.0, weights.shape[0]), nm
        ).data_term
        target_loss = floor + np.abs(weights).sum() ** 2 / 10.0
    r_unif = equal_loss_budget(ds, weights, b, nm, target_loss, "uniform")
    r_opt = equal_loss_budget(ds, weights, b, nm, target_loss, "optimal")
    return RatioReport(
        theoretical_ratio=uniform_optimal_budget_ratio(weights * nm.scale),
        empirical_ratio=r_unif / r_opt,
    )


def verify_convexity(loss_fn: Callable[[np.ndarray], float],
                     domain_sampler: Callable[[np.random.Generator], tuple],
                     n_checks: int = 1000,
                     rng: Optional[RngConfig] = None,
                     slack: float = 1e-10) -> ConvexityReport:
    """Midpoint-convexity probe along random segments.

    domain_sampler(gen) must return a pair of points (each accepted by
    loss_fn); a segment counts as a violation when the midpoint value exceeds
    the chord average by more than ``slack`` (plus a relative float cushion).
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
        tol = slack + 1e-12 * max(abs(fa), abs(fc), 1.0)
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
