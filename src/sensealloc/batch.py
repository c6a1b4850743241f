"""Joint batch optimization of (classifier, allocation).

Both solvers share one alternation, ``_alternate``: refit the classifier at
fixed allocation, then water-fill the budget for it.  The square-loss path
refits by a generalized-ridge solve in (w, b), the adversarial-hinge path by
subgradient descent on the robust objective; the optimal adversarial
ellipsoid is the same water-fill.  No half-step increases the joint
objective, so the recorded trace is nonincreasing up to float dust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .allocation import AllocationResult, allocate_waterfill
from .core import Dataset, LinearClassifier, NoiseModel, ResourceVector, _check_allocated
from .errors import InvalidInputError, RankDeficiencyError
from .losses import robust_hinge_objective, square_loss_total


@dataclass
class SolveReport:
    """Solver outcome: final iterate, allocation certificate, and the
    objective value at the start and after every half-step."""

    classifier: LinearClassifier
    resources: ResourceVector
    allocation: Optional[AllocationResult]
    objective_trace: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    degenerate: bool = False
    separable_warning: bool = False

    @property
    def objective(self) -> float:
        return self.objective_trace[-1] if self.objective_trace else math.nan


def ridge_step(ds: Dataset, r: ResourceVector, nm: NoiseModel) -> LinearClassifier:
    """Exact minimizer of sum_i w_i^2 sigma_i^2(r_i) + mean squared error.

    Normal equations on the bias-augmented design with an unpenalized constant
    column; the diagonal penalty sigma_i^2 makes the system positive definite
    whenever any noise is present.
    """
    _check_allocated(ds, r)
    X = ds.features
    y = ds.labels
    M, d = X.shape
    penalty = nm.sigma_at(r) ** 2
    Xa = np.hstack([X, np.ones((M, 1))])
    A = Xa.T @ Xa / M + np.diag(np.append(penalty, 0.0))
    rhs = Xa.T @ y / M
    if np.all(penalty == 0.0) and np.linalg.cond(A) > 1e12:
        raise RankDeficiencyError("zero penalty and rank-deficient design matrix")
    try:
        beta = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(str(exc)) from exc
    return LinearClassifier(beta[:d], float(beta[d]))


def _alternate(ds: Dataset, nm: NoiseModel, R: float, clf: LinearClassifier,
               fit: Callable, objective: Callable, optimize_allocation: bool,
               tol: float, max_iter: int) -> SolveReport:
    """From ``clf`` at the uniform allocation, each round sets
    clf = fit(r, clf) and then, if ``optimize_allocation``, water-fills r for
    its weights; objective(clf, r) is traced at the start and after every
    half-step.  Stops as degenerate when the weights vanish, and as converged
    when a round lowers the trace by at most ``tol`` relative."""
    r = ResourceVector.uniform(R, ds.n_features)
    report = SolveReport(classifier=clf, resources=r, allocation=None,
                         objective_trace=[objective(clf, r)])
    for it in range(1, max_iter + 1):
        prev = report.objective_trace[-1]
        clf = report.classifier = fit(r, clf)
        report.iterations = it
        report.objective_trace.append(objective(clf, r))
        if np.linalg.norm(clf.weights) < 1e-12:
            report.degenerate = True
            break
        if optimize_allocation:
            report.allocation = allocate_waterfill(clf.weights, nm, R)
            r = report.resources = report.allocation.r
            report.objective_trace.append(objective(clf, r))
        if prev - report.objective_trace[-1] <= tol * max(abs(prev), 1e-12):
            report.converged = True
            break
    return report


def solve_square_alternating(ds: Dataset, nm: NoiseModel, R: float,
                             tol: float = 1e-6, max_iter: int = 200) -> SolveReport:
    """Alternate the exact ridge solve and the water-filling allocation until
    the joint square loss stalls.

    The trace opens with the loss at zero weights.  Both half-steps are exact
    minimizations of the same objective, so the trace decreases
    monotonically and the fixed point satisfies the allocation stationarity
    conditions (see the residual on the returned allocation).
    """
    return _alternate(
        ds, nm, R, LinearClassifier(np.zeros(ds.n_features)),
        lambda r, clf: ridge_step(ds, r, nm),
        lambda clf, r: square_loss_total(ds, clf.weights, clf.bias, r, nm).total,
        True, tol, max_iter)


def _hinge_problem(X: np.ndarray, y: np.ndarray, sigma_sq: np.ndarray):
    """The robust hinge objective at a fixed allocation as one function
    (w, b) -> (f, g_w, g_b): the objective f and a subgradient of f / M."""
    M = X.shape[0]

    def problem(w, b):
        # at w = 0 the support term contributes the zero subgradient
        support = math.sqrt(float(np.sum(w**2 * sigma_sq)))
        margins = y * (X @ w + b)
        coef = np.where(margins < 1.0, y, 0.0)
        g_w = -(coef @ X) / M
        if support > 0.0:
            g_w = g_w + (w * sigma_sq) / (support * M)
        g_b = -float(coef.sum()) / M
        f = support + float(np.sum(np.maximum(0.0, 1.0 - margins)))
        return f, g_w, g_b

    return problem


_BAIL_FACTOR = 50.0


def _sgd_once(problem, w0, b0, iters, c):
    """One subgradient run with steps c/sqrt(t) and tail averaging.

    Returns (w, b, f) for the best point seen, which includes the start, so
    the value never exceeds f(w0, b0).  A run that climbs past _BAIL_FACTOR
    times its starting value is hopeless and stops quietly.
    """
    w = w0.copy()
    b = float(b0)
    f0 = problem(w, b)[0]
    best_w, best_b, best_f = w.copy(), b, f0
    tail_from = iters // 2
    w_acc = np.zeros_like(w)
    b_acc = 0.0
    n_acc = 0
    for t in range(1, iters + 1):
        f, g_w, g_b = problem(w, b)
        if f < best_f:
            best_w, best_b, best_f = w.copy(), b, f
        if f > _BAIL_FACTOR * max(f0, 1e-12):
            return best_w, best_b, best_f
        eta = c / math.sqrt(t)
        w = w - eta * g_w
        b = b - eta * g_b
        if t > tail_from:
            w_acc += w
            b_acc += b
            n_acc += 1
    if n_acc:
        f_avg = problem(w_acc / n_acc, b_acc / n_acc)[0]
        if f_avg < best_f:
            best_w, best_b, best_f = w_acc / n_acc, b_acc / n_acc, f_avg
    return best_w, best_b, best_f


def _hinge_descent(X: np.ndarray, y: np.ndarray, sigma_sq: np.ndarray,
                   w0: np.ndarray, b0: float, iters: int):
    """Subgradient descent on the robust hinge objective at fixed allocation,
    with diminishing steps c/sqrt(t) and tail averaging.

    The step constant c is picked from a geometric ladder seeded by the
    start-point subgradient, followed by a longer polish run from the best
    candidate.  Every run's result includes its start point, so the returned
    value never exceeds f(w0, b0).
    """
    problem = _hinge_problem(X, y, sigma_sq)
    f_start, g_w, g_b = problem(w0, float(b0))
    g_norm = math.sqrt(float(np.sum(g_w**2)) + g_b**2)
    c_base = (1.0 + float(np.linalg.norm(w0))) / max(g_norm, 1e-12)
    best = (w0.copy(), float(b0), f_start)
    probe_iters = max(20, iters // 3)
    for k in range(-2, 5):
        c = c_base * 4.0**k
        out = _sgd_once(problem, w0, float(b0), probe_iters, c)
        if out[2] < best[2]:
            best = out
            best_c = c
    if best[2] < f_start:
        polish = _sgd_once(problem, best[0], best[1], iters, best_c)
        if polish[2] < best[2]:
            best = polish
    return best


def fit_hinge(ds: Dataset, iters: int = 400) -> LinearClassifier:
    """Plain hinge minimization (no disturbance term); used as the zero-noise
    reference classifier and as the warm start for the robust solver."""
    d = ds.n_features
    w, b, _ = _hinge_descent(ds.features, ds.labels, np.zeros(d), np.zeros(d), 0.0, iters)
    return LinearClassifier(w, b)


def solve_robust_hinge(ds: Dataset, nm: NoiseModel, R: float,
                       tol: float = 1e-6, max_iter: int = 40,
                       inner_iters: int = 400,
                       optimize_allocation: bool = True,
                       start: Optional[LinearClassifier] = None) -> SolveReport:
    """Adversarial-hinge training: alternate subgradient descent on the
    worst-case objective at fixed allocation with the exact water-filling
    allocation at fixed classifier.

    The alternation starts from ``start``, by default
    ``fit_hinge(ds, inner_iters)``.  That fit depends on neither R nor nm, so
    the experiment harness fits it once per training set and passes it to
    every budget and regime.
    With optimize_allocation=False the allocation stays uniform, which is the
    baseline regime of the experiments.  The per-call subgradient descent
    returns an iterate no worse than its start, and the allocation half-step
    is an exact minimization, so the recorded trace is nonincreasing.
    """
    if not ds.is_classification():
        raise InvalidInputError("robust hinge training requires labels in {-1, +1}")
    if start is None:
        start = fit_hinge(ds, inner_iters)
    elif start.dim != ds.n_features:
        raise InvalidInputError(f"start has {start.dim} weights for {ds.n_features} features")

    def descend(r: ResourceVector, clf: LinearClassifier) -> LinearClassifier:
        w, b, _ = _hinge_descent(ds.features, ds.labels, nm.sigma_at(r) ** 2, clf.weights,
                                 clf.bias, inner_iters)
        return LinearClassifier(w, b)

    report = _alternate(
        ds, nm, R, start, descend,
        lambda clf, r: robust_hinge_objective(ds, clf.weights, clf.bias, r, nm),
        optimize_allocation, tol, max_iter)
    margins = ds.labels * (ds.features @ report.classifier.weights + report.classifier.bias)
    report.separable_warning = bool(np.all(margins >= 1.0 - 1e-12))
    return report
