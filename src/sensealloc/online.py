"""Online joint learning of the classifier and the allocation.

Two regimes:

* unknown disturbance: every round buys two measurements of the same sample,
  at the current allocation and at the allocation shifted by a probe step
  epsilon, and uses their squared difference as a finite-difference estimate
  of the variance derivative (two-point stochastic approximation).  Steps are
  1/sqrt(t); iterates are projected back onto the L2 weight ball and the
  budget simplex after every round.

* noisy training data: measurements are noisy but the noise covariance is
  known as a function of the allocation, so the gradient gets an explicit
  covariance correction; weights live in an L1 ball and the allocation
  follows a plug-in rule of the current weights (uniform, or half uniform
  plus half weight-proportional).  The step is the constant B_W/sqrt(T).

Both run one round loop (:func:`_run`) that measures at the current
allocation and records a per-round trace, against which the closed-form
regret bounds can be checked; each runner supplies only its update step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .allocation import project_l1_ball, simplex_projection_raw
from .core import NoiseModel, RngConfig
from .errors import ConfigError

AllocRule = Union[str, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class BoundParams:
    """Moment bounds feeding the regret formulas: E||x||^4 <= bx4,
    E(noise_i^2) <= bdelta2, E(noise_i^4) <= bdelta4, E||x||^2 <= bx2
    (normalized to 1), and the correlated-probe difference bound bgrad."""

    bx4: float
    bdelta2: float
    bdelta4: float
    bx2: float = 1.0
    bgrad: Optional[float] = None


@dataclass(frozen=True)
class OnlineConfig:
    weight_cap: float
    budget: float
    horizon: int
    epsilon: float = 0.1
    resource_floor: Optional[float] = None
    bound_params: Optional[BoundParams] = None

    def __post_init__(self):
        if not (0 < self.weight_cap < math.inf and 0 < self.budget < math.inf):
            raise ConfigError("weight cap and budget must be positive and finite")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(
                f"probe step epsilon must be positive and finite, got {self.epsilon}")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least one round")

    def floor(self) -> float:
        f = self.resource_floor if self.resource_floor is not None else 1e-9 * self.budget
        return f


@dataclass
class RegretTrace:
    """Per-round record of an online run."""

    losses: np.ndarray
    weight_norms: np.ndarray
    allocations: np.ndarray
    grad_norms: np.ndarray

    @property
    def horizon(self) -> int:
        return self.losses.shape[0]

    @property
    def cumulative_loss(self) -> float:
        return float(self.losses.sum())

    def to_csv(self, path) -> None:
        d = self.allocations.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "loss"] + [f"r_{i + 1}" for i in range(d)] + ["grad_norm"])
            for t in range(self.horizon):
                writer.writerow(
                    [t + 1, repr(float(self.losses[t]))]
                    + [repr(float(v)) for v in self.allocations[t]]
                    + [repr(float(self.grad_norms[t]))]
                )


class SampleOracle:
    """Measurement source for the online algorithms.

    clean_sampler(gen) -> (x, y) draws one clean sample.  Within a round,
    measure(r) returns that sample corrupted by Gaussian noise with per-
    feature sd sigma_i(r_i).  Modes:

    * "shared": one clean sample per round, independent noise per measurement
      (repeat acquisitions of the same data point);
    * "fresh": every measurement draws its own clean sample;
    * "correlated": one clean sample per round and one standard-normal seed
      reused by every measurement, so two acquisitions differ only through
      the sd scaling (tightly coupled probes).
    """

    def __init__(self, clean_sampler: Callable[[np.random.Generator], Tuple[np.ndarray, float]],
                 nm: NoiseModel, budget: float, dim: int, mode: str = "shared",
                 rng: Optional[RngConfig] = None):
        if mode not in ("shared", "fresh", "correlated"):
            raise ConfigError(f"unknown oracle mode {mode!r}")
        self._clean = clean_sampler
        self._nm = nm
        self._budget = budget
        self.dim = dim
        self.mode = mode
        self._gen = (rng if rng is not None else RngConfig(0)).stream("sample-oracle")
        self._x = None
        self._y = None
        self._z = None

    def new_round(self) -> None:
        if self.mode != "fresh":
            self._x, self._y = self._clean(self._gen)
        if self.mode == "correlated":
            self._z = self._gen.standard_normal(self._x.shape[0])

    def measure(self, r: np.ndarray) -> Tuple[np.ndarray, float]:
        if self.mode == "fresh":
            x, y = self._clean(self._gen)
        else:
            x, y = self._x, self._y
        sd = self._nm.sigma(np.maximum(r, self._nm.floor_for(self._budget)))
        if self.mode == "correlated":
            delta = self._z * sd
        else:
            delta = self._gen.standard_normal(x.shape[0]) * sd
        return x + delta, float(y)


def project_l2_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Rescale onto the L2 ball when outside; identity otherwise."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v.copy()
    return v * (radius / norm)


def _run(oracle: SampleOracle, horizon: int, r0: np.ndarray,
         step: Callable[..., Tuple[np.ndarray, np.ndarray, float]]) -> RegretTrace:
    """The round loop of both runners.  Each round draws a sample, measures it
    at the current allocation r, records the squared error err of the
    pre-update weights, their norm and r, then calls
    step(t, w, r, x, err) -> (w, r, grad_norm) for the next iterates."""
    d = oracle.dim
    w = np.zeros(d)
    r = r0
    losses = np.empty(horizon)
    w_norms = np.empty(horizon)
    grad_norms = np.empty(horizon)
    allocations = np.empty((horizon, d))
    for t in range(1, horizon + 1):
        oracle.new_round()
        x, y = oracle.measure(r)
        err = float(w @ x - y)
        losses[t - 1] = err * err
        w_norms[t - 1] = float(np.linalg.norm(w))
        allocations[t - 1] = r
        w, r, grad_norms[t - 1] = step(t, w, r, x, err)
    return RegretTrace(losses, w_norms, allocations, grad_norms)


def run_unknown(oracle: SampleOracle, cfg: OnlineConfig) -> RegretTrace:
    """Joint SGD over (w, r) when the disturbance law is unknown.

    Per round: measure at r and at r + epsilon (every coordinate shifted),
    step weights against the prediction error on the first measurement, step
    the allocation against the finite-difference variance-derivative estimate
    w_i^2 ((x2_i)^2 - (x1_i)^2)/epsilon, then project both factors.  The
    recorded loss is the squared prediction error of the pre-update weights
    on the first (budget-conformant) measurement.
    """
    R = cfg.budget
    eps = cfg.epsilon
    cap = cfg.weight_cap
    floor = cfg.floor()
    d = oracle.dim
    if R <= d * floor:
        raise ConfigError(f"budget {R} cannot cover {d} x floor {floor}")

    def step(t, w, r, x1, err):
        x2, _ = oracle.measure(r + eps)
        eta = 1.0 / math.sqrt(t)
        g_w = err * x1
        g_r = (w * w) * (x2 * x2 - x1 * x1) / eps
        grad_norm = math.sqrt(float(g_w @ g_w) + float(g_r @ g_r))
        return (project_l2_ball(w - eta * g_w, cap),
                simplex_projection_raw(r - eta * g_r, R, floor), grad_norm)

    return _run(oracle, cfg.horizon, np.full(d, R / d), step)


def regret_bound_unknown(cfg: OnlineConfig, T: int, variant: str = "fresh") -> float:
    """Closed-form regret bound for the unknown-disturbance run:
    B sqrt(T)/2 + (sqrt(T) - 1/2) ||grad||^2 with B the feasible-set diameter.

    The gradient-norm constant depends on how the two per-round measurements
    are coupled: "fresh" (independent samples), "shared" (same sample, fresh
    noise), or "correlated" (same sample, coupled noise; needs bgrad).
    """
    p = cfg.bound_params
    if p is None:
        raise ConfigError("bound_params are required to evaluate the regret bound")
    bx4_t = p.bx4 + 6.0 * p.bx2 * p.bdelta2 + p.bdelta4
    bx2_t = p.bx2 + p.bdelta2
    bw = cfg.weight_cap
    if variant == "fresh":
        last = 2.0 * bx4_t * bw**4 / cfg.epsilon**2
    elif variant == "shared":
        last = 2.0 * p.bdelta4 * bw**4 / cfg.epsilon**2
    elif variant == "correlated":
        if p.bgrad is None:
            raise ConfigError("variant 'correlated' needs bgrad")
        last = 2.0 * bw**4 * p.bgrad**2
    else:
        raise ConfigError(f"unknown bound variant {variant!r}")
    grad_sq = 2.0 * bw**2 * bx4_t + 2.0 * bx2_t + last
    diameter = 2.0 * math.sqrt(cfg.budget**2 + bw**2)
    return diameter * math.sqrt(T) / 2.0 + (math.sqrt(T) - 0.5) * grad_sq


def _resolve_rule(rule: AllocRule, R: float, d: int) -> Callable[[np.ndarray], np.ndarray]:
    if callable(rule):
        return rule
    if rule == "uniform":
        return lambda w: np.full(d, R / d)
    if rule == "efficient":
        def efficient(w: np.ndarray) -> np.ndarray:
            l1 = float(np.abs(w).sum())
            if l1 == 0.0:
                return np.full(d, R / d)
            return R / (2.0 * d) + R * np.abs(w) / (2.0 * l1)

        return efficient
    raise ConfigError(f"unknown allocation rule {rule!r}")


def run_noisy(oracle: SampleOracle, cfg: OnlineConfig, alloc_rule: AllocRule,
              nm: NoiseModel) -> RegretTrace:
    """Projected SGD on noisy measurements with a known noise covariance.

    Gradient 2(w.x - y)x - Sigma(r)w, L1-ball projection of the weights, and
    the plug-in allocation rule applied to the fresh weights; the step is the
    constant B_W/sqrt(T).  Losses are squared errors on the noisy
    measurements themselves.
    """
    R = cfg.budget
    cap = cfg.weight_cap
    eta = cap / math.sqrt(cfg.horizon)
    floor = nm.floor_for(R)
    d = oracle.dim
    rule = _resolve_rule(alloc_rule, R, d)

    def step(t, w, r, x, err):
        grad = 2.0 * err * x - nm.sigma_sq(np.maximum(r, floor)) * w
        w = project_l1_ball(w - eta * grad, cap)
        return w, rule(w), float(np.linalg.norm(grad))

    return _run(oracle, cfg.horizon, np.full(d, R / d), step)


def regret_bound_noisy(cfg: OnlineConfig, d: int, bx4: float,
                       rule: str) -> Tuple[float, float]:
    """Gradient-norm constant G and the regret bound (G+1) B_W sqrt(T)/2 for
    the noisy-data run under the uniform or the efficient allocation rule."""
    bw2 = cfg.weight_cap**2
    R = cfg.budget
    if rule == "uniform":
        G = (
            32.0 * bw2 * d**3 / R**2
            + 98.0 * bw2 * d**2 / R**2
            + 32.0 * bw2 * d**2 / R
            + 32.0 * bw2 * d / R
            + 16.0 * d**2 / R
            + 32.0 * bw2 * bx4
            + 16.0
        )
    elif rule == "efficient":
        G = (
            64.0 * d**2 / R**2 * bw2
            + 64.0 * d**2 / R * bw2
            + 32.0 * d**2 / R
            + 392.0 * d / R**2 * bw2
            + 64.0 * bw2 / R
            + 32.0 * bw2 * bx4
            + 16.0
        )
    else:
        raise ConfigError(f"unknown allocation rule {rule!r}")
    bound = 0.5 * (G + 1.0) * cfg.weight_cap * math.sqrt(cfg.horizon)
    return float(G), float(bound)


def best_fixed_square_loss_l1(X: np.ndarray, y: np.ndarray, radius: float,
                              iters: int = 4000) -> float:
    """min over ||w||_1 <= radius of sum (w.x_t - y_t)^2 on a recorded stream.

    Uses the unconstrained least-squares solution when it is feasible;
    otherwise accelerated projected gradient down to the constraint.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    if np.abs(w_ls).sum() <= radius:
        resid = X @ w_ls - y
        return float(resid @ resid)
    gram = X.T @ X
    lip = 2.0 * float(np.linalg.eigvalsh(gram).max())
    xty = X.T @ y
    w = project_l1_ball(w_ls, radius)
    z = w.copy()
    t_prev = 1.0
    for _ in range(iters):
        grad = 2.0 * (gram @ z - xty)
        w_next = project_l1_ball(z - grad / lip, radius)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev**2))
        z = w_next + ((t_prev - 1.0) / t_next) * (w_next - w)
        w, t_prev = w_next, t_next
    resid = X @ w - y
    return float(resid @ resid)
