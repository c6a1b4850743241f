"""The benchmark's workloads.

Every workload is a closed loop: one caller in one process issues one unit
of work, waits for it, checks its output and only then issues the next.  A
unit's inputs come from the workload seed and the unit index alone, so the
same seed gives the same inputs.  Only the unit itself is timed; input
preparation and output checks (including every oracle call) run outside the
timed region.  The workloads call only names that ``sensealloc`` exports.

Why these workloads (the time splits were measured on a 2-core shared Xeon
VM with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1):

* ``experiment_synthetic`` is the paper's synthetic a=7 protocol
  (acceptance criterion 06) driven the way ``sensealloc experiment --config``
  drives it.  Robust-hinge training dominates it: of a 3.9 s unit,
  ``solve_robust_hinge`` took 3.2 s and ``fit_hinge`` 0.6 s, while
  ``inject_noise`` and ``allocate_adversarial`` took under 1% together.
  It exercises the batch layer and never calls the online layer.  It is the
  workload where ROADMAP item 2 (hinge subgradient as one matvec, shared
  warm start) must show.
* ``online_multiseed`` runs several seeds of ``run_unknown`` (criterion 08b)
  and of ``run_noisy`` under both allocation rules (criterion 09), one after
  another.  The cost is a per-round Python loop of about 60-80 us, spent
  mostly in ``SampleOracle.measure``, ``simplex_projection_raw`` and
  ``project_l1_ball``.  It is the workload for ROADMAP item 3 (lockstep
  runs over a leading run axis); neither the batch layer nor the
  water-filling solver runs in it, so item 2 and item 4 predict no change.
* ``alloc_analytic`` solves allocations for the closed-form noise families
  (water-filling and closed forms, d from 3 to 10^4).  ROADMAP item 4
  (one marginal-inversion interface per family) and item 5 (input checks on
  every entry point) both touch this path; its prediction under item 4 is
  no change, so a slowdown of the analytic path shows here.
* ``alloc_tabulated`` solves allocations for the conftest 400-knot 1/sqrt(r)
  table at d=3 and d=30, where a per-feature ``brentq`` runs inside an
  outer ``brentq`` (about 0.1 s at d=3 and 1 s at d=30, so the d=30 solve
  is most of a unit).  ROADMAP item 4's exact vectorised inversion must
  show here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

import sensealloc as sa


#: Fewest untraced/traced unit pairs in a traced run.
TRACE_PAIRS = 5


def unit_seed(seed: int, k: int) -> int:
    """Seed of unit k, derived from the workload seed alone."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _draw_weights(gen: np.random.Generator, d: int) -> np.ndarray:
    """Magnitudes log-uniform on [0.3, 3] with random signs, as criterion 01."""
    mags = np.exp(gen.uniform(math.log(0.3), math.log(3.0), d))
    return mags * gen.choice([-1.0, 1.0], d)


class Workload:
    """One benchmark workload.

    ``prepare(k)`` builds the inputs of unit k (untimed), ``execute`` runs the
    unit (timed) and ``check`` returns the list of violated output checks
    (untimed).  ``work`` is the number of operations a unit completes, in
    the unit named by ``ops_name``.  ``unit_seconds`` is the nominal length
    of one unit; it sizes the fixed-work traced run, so that counts from the
    traced run repeat exactly between commits.
    """

    name = ""
    ops_name = ""
    unit_seconds = 1.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self, k: int):
        raise NotImplementedError

    def execute(self, inputs):
        raise NotImplementedError

    def work(self, inputs) -> int:
        raise NotImplementedError

    def check(self, inputs, outputs) -> List[str]:
        raise NotImplementedError

    def trace_units(self, seconds: int) -> int:
        """Units of the traced run, each run once untraced and once traced:
        as many as fill the run length, and at least TRACE_PAIRS, so that the
        median overhead of a pair is not one pair's noise."""
        return max(TRACE_PAIRS, int(seconds / (2.0 * self.unit_seconds)))


# --------------------------------------------------------------------------
# experiment_synthetic


class ExperimentSynthetic(Workload):
    """Criterion 06's shape (kind=synthetic, a=7, n=24000, inverse_sqrt noise,
    budgets on the geomspace(1.5, 40) grid), cut to 2 folds x 4 budgets so a
    unit takes a few seconds.  Each unit is what ``sensealloc experiment
    --config <ini> --seed <s> --out <csv>`` does: load the config with the
    seed and output overrides, ``run_experiment``, ``emit_results``.  Units
    differ by seed only.  The 2 x 4 grid is the smallest one on which the
    matched-error ratio is defined (both error curves must cross 0.15).
    """

    name = "experiment_synthetic"
    ops_name = "cells_per_s"
    unit_seconds = 4.5
    FOLDS = 2
    BUDGETS = tuple(float(v) for v in np.geomspace(1.5, 40.0, 4))
    RULES = ("fixed_clf_optimal", "optimal", "uniform")
    TARGET_ERROR = 0.15
    RATIO_BAND = (1.6, 2.2)  # criterion 06

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config_path = workdir / "synthetic-a7.ini"
        self.config_path.write_text(
            "[experiment]\n"
            "kind = synthetic\n"
            f"budgets = {' '.join(repr(b) for b in self.BUDGETS)}\n"
            f"folds = {self.FOLDS}\n"
            f"seed = {seed}\n"
            "noise_family = inverse_sqrt\n"
            f"target_error = {self.TARGET_ERROR}\n"
            "[synthetic]\n"
            "a = 7\n"
            "n = 24000\n"
            "[output]\n"
            "format = csv\n"
        )
        sa.load_config(str(self.config_path))  # a bad file fails in set-up

    def prepare(self, k: int):
        return unit_seed(self.seed, k), str(self.workdir / f"result-{k % 2}.csv")

    def execute(self, inputs):
        seed, out_path = inputs
        cfg = sa.load_config(str(self.config_path), {"seed": seed, "out_path": out_path})
        table = sa.run_experiment(cfg)
        sa.emit_results(table, cfg.out_path, cfg.out_format)
        return table

    def work(self, inputs) -> int:
        return self.FOLDS * len(self.BUDGETS)

    def check(self, inputs, outputs) -> List[str]:
        _, out_path = inputs
        table = sa.read_results(out_path, "csv")
        problems = []
        cells = sorted((row.R, row.rule) for row in table.rows)
        expected = sorted((R, rule) for R in self.BUDGETS for rule in self.RULES)
        if len(cells) != len(expected) or any(
                abs(a[0] - b[0]) > 1e-12 * b[0] or a[1] != b[1]
                for a, b in zip(cells, expected)):
            problems.append(f"table cells {cells} != 3 rules x {len(self.BUDGETS)} budgets")
        for row in table.rows:
            if row.folds != self.FOLDS:
                problems.append(f"R={row.R} {row.rule}: {row.folds} folds, want {self.FOLDS}")
            if "divergence" in row.flag:
                problems.append(f"R={row.R} {row.rule}: divergence flag")
        try:
            ratio = sa.resource_ratio(table, self.TARGET_ERROR)
        except ValueError as exc:
            problems.append(f"matched-error ratio undefined: {exc}")
        else:
            lo, hi = self.RATIO_BAND
            if not lo <= ratio <= hi:
                problems.append(f"matched-error budget ratio {ratio:.3f} outside [{lo}, {hi}]")
        return problems


# --------------------------------------------------------------------------
# online_multiseed


def linear_sampler(w_true: np.ndarray):
    """Clean-sample source of criteria 08/09: x ~ N(0, I/d), y = w_true.x."""
    d = w_true.shape[0]
    sd = math.sqrt(1.0 / d)

    def sampler(gen: np.random.Generator):
        x = gen.normal(0.0, sd, size=d)
        return x, float(w_true @ x)

    return sampler


@dataclass(frozen=True)
class OnlineRun:
    kind: str
    budget: float
    floor: float
    cap: float
    trace: object


class OnlineMultiseed(Workload):
    """One unit is one seed of three runs, one after another:

    * ``run_unknown`` as criterion 08b: d=3, w=[1,7,1], R=36, correlated
      oracle, epsilon=0.5, floor 0.02R, weight cap 10;
    * ``run_noisy`` as criterion 09: d=20, w=5e_1, R=20, B_W=6, under the
      ``uniform`` and the ``efficient`` rule.

    All three run criterion 09's horizon of 20 000 rounds (criterion 08b runs
    50 000).  It is the shortest at which 08b's L1 band holds for
    run_unknown: after 10 000 rounds the allocation was 7-8 off a 5.4 cap.
    """

    name = "online_multiseed"
    ops_name = "rounds_per_s"
    unit_seconds = 5.0
    HORIZON = 20_000
    L1_BAND = 0.15  # criterion 08b, as a share of R

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.nm = sa.NoiseModel("inverse_sqrt")
        self.w_unknown = np.array([1.0, 7.0, 1.0])
        self.unknown_cfg = sa.OnlineConfig(weight_cap=10.0, budget=36.0, horizon=self.HORIZON,
                                           epsilon=0.5, resource_floor=0.02 * 36.0)
        self.w_noisy = np.zeros(20)
        self.w_noisy[0] = 5.0
        self.noisy_cfg = sa.OnlineConfig(weight_cap=6.0, budget=20.0, horizon=self.HORIZON)
        self.sample_unknown = linear_sampler(self.w_unknown)
        self.sample_noisy = linear_sampler(self.w_noisy)

    def prepare(self, k: int):
        return unit_seed(self.seed, k)

    def execute(self, seed) -> List[OnlineRun]:
        ucfg, ncfg = self.unknown_cfg, self.noisy_cfg
        oracle = sa.SampleOracle(self.sample_unknown, self.nm, budget=ucfg.budget, dim=3,
                                 mode="correlated", rng=sa.RngConfig(seed))
        runs = [OnlineRun("unknown", ucfg.budget, ucfg.floor(), ucfg.weight_cap,
                          sa.run_unknown(oracle, ucfg))]
        for rule in ("uniform", "efficient"):
            oracle = sa.SampleOracle(self.sample_noisy, self.nm, budget=ncfg.budget, dim=20,
                                     mode="shared", rng=sa.RngConfig(seed))
            runs.append(OnlineRun(rule, ncfg.budget, ncfg.floor(), ncfg.weight_cap,
                                  sa.run_noisy(oracle, ncfg, rule, self.nm)))
        return runs

    def work(self, inputs) -> int:
        return 3 * self.HORIZON

    def check(self, inputs, outputs: List[OnlineRun]) -> List[str]:
        problems = []
        for run in outputs:
            tr = run.trace
            sums = tr.allocations.sum(axis=1)
            if tr.allocations.shape[0] != self.HORIZON:
                problems.append(f"{run.kind}: {tr.allocations.shape[0]} rounds recorded")
            if np.max(np.abs(sums - run.budget)) > 1e-9 * run.budget:
                problems.append(f"{run.kind}: an allocation row does not sum to R")
            if np.min(tr.allocations) < run.floor * (1.0 - 1e-9):
                problems.append(f"{run.kind}: an allocation entry is below the floor")
            if np.max(tr.weight_norms) > run.cap * (1.0 + 1e-12):
                problems.append(f"{run.kind}: weight norm above the cap")
            if not np.all(np.isfinite(tr.losses)):
                problems.append(f"{run.kind}: non-finite loss")
            if run.kind == "unknown":
                target = self.w_unknown / np.abs(self.w_unknown).sum() * run.budget
                gap = float(np.abs(tr.allocations[-1] - target).sum())
                if gap > self.L1_BAND * run.budget:
                    problems.append(f"unknown: final allocation {gap:.2f} (L1) from the "
                                    f"optimum, cap {self.L1_BAND * run.budget:.2f}")
        return problems


# --------------------------------------------------------------------------
# allocation workloads


def _sum_and_residual(ar, R: float, label: str) -> List[str]:
    problems = []
    if abs(float(ar.r.alloc.sum()) - R) > 1e-9 * R:
        problems.append(f"{label}: allocation sums to {ar.r.alloc.sum():.12g}, not R={R:.12g}")
    if not ar.residual < 1e-6:  # criterion 10
        problems.append(f"{label}: stationarity residual {ar.residual:.2e}")
    return problems


class AllocAnalytic(Workload):
    """One unit solves, with fresh weights and budgets per d:

    * ``allocate_waterfill`` for the inverse, inverse_sqrt and quantization
      families at d = 3, 100 and 10^4 (9 solves);
    * the closed forms ``allocate_inverse_sqrt`` and ``allocate_inverse`` at
      the same d (6 solves);
    * ``allocate_quantization`` followed by ``refine_integer_bits`` at d=3
      (1 solve; the integer refinement enumerates 3^d lattice points).

    The d=10^4 water-fills take most of a unit, which is the size where a
    vectorised per-family inversion matters.
    """

    name = "alloc_analytic"
    ops_name = "analytic_solves_per_s"
    unit_seconds = 0.02
    FAMILIES = ("inverse", "inverse_sqrt", "quantization")
    DIMS = (3, 100, 10_000)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.models = {family: sa.NoiseModel(family) for family in self.FAMILIES}

    def trace_units(self, seconds: int) -> int:
        # at least 100 solves per (family, d) so a p90 has 10 samples beyond it
        return max(100, super().trace_units(seconds))

    def prepare(self, k: int):
        gen = np.random.default_rng(unit_seed(self.seed, k))
        return {d: (_draw_weights(gen, d), d * float(gen.uniform(1.0, 3.0))) for d in self.DIMS}

    def execute(self, inputs):
        water = {(family, d): sa.allocate_waterfill(w, nm, R)
                 for family, nm in self.models.items() for d, (w, R) in inputs.items()}
        closed = {}
        for d, (w, R) in inputs.items():
            closed[("inverse_sqrt", d)] = sa.allocate_inverse_sqrt(w, R)
            closed[("inverse", d)] = sa.allocate_inverse(w, R)
        w3, R3 = inputs[3]
        relaxed = sa.allocate_quantization(w3, R3)
        bits = sa.refine_integer_bits(relaxed, w3, R3)
        return water, closed, relaxed, bits

    def work(self, inputs) -> int:
        return len(self.FAMILIES) * len(self.DIMS) + 2 * len(self.DIMS) + 1

    def check(self, inputs, outputs) -> List[str]:
        water, closed, relaxed, bits = outputs
        problems = []
        for (family, d), ar in water.items():
            problems += _sum_and_residual(ar, inputs[d][1], f"waterfill {family} d={d}")
        for key, rv in closed.items():
            # criterion 02: the solver matches the closed forms to rtol 1e-8
            if not np.allclose(water[key].r.alloc, rv.alloc, rtol=1e-8, atol=0.0):
                problems.append(f"waterfill {key[0]} d={key[1]} differs from its closed form")
        w3, R3 = inputs[3]
        if abs(float(relaxed.r.alloc.sum()) - R3) > 1e-9 * R3 or np.min(relaxed.r.alloc) < 1.0:
            problems.append("quantization closed form breaks sum = R or r >= 1")
        b = bits.alloc
        if np.any(b != np.round(b)) or np.min(b) < 1.0 or b.sum() > R3:
            problems.append(f"integer bits {b} are not integers >= 1 within R={R3:.4g}")
        return problems


class AllocTabulated(Workload):
    """One unit solves the conftest table (400 geometric knots of 1/sqrt(r)
    on [0.01, 50], floor 0.01) four times at d=3 and once at d=30.

    The first d=3 solve is the known-answer instance of
    ``test_waterfill_tabulated_tracks_analytic`` (w=[1, 3, 0.7], R=9), which
    must track the inverse_sqrt closed form to atol 0.02.  That band is a
    property of the table's resolution at this instance, not of the solver:
    on seeded instances with R near 9 the lattice oracle's own optimum of
    the table model sits up to 0.028 from the closed form.  So the seeded
    solves are held to optimality instead: every d=3 solve's aggregate sigma
    is within 1e-4 of the ``grid_alloc_search`` lattice oracle (criterion
    01).  Every solve spends the budget with a stationarity residual below
    1e-6.
    """

    name = "alloc_tabulated"
    ops_name = "tabulated_solves_per_s"
    unit_seconds = 1.5
    SEEDED_SMALL_D = 3
    KNOWN_ANSWER = (np.array([1.0, 3.0, 0.7]), 9.0)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        grid = np.geomspace(0.01, 50.0, 400)
        self.nm = sa.NoiseModel("tabulated", table=(grid, 1.0 / np.sqrt(grid)), floor=0.01)

    def prepare(self, k: int) -> List[Tuple[np.ndarray, float]]:
        gen = np.random.default_rng(unit_seed(self.seed, k))
        cases = [self.KNOWN_ANSWER]
        cases += [(_draw_weights(gen, 3), float(gen.uniform(3.0, 9.0)))
                  for _ in range(self.SEEDED_SMALL_D)]
        cases.append((_draw_weights(gen, 30), 30.0 * float(gen.uniform(1.0, 3.0))))
        return cases

    def execute(self, inputs):
        return [sa.allocate_waterfill(w, self.nm, R) for w, R in inputs]

    def work(self, inputs) -> int:
        return len(inputs)

    def _aggregate(self, w: np.ndarray, r: np.ndarray, R: float) -> float:
        rr = np.maximum(np.asarray(r, dtype=float), self.nm.floor_for(R))
        return math.sqrt(float(np.sum(w**2 * self.nm.sigma_sq(rr))))

    def check(self, inputs, outputs) -> List[str]:
        problems = []
        w, R = inputs[0]
        analytic = sa.allocate_inverse_sqrt(w, R).alloc
        if np.max(np.abs(outputs[0].r.alloc - analytic)) > 0.02:
            problems.append("known-answer tabulated solve is more than 0.02 from inverse_sqrt")
        for (w, R), ar in zip(inputs, outputs):
            d = w.shape[0]
            problems += _sum_and_residual(ar, R, f"tabulated d={d}")
            if d != 3:
                continue
            grid = sa.grid_alloc_search(w, self.nm, R, sa.GridSpec(budget=R, resolution=1e-3 * R))
            gap = self._aggregate(w, ar.r.alloc, R) - self._aggregate(w, grid.alloc, R)
            if gap > 1e-4:
                problems.append(f"tabulated d=3 is {gap:.2e} above the lattice oracle at R={R:.4g}")
        return problems


WORKLOADS = {cls.name: cls for cls in
             (ExperimentSynthetic, OnlineMultiseed, AllocAnalytic, AllocTabulated)}
