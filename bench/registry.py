"""The metrics' annotations and the layer boundaries the traced run observes.

The names, units, directions and bounds of the metrics are in
``BENCHMARK.json`` (loaded here as ``SPEC``).  This module adds to each
per-layer metric the end-to-end metric it should move, on which workload,
and the ROADMAP item it is there to catch.

End-to-end metrics (untraced run, every workload):

* ``ops_per_s``: the median over timed units of operations per second, in
  the workload's own operation: (fold, budget) cells for experiment_synthetic
  (``cells_per_s``), online rounds summed over all runs for
  online_multiseed (``rounds_per_s``), solves for alloc_analytic
  (``analytic_solves_per_s``) and alloc_tabulated
  (``tabulated_solves_per_s``).
* ``setup_s``: from process start to the first timed operation (import,
  config load, noise models, inputs); the median of several fresh
  processes started between the timed units.
* ``peak_rss_mib``: peak resident memory of the benchmark's own process.

Failed output checks are counted in the result's ``attempted``/``failed``
fields of every run, and as the per-layer ``fail_ratio``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from spans import Instrumentation, Tracer, summarize

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Span around each timed unit; its layer, "bench", is the benchmark's own code.
ROOT_SPAN = "bench.unit"

LAYERS = ("bench", "experiments", "batch", "losses", "core", "allocation", "online")
WATERFILL_KEYS = ([(f, d) for f in ("inverse", "inverse_sqrt", "quantization")
                   for d in (3, 100, 10_000)] + [("tabulated", 3), ("tabulated", 30)])
RESIDUAL_FAMILIES = ("inverse", "inverse_sqrt", "quantization", "tabulated")
NOISY_RULES = ("uniform", "efficient")

# (name, what it should move and which ROADMAP item it catches)
PER_LAYER_NOTES: List[Tuple[str, str]] = [
    ("batch.solve_robust_hinge.calls",
     "ops_per_s on experiment_synthetic; item 2 keeps it (same solves, cheaper)"),
    ("batch.solve_robust_hinge.total_s",
     "ops_per_s on experiment_synthetic; item 2"),
    ("batch.solve_robust_hinge.self_s",
     "ops_per_s on experiment_synthetic; item 2: the subgradient and the repeated warm "
     "start run inside it"),
    ("batch.solve_robust_hinge.iterations",
     "outer alternations summed over calls; item 2 must not change it"),
    ("batch.solve_robust_hinge.converged_ratio",
     "share of calls that met tol; item 2 must not change it"),
    ("batch.fit_hinge.calls", "ops_per_s on experiment_synthetic; item 2"),
    ("batch.fit_hinge.total_s", "ops_per_s on experiment_synthetic; item 2"),
    ("losses.robust_hinge_objective.calls",
     "ops_per_s on experiment_synthetic (called from batch); item 2"),
    ("losses.robust_hinge_objective.total_s",
     "ops_per_s on experiment_synthetic; item 2"),
    ("core.inject_noise.calls",
     "ops_per_s on experiment_synthetic, about 1% of it; no item targets it"),
    ("core.inject_noise.total_s", "ops_per_s on experiment_synthetic"),
    ("core.generate_synthetic.total_s",
     "ops_per_s on experiment_synthetic: run_experiment generates its data set inside "
     "the timed phase"),
    ("allocation.allocate_adversarial.calls",
     "ops_per_s on experiment_synthetic; predicted no visible move (about 0.3%)"),
    ("allocation.allocate_adversarial.total_s",
     "ops_per_s on experiment_synthetic; items 1 (tol) and 4"),
]
for _family, _d in WATERFILL_KEYS:
    _target = ("tabulated" if _family == "tabulated" else "analytic")
    _item = "item 4 must move it" if _family == "tabulated" else "items 4/5 must not slow it"
    PER_LAYER_NOTES += [
        (f"allocation.allocate_waterfill.{_family}.d{_d}.p50_ms",
         f"ops_per_s on alloc_{_target}; {_item}"),
        (f"allocation.allocate_waterfill.{_family}.d{_d}.p90_ms",
         f"ops_per_s on alloc_{_target}; {_item}"),
        (f"allocation.allocate_waterfill.{_family}.d{_d}.n",
         "sample count behind the two percentiles above"),
    ]
PER_LAYER_NOTES += [(f"allocation.residual_max.{f}",
                     "largest stationarity residual; should never move (item 4 must keep "
                     "it below 1e-6)") for f in RESIDUAL_FAMILIES]
PER_LAYER_NOTES += [
    ("allocation.simplex_projection_raw.calls",
     "ops_per_s on online_multiseed (called from online); item 3 batches it"),
    ("allocation.simplex_projection_raw.total_s",
     "ops_per_s on online_multiseed; item 3 (one sort-and-threshold kernel)"),
    ("online.run_unknown.total_s", "ops_per_s on online_multiseed; item 3"),
    ("online.run_unknown.us_per_round", "ops_per_s on online_multiseed; item 3"),
]
for _rule in NOISY_RULES:
    PER_LAYER_NOTES += [
        (f"online.run_noisy.{_rule}.total_s",
         "ops_per_s on online_multiseed; item 3"),
        (f"online.run_noisy.{_rule}.us_per_round",
         "ops_per_s on online_multiseed; item 3"),
    ]
PER_LAYER_NOTES += [
    ("online.SampleOracle.measure.calls",
     "ops_per_s on online_multiseed; item 3 draws samples in blocks"),
    ("online.SampleOracle.measure.total_s", "ops_per_s on online_multiseed; item 3"),
    ("online.SampleOracle.new_round.calls",
     "ops_per_s on online_multiseed; item 3"),
    ("online.SampleOracle.new_round.total_s",
     "ops_per_s on online_multiseed; item 3"),
    ("online.project_l1_ball.calls", "ops_per_s on online_multiseed; item 3"),
    ("online.project_l1_ball.total_s",
     "ops_per_s on online_multiseed; item 3 (shared kernel), item 5 (robust numerics)"),
    ("online.project_l2_ball.calls", "ops_per_s on online_multiseed; item 3"),
    ("online.project_l2_ball.total_s", "ops_per_s on online_multiseed; item 3"),
    ("online.self_s",
     "per-round loop overhead of the runners; ops_per_s on online_multiseed; item 3"),
    ("experiments.run_experiment.self_s",
     "fold splits, normalisation, error rates, table building; ops_per_s on "
     "experiment_synthetic; item 2 (warm start computed once per fold)"),
    ("experiments.emit_results.total_s", "ops_per_s on experiment_synthetic"),
    ("experiments.load_config.total_s", "setup_s; item 1 (tracer config)"),
]
PER_LAYER_NOTES += [(f"layer.{layer}.self_share",
                     "share of the traced phase spent in this layer's own code; confirms "
                     "which layer a workload stresses") for layer in LAYERS]
PER_LAYER_NOTES += [
    ("allocation.tabulated.unit_share",
     "share of alloc_tabulated units spent inside tabulated water-fills; item 4 must "
     "shrink it"),
    ("trace.overhead_pct",
     "median over unit pairs of a traced unit's slowdown against its untraced twin"),
    ("trace.spans", "spans recorded in the traced phase"),
    ("fail_ratio",
     "operations that raised or failed their output check, over operations attempted"),
]


def instrument(inst: Instrumentation) -> None:
    """Wrap the public functions at each layer boundary."""
    inst.wrap("experiments", "load_config")
    inst.wrap("experiments", "run_experiment")
    inst.wrap("experiments", "emit_results")
    inst.wrap("batch", "fit_hinge")
    inst.wrap("batch", "solve_robust_hinge", on_result=_solve_report)
    inst.wrap("losses", "robust_hinge_objective")
    inst.wrap("core", "inject_noise")
    inst.wrap("core", "generate_synthetic")
    inst.wrap("allocation", "allocate_adversarial")
    inst.wrap("allocation", "allocate_waterfill", label=_waterfill_label,
              on_result=_waterfill_result)
    inst.wrap("allocation", "simplex_projection_raw")
    inst.wrap("online", "run_unknown", on_result=_unknown_rounds)
    inst.wrap("online", "run_noisy", label=_noisy_label, on_result=_noisy_rounds)
    inst.wrap("online", "SampleOracle.measure")
    inst.wrap("online", "SampleOracle.new_round")
    inst.wrap("online", "project_l1_ball")
    inst.wrap("online", "project_l2_ball")


def arg(args: tuple, kwargs: dict, pos: int, key: str):
    """Positional-or-keyword argument lookup for span labels."""
    return args[pos] if len(args) > pos else kwargs[key]


def _solve_report(tracer: Tracer, report, args, kwargs) -> None:
    tracer.add("batch.solve_robust_hinge.iterations", report.iterations)
    tracer.add("batch.solve_robust_hinge.converged", float(report.converged))


def _family_and_dim(args, kwargs) -> Tuple[str, int]:
    w = arg(args, kwargs, 0, "w")
    nm = arg(args, kwargs, 1, "nm")
    return nm.family, int(np.size(getattr(w, "weights", w)))


def _waterfill_label(args, kwargs) -> str:
    family, d = _family_and_dim(args, kwargs)
    return f"allocation.allocate_waterfill.{family}.d{d}"


def _waterfill_result(tracer: Tracer, result, args, kwargs) -> None:
    family, _ = _family_and_dim(args, kwargs)
    tracer.record_max(f"allocation.residual_max.{family}", float(result.residual))


def _rule(args, kwargs) -> str:
    rule = arg(args, kwargs, 2, "alloc_rule")
    return rule if isinstance(rule, str) else "custom"


def _noisy_label(args, kwargs) -> str:
    return f"online.run_noisy.{_rule(args, kwargs)}"


def _unknown_rounds(tracer: Tracer, trace, args, kwargs) -> None:
    tracer.add("online.run_unknown.rounds", trace.horizon)


def _noisy_rounds(tracer: Tracer, trace, args, kwargs) -> None:
    tracer.add(f"online.run_noisy.{_rule(args, kwargs)}.rounds", trace.horizon)


def per_layer_metrics(tracer: Tracer, overhead_pct: float, fail_ratio: float) -> Dict[str, float]:
    """Every per-layer metric of SPEC from a finished traced phase.  A layer the
    workload never entered reads 0."""
    spans = summarize(tracer)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.empty(0)}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    values: Dict[str, float] = {}
    for name in (m["name"] for m in SPEC["per_layer"]):
        head, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            values[name] = float(span(head)[stat])
    solve = span("batch.solve_robust_hinge")
    values["batch.solve_robust_hinge.iterations"] = tracer.counters[
        "batch.solve_robust_hinge.iterations"]
    values["batch.solve_robust_hinge.converged_ratio"] = (
        tracer.counters["batch.solve_robust_hinge.converged"] / solve["calls"]
        if solve["calls"] else 0.0)
    for family, d in WATERFILL_KEYS:
        key = f"allocation.allocate_waterfill.{family}.d{d}"
        durations = span(key)["durations"]
        for q in (50, 90):
            values[f"{key}.p{q}_ms"] = (float(np.percentile(durations, q)) * 1e3
                                        if durations.size else 0.0)
        values[f"{key}.n"] = float(durations.size)
    for family in RESIDUAL_FAMILIES:
        values[f"allocation.residual_max.{family}"] = tracer.maxima.get(
            f"allocation.residual_max.{family}", 0.0)
    runners = ["online.run_unknown"] + [f"online.run_noisy.{r}" for r in NOISY_RULES]
    for runner in runners:
        rounds = tracer.counters[f"{runner}.rounds"]
        values[f"{runner}.us_per_round"] = (span(runner)["total_s"] / rounds * 1e6
                                            if rounds else 0.0)
    values["online.self_s"] = sum(s["self_s"] for label, s in spans.items()
                                  if label.startswith(("online.run_unknown", "online.run_noisy")))

    units = {label: s for label, s in spans.items() if label.startswith(ROOT_SPAN)}
    traced_s = sum(s["total_s"] for s in units.values())
    for layer in LAYERS:
        own = sum(s["self_s"] for label, s in spans.items() if label.split(".")[0] == layer)
        values[f"layer.{layer}.self_share"] = own / traced_s if traced_s else 0.0
    tab_units = span(f"{ROOT_SPAN}.alloc_tabulated")["total_s"]
    tab_solves = sum(s["total_s"] for label, s in spans.items()
                     if label.startswith("allocation.allocate_waterfill.tabulated."))
    values["allocation.tabulated.unit_share"] = tab_solves / tab_units if tab_units else 0.0
    values["trace.overhead_pct"] = overhead_pct
    values["trace.spans"] = float(sum(s["calls"] for s in spans.values()))
    values["fail_ratio"] = fail_ratio
    return values

