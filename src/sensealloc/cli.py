"""Command-line front end.

Subcommands: allocate, train-batch, online-unknown, online-noisy, experiment,
analyze, oracle-check.  Exit codes: 0 success, 2 configuration error or any
other invalid input (every package error not listed here), 3 data error,
1 any other failure (including oracle-check mismatches).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .allocation import (
    AllocationResult,
    allocate_quantization,
    allocate_waterfill,
    project_l1_ball,
    project_simplex,
)
from .analysis import divider_ratio_formula, ratio_sweep
from .batch import solve_robust_hinge, solve_square_alternating
from .core import NoiseModel, ResourceVector, RngConfig, generate_synthetic
from .errors import ConfigError, DataError, SenseAllocError
from .experiments import (
    ExperimentConfig,
    emit_results,
    load_config,
    parse_numbers,
    run_experiment,
)
from .oracles import (
    GridSpec,
    allocate_inverse,
    allocate_inverse_sqrt,
    grid_alloc_search,
    mc_expected_loss,
    oracle_project_l1,
    oracle_project_l2,
    oracle_project_simplex,
)
from .losses import square_loss_total
from .online import project_l2_ball


#: --solver closed-form, per family.
_CLOSED_FORMS = {
    "inverse_sqrt": allocate_inverse_sqrt,
    "inverse": allocate_inverse,
    "quantization": allocate_quantization,
}


def _parse_numbers(raw: str, what: str) -> np.ndarray:
    try:
        return np.array(parse_numbers(raw))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {raw!r}: {exc}") from exc


def _seed(raw: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {raw!r}")
    return seed


def _emit(obj, out_path, fmt):
    text = json.dumps(obj, indent=2) if fmt == "json" else obj
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if isinstance(text, str) else str(text))
            fh.write("\n")
    else:
        print(text)


def cmd_allocate(args) -> int:
    nm = NoiseModel(args.family)
    w = _parse_numbers(args.weights, "weights")
    if args.solver == "waterfill":
        result = allocate_waterfill(w, nm, args.budget)
    elif args.family in _CLOSED_FORMS:
        result = _CLOSED_FORMS[args.family](w, args.budget)
    else:
        raise ConfigError(f"no closed form for family {args.family!r}")
    # the oracles' closed forms give a bare ResourceVector, with no marginal value
    r, lam = (result.r, result.lam) if isinstance(result, AllocationResult) else (result, np.nan)
    payload = {
        "family": args.family,
        "budget": args.budget,
        "allocation": [float(v) for v in r.alloc],
        "marginal_value": None if np.isnan(lam) else float(lam),
    }
    if args.format == "json":
        _emit(payload, args.out, "json")
    else:
        _emit("\n".join(f"r_{i + 1},{v!r}" for i, v in enumerate(payload["allocation"])),
              args.out, "csv")
    return 0


def cmd_train_batch(args) -> int:
    ds = generate_synthetic(args.a, args.n, rng=RngConfig(args.seed))
    nm = NoiseModel(args.family)
    solve = solve_square_alternating if args.loss == "square" else solve_robust_hinge
    report = solve(ds, nm, args.budget)
    payload = {
        "loss": args.loss,
        "weights": [float(v) for v in report.classifier.weights],
        "bias": report.classifier.bias,
        "allocation": [float(v) for v in report.resources.alloc],
        "objective": report.objective,
        "iterations": report.iterations,
        "converged": report.converged,
    }
    _emit(payload, args.out, "json")
    return 0


def cmd_experiment(args) -> int:
    flags = {"seed": args.seed, "out_path": args.out, "out_format": args.format,
             "full_scale": args.full_scale or None}
    cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
    table = run_experiment(cfg)
    if cfg.out_path:
        emit_results(table, cfg.out_path, cfg.out_format)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(row.cells() for row in table.rows)
    return 0


def cmd_online(args, kind: str) -> int:
    cfg = ExperimentConfig(kind=kind, budgets=(args.budget,), seed=args.seed or 0,
                           horizon=args.rounds, weight_cap=args.weight_cap,
                           epsilon=args.epsilon, out_path=args.out)
    table = run_experiment(cfg)
    for row in table.rows:
        print(f"{row.rule}: tail mean loss {row.mean_error:.6g} (sd {row.sd_error:.3g})")
    if cfg.out_path:
        print(f"trace written next to {cfg.out_path}")
    return 0


def cmd_analyze(args) -> int:
    nm = NoiseModel("inverse_sqrt")
    a_values = _parse_numbers(args.a_values, "a-values")
    if not np.all((a_values >= 0) & (a_values < np.inf)):
        # each a seeds its data with seed + round(100 a), which must stay >= 0
        raise ConfigError(f"a-values must be finite and >= 0, got {args.a_values!r}")
    rows = ratio_sweep(a_values.tolist(), nm, seed=args.seed or 0)
    lines = ["a,theoretical,empirical"]
    for a, theo, emp in rows:
        lines.append(f"{a!r},{theo!r},{emp!r}")
        formula = divider_ratio_formula(a)
        if abs(formula - theo) > 1e-9 * max(1.0, abs(formula)):
            raise ConfigError("ratio formula disagreement; sweep weights are inconsistent")
    _emit("\n".join(lines), args.out, "csv")
    return 0


def cmd_oracle_check(args) -> int:
    """Quick independent-oracle comparisons; prints one line per check."""
    rng = np.random.default_rng(args.seed or 0)
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
        failures += 0 if ok else 1

    def aggregate_at(w, r, nm):
        active = w != 0.0
        return float(np.sqrt(np.sum(w[active] ** 2 * nm.sigma_at(r)[active] ** 2)))

    for family in ("inverse", "inverse_sqrt", "quantization"):
        nm = NoiseModel(family)
        w = rng.normal(size=3)
        w[np.abs(w) < 0.05] = 0.1
        R = 5.0
        res = allocate_waterfill(w, nm, R)
        grid = grid_alloc_search(w, nm, R, GridSpec(budget=R, resolution=1e-3 * R))
        gap = aggregate_at(w, res.r, nm) - aggregate_at(w, grid, nm)
        check(f"allocation vs grid ({family})", gap <= 1e-4, f"gap {gap:.2e}")

    v = rng.normal(size=5)
    p = project_simplex(v, 2.0).alloc
    q = oracle_project_simplex(v, 2.0)
    check("simplex projection vs active-set oracle", float(np.abs(p - q).max()) < 1e-9)
    vv = rng.normal(size=5) * 3
    check("l1 projection vs oracle",
          float(np.abs(project_l1_ball(vv, 1.5) - oracle_project_l1(vv, 1.5)).max()) < 1e-9)
    check("l2 projection vs oracle",
          float(np.abs(project_l2_ball(vv, 1.5) - oracle_project_l2(vv, 1.5)).max()) < 1e-9)

    ds = generate_synthetic(3.0, 40, rng=RngConfig(args.seed or 0))
    nm = NoiseModel("inverse_sqrt")
    r = ResourceVector.uniform(6.0, 3)
    w = np.array([-1.0, -3.0, 1.0])
    closed = square_loss_total(ds, w, 0.0, r, nm).total
    mc, se = mc_expected_loss(ds, w, 0.0, r, nm, "square", 20000, RngConfig(7))
    check("square loss vs Monte Carlo", abs(mc - closed) <= 4 * se,
          f"closed {closed:.5f}, mc {mc:.5f} +- {se:.5f}")

    print(f"{failures} failures")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensealloc",
        description="Joint classifier training and acquisition-resource allocation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="allocate a budget for fixed weights")
    p.add_argument("--weights", required=True, help="comma- or space-separated weights")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--family", default="inverse_sqrt")
    p.add_argument("--solver", default="waterfill",
                   choices=["waterfill", "closed-form"])
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=["csv", "json"])
    p.set_defaults(fn=cmd_allocate)

    p = sub.add_parser("train-batch", help="train on a synthetic instance")
    p.add_argument("--loss", default="hinge", choices=["square", "hinge"])
    p.add_argument("--a", type=float, default=7.0)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--budget", type=float, default=9.0)
    p.add_argument("--family", default="inverse_sqrt")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train_batch)

    p = sub.add_parser("experiment", help="run a configured benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default=None, choices=["csv", "json"])
    p.add_argument("--full-scale", action="store_true")
    p.set_defaults(fn=cmd_experiment)

    for kind in ("online-unknown", "online-noisy"):
        p = sub.add_parser(kind, help=f"run the {kind} demo stream")
        p.add_argument("--rounds", type=int, default=20000)
        p.add_argument("--budget", type=float, default=9.0)
        p.add_argument("--weight-cap", type=float, default=10.0, dest="weight_cap")
        p.add_argument("--epsilon", type=float, default=0.5)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=lambda a, k=kind: cmd_online(a, k))

    p = sub.add_parser("analyze", help="budget-ratio sweep table (a, theoretical, empirical)")
    p.add_argument("--a-values", default="1 2 3 4 5 6 7 8 9", dest="a_values")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("oracle-check", help="run quick oracle comparisons")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SenseAllocError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
