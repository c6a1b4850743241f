"""Experiment harness: dataset ingestion, benchmark protocol, result tables.

The classification benchmarks all follow the same shape: train classifiers
under a grid of acquisition budgets, then measure test error after injecting
feature noise whose per-feature scale follows the trained allocation.  Three
regimes are reported per budget:

* "uniform"            uniform allocation, classifier trained against it;
* "optimal"            jointly trained classifier and allocation;
* "fixed_clf_optimal"  classifier trained on clean data, allocation optimized
                       for it afterwards (isolates how much of the gain comes
                       from the allocation rather than the classifier).
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from .allocation import allocate_adversarial
from .batch import fit_hinge, solve_robust_hinge
from .core import (
    Dataset,
    NoiseModel,
    ResourceVector,
    RngConfig,
    generate_synthetic,
    inject_noise,
)
from .errors import ConfigError, DataError
from .online import OnlineConfig, SampleOracle, run_noisy, run_unknown

EXPERIMENT_KINDS = (
    "synthetic",
    "synthetic-sweep",
    "skin",
    "breast",
    "online-unknown",
    "online-noisy",
)

RESULT_COLUMNS = ("R", "rule", "mean_error", "sd_error", "folds", "flag")

#: JSON layout written by emit_results(..., format="json").
RESULT_JSON_SCHEMA = {
    "type": "object",
    "required": ["columns", "rows"],
    "properties": {
        "columns": {
            "type": "array",
            "items": {"type": "string"},
        },
        "rows": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [
                    {"type": "number"},
                    {"type": "string"},
                    {"type": "number"},
                    {"type": "number"},
                    {"type": "integer"},
                    {"type": "string"},
                ],
                "minItems": 6,
                "maxItems": 6,
            },
        },
    },
    "additionalProperties": False,
}


@dataclass(frozen=True)
class ResultRow:
    R: float
    rule: str
    mean_error: float
    sd_error: float
    folds: int
    flag: str = ""


@dataclass
class ResultTable:
    rows: List[ResultRow] = field(default_factory=list)

    def for_rule(self, rule: str) -> List[ResultRow]:
        return sorted((row for row in self.rows if row.rule == rule), key=lambda r: r.R)

    def rules(self) -> Tuple[str, ...]:
        seen = []
        for row in self.rows:
            if row.rule not in seen:
                seen.append(row.rule)
        return tuple(seen)


@dataclass
class ExperimentConfig:
    kind: str = "synthetic"
    budgets: Tuple[float, ...] = ()
    folds: int = 10
    seed: int = 0
    noise_family: str = "inverse_sqrt"
    noise_scale: float = 1.0 / 3.0
    scale_mode: str = "sd"
    target_error: float = 0.15
    # synthetic benchmark
    a: float = 7.0
    n_samples: int = 24000
    label_noise_sd: float = 0.05
    sweep_a: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
    # real data sets
    data_path: Optional[str] = None
    subsample: int = 24506
    train_size: int = 5000
    train_fraction: float = 2.0 / 3.0
    # online demos
    horizon: int = 20000
    weight_cap: float = 10.0
    epsilon: float = 0.5
    # plumbing
    full_scale: bool = False
    out_path: Optional[str] = None
    out_format: str = "csv"

    def validate(self) -> "ExperimentConfig":
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.budgets and self.kind not in ("online-unknown", "online-noisy"):
            raise ConfigError("budget grid must be nonempty")
        if any(b <= 0 for b in self.budgets):
            raise ConfigError("budgets must be positive")
        if self.folds < 1:
            raise ConfigError("folds must be >= 1")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ConfigError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.scale_mode not in ("sd", "variance"):
            raise ConfigError(f"scale_mode must be sd or variance, got {self.scale_mode!r}")
        if self.kind in ("skin", "breast"):
            if not self.data_path:
                raise ConfigError(f"{self.kind} experiment needs data_path")
            if not os.path.exists(self.data_path):
                raise ConfigError(f"data file not found: {self.data_path}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.out_format!r}")
        return self


def default_budgets(kind: str) -> Tuple[float, ...]:
    if kind in ("synthetic", "synthetic-sweep"):
        return tuple(float(v) for v in np.geomspace(0.05, 50.0, 12))
    if kind == "skin":
        return tuple(float(v) for v in np.geomspace(0.05, 50.0, 12))
    if kind == "breast":
        return tuple(float(v) for v in np.geomspace(0.1, 100.0, 10))
    return (9.0,)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read an INI-style experiment description (sections [experiment],
    [synthetic], [data], [online], [output]) into an ExperimentConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}

    def take(section: str, key: str, cast):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        return None

    def tuple_of_floats(raw: str) -> Tuple[float, ...]:
        return tuple(float(v) for v in raw.replace(",", " ").split())

    mapping = [
        ("experiment", "kind", str, "kind"),
        ("experiment", "budgets", tuple_of_floats, "budgets"),
        ("experiment", "folds", int, "folds"),
        ("experiment", "seed", int, "seed"),
        ("experiment", "noise_family", str, "noise_family"),
        ("experiment", "noise_scale", float, "noise_scale"),
        ("experiment", "scale_mode", str, "scale_mode"),
        ("experiment", "target_error", float, "target_error"),
        ("experiment", "full_scale", lambda v: v.lower() in ("1", "true", "yes"), "full_scale"),
        ("synthetic", "a", float, "a"),
        ("synthetic", "n", int, "n_samples"),
        ("synthetic", "label_noise_sd", float, "label_noise_sd"),
        ("synthetic", "sweep_a", tuple_of_floats, "sweep_a"),
        ("data", "path", str, "data_path"),
        ("data", "subsample", int, "subsample"),
        ("data", "train_size", int, "train_size"),
        ("data", "train_fraction", float, "train_fraction"),
        ("online", "horizon", int, "horizon"),
        ("online", "weight_cap", float, "weight_cap"),
        ("online", "epsilon", float, "epsilon"),
        ("output", "path", str, "out_path"),
        ("output", "format", str, "out_format"),
    ]
    mapped = {(section, key) for section, key, _, _ in mapping}
    unknown = [f"[{section}] {key}" for section in parser.sections()
               for key in parser.options(section) if (section, key) not in mapped]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    updates = {}
    for section, key, cast, attr in mapping:
        value = take(section, key, cast)
        if value is not None:
            updates[attr] = value
    cfg = replace(cfg, **updates)
    if overrides:
        bad = set(overrides) - known
        if bad:
            raise ConfigError(f"unknown config overrides: {sorted(bad)}")
        cfg = replace(cfg, **overrides)
    if not cfg.budgets:
        cfg = replace(cfg, budgets=default_budgets(cfg.kind))
    return cfg.validate()


def ingest_uci(path: str, dataset_kind: str) -> Dataset:
    """Parse one of the two benchmark files into a raw Dataset.

    "skin": whitespace-separated B G R label rows, label 1 (skin -> +1) or
    2 (non-skin -> -1).  "breast": comma-separated id, nine integer features,
    class 2 (benign -> -1) or 4 (malignant -> +1); rows containing '?' are
    dropped.  Normalization happens later, per training split.
    """
    if dataset_kind not in ("skin", "breast"):
        raise DataError(f"unknown dataset kind {dataset_kind!r}")
    features: List[List[float]] = []
    labels: List[float] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if dataset_kind == "skin":
                parts = line.split()
                if len(parts) != 4:
                    raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
                try:
                    b, g, r_val, lab = (float(p) for p in parts)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
                if lab not in (1.0, 2.0):
                    raise DataError(f"{path}:{lineno}: label must be 1 or 2, got {lab}")
                features.append([b, g, r_val])
                labels.append(1.0 if lab == 1.0 else -1.0)
            else:
                parts = line.split(",")
                if len(parts) != 11:
                    raise DataError(f"{path}:{lineno}: expected 11 fields, got {len(parts)}")
                if "?" in parts:
                    continue
                try:
                    values = [float(p) for p in parts[1:10]]
                    lab = float(parts[10])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
                if lab not in (2.0, 4.0):
                    raise DataError(f"{path}:{lineno}: class must be 2 or 4, got {lab}")
                features.append(values)
                labels.append(-1.0 if lab == 2.0 else 1.0)
    if not features:
        raise DataError(f"{path}: no usable rows after cleaning")
    return Dataset(np.array(features), np.array(labels))


def _subseed(seed: int, label: str) -> int:
    gen = RngConfig(seed).stream(label)
    return int(gen.integers(0, 2**63 - 1))


def _normalize_split(train: Dataset, test: Dataset) -> Tuple[Dataset, Dataset]:
    """Zero-mean unit-variance scaling with statistics from the training
    split only."""
    mean = train.features.mean(axis=0)
    sd = train.features.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (
        Dataset((train.features - mean) / sd, train.labels, train.feature_names),
        Dataset((test.features - mean) / sd, test.labels, test.feature_names),
    )


def _error_rate(clf, ds: Dataset) -> float:
    return float(np.mean(clf.predict(ds.features) != ds.labels))


def _fold_splits(cfg: ExperimentConfig, M: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Index pairs (train, test) per fold.

    The benchmark protocol trains on a small subset and tests on the rest, so
    the folds partition the pool into disjoint train blocks (capped at
    train_size) whose complements serve as test sets, so it needs
    2 <= folds <= M.  The breast benchmark instead repeats seeded 2/3-1/3
    splits, matching its original protocol.
    """
    gen = RngConfig(cfg.seed).stream("fold-permutation")
    if cfg.kind == "breast":
        splits = []
        for k in range(cfg.folds):
            perm = gen.permutation(M)
            cut = int(round(cfg.train_fraction * M))
            splits.append((perm[:cut], perm[cut:]))
        return splits
    if not 2 <= cfg.folds <= M:
        raise ConfigError(f"folds must be between 2 and the sample count {M}, got {cfg.folds}")
    perm = gen.permutation(M)
    blocks = np.array_split(perm, cfg.folds)
    splits = []
    for k in range(cfg.folds):
        train = blocks[k][: cfg.train_size]
        test = np.concatenate([blocks[j] for j in range(cfg.folds) if j != k])
        splits.append((train, test))
    return splits


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.kind in ("synthetic", "synthetic-sweep"):
        n = 240000 if cfg.full_scale else cfg.n_samples
        return generate_synthetic(cfg.a, n, cfg.label_noise_sd, RngConfig(cfg.seed))
    ds = ingest_uci(cfg.data_path, cfg.kind)
    if cfg.kind == "skin":
        cap = ds.n_samples if cfg.full_scale else min(cfg.subsample, ds.n_samples)
        if cap < ds.n_samples:
            gen = RngConfig(cfg.seed).stream("subsample")
            idx = gen.choice(ds.n_samples, size=cap, replace=False)
            ds = ds.subset(np.sort(idx))
    return ds


def _classification_rows(cfg: ExperimentConfig, ds: Dataset, nm: NoiseModel) -> ResultTable:
    splits = _fold_splits(cfg, ds.n_samples)
    normalize = cfg.kind in ("skin", "breast")
    per_key: dict = {}
    for fold, (tr_idx, te_idx) in enumerate(splits):
        train, test = ds.subset(tr_idx), ds.subset(te_idx)
        if normalize:
            train, test = _normalize_split(train, test)
        # the zero-noise fit depends on neither the budget nor the regime: it is
        # the fixed_clf_optimal classifier and the start of every robust solve
        # (solve_robust_hinge's own default start, at its default inner_iters)
        clean_clf = fit_hinge(train, iters=400)
        for R in cfg.budgets:
            rep_u = solve_robust_hinge(train, nm, R, optimize_allocation=False,
                                       start=clean_clf)
            rep_j = solve_robust_hinge(train, nm, R, start=clean_clf)
            alloc_uniform = ResourceVector.uniform(R, ds.n_features)
            alloc_joint = rep_j.resources
            alloc_for_clean = allocate_adversarial(clean_clf.weights, nm, R).r
            regimes = (
                ("uniform", rep_u.classifier, alloc_uniform),
                ("optimal", rep_j.classifier, alloc_joint),
                ("fixed_clf_optimal", clean_clf, alloc_for_clean),
            )
            for rule, clf, alloc in regimes:
                noisy = inject_noise(
                    test, alloc, nm, scale=cfg.noise_scale,
                    rng=RngConfig(_subseed(cfg.seed, f"eval-{fold}-{R:.6g}-{rule}")),
                    scale_mode=cfg.scale_mode,
                )
                per_key.setdefault((R, rule), []).append(_error_rate(clf, noisy))
    table = ResultTable()
    for (R, rule), errs in sorted(per_key.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        errs = np.array(errs)
        sd = float(errs.std(ddof=1)) if errs.size > 1 else 0.0
        table.rows.append(ResultRow(
            R=float(R), rule=rule, mean_error=float(errs.mean()),
            sd_error=sd, folds=errs.size,
        ))
    return table


def _online_rows(cfg: ExperimentConfig) -> ResultTable:
    nm = NoiseModel(cfg.noise_family)
    d = 3
    w_true = np.array([1.0, 7.0, 1.0])

    def sampler(gen: np.random.Generator):
        x = gen.normal(0.0, math.sqrt(1.0 / 3.0), size=d)
        return x, float(w_true @ x)

    table = ResultTable()
    R = cfg.budgets[0] if cfg.budgets else 9.0
    ocfg = OnlineConfig(weight_cap=cfg.weight_cap, budget=R, horizon=cfg.horizon,
                        epsilon=cfg.epsilon)
    tail = max(1, cfg.horizon // 10)
    if cfg.kind == "online-unknown":
        oracle = SampleOracle(sampler, nm, budget=R, dim=d, mode="shared",
                              rng=RngConfig(cfg.seed))
        trace = run_unknown(oracle, ocfg)
        runs = [("unknown", trace)]
    else:
        runs = []
        for rule in ("uniform", "efficient"):
            oracle = SampleOracle(sampler, nm, budget=R, dim=d, mode="shared",
                                  rng=RngConfig(cfg.seed))
            runs.append((rule, run_noisy(oracle, ocfg, rule, nm)))
    for rule, trace in runs:
        window = trace.losses[-tail:]
        table.rows.append(ResultRow(
            R=float(R), rule=rule, mean_error=float(window.mean()),
            sd_error=float(window.std(ddof=1)) if window.size > 1 else 0.0,
            folds=1,
        ))
        if cfg.out_path:
            base, ext = os.path.splitext(cfg.out_path)
            trace.to_csv(f"{base}.trace-{rule}.csv")
    return table


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Execute one configured benchmark and return its result table.

    Classification kinds give one row per (budget, rule) with the mean and sd
    of the test error over the folds; online kinds give the mean and sd of
    the last tenth of each run's losses; the sweep gives one matched-error
    budget ratio per slope a.  The same config and seed give the same table.
    """
    cfg.validate()
    if cfg.kind in ("online-unknown", "online-noisy"):
        return _online_rows(cfg)
    nm = NoiseModel(cfg.noise_family)
    if cfg.kind == "synthetic-sweep":
        table = ResultTable()
        for a in cfg.sweep_a:
            sub = replace(cfg, kind="synthetic", a=float(a))
            ds = _load_dataset(sub)
            rows = _classification_rows(sub, ds, nm)
            try:
                ratio = resource_ratio(rows, cfg.target_error)
                flag = ""
            except ValueError:
                ratio = math.nan
                flag = "no-crossing"
            table.rows.append(ResultRow(
                R=float(a), rule="budget_ratio", mean_error=ratio,
                sd_error=0.0, folds=cfg.folds, flag=flag,
            ))
        return table
    ds = _load_dataset(cfg)
    return _classification_rows(cfg, ds, nm)


def matched_error_budget(table: ResultTable, rule: str, target: float) -> float:
    """Budget at which the rule's error curve crosses the target, by linear
    interpolation in log-budget between the bracketing grid points."""
    rows = table.for_rule(rule)
    if len(rows) < 2:
        raise ValueError(f"need at least two grid points for rule {rule!r}")
    for lo, hi in zip(rows, rows[1:]):
        e0, e1 = lo.mean_error, hi.mean_error
        if (e0 - target) == 0.0:
            return lo.R
        if (e0 - target) * (e1 - target) < 0.0 or (e1 - target) == 0.0:
            t = (e0 - target) / (e0 - e1)
            return float(math.exp(math.log(lo.R) + t * (math.log(hi.R) - math.log(lo.R))))
    raise ValueError(
        f"error curve for {rule!r} never crosses {target} "
        f"(range {min(r.mean_error for r in rows):.4f}"
        f"..{max(r.mean_error for r in rows):.4f})"
    )


def resource_ratio(table: ResultTable, target: float) -> float:
    """R_uniform / R_optimal at matched test error."""
    return (
        matched_error_budget(table, "uniform", target)
        / matched_error_budget(table, "optimal", target)
    )


def ablation_recovery(table: ResultTable) -> float:
    """Fraction of the uniform-to-optimal error gain recovered by keeping the
    clean-data classifier and only optimizing its allocation, aggregated over
    the budget grid."""
    gain_total = 0.0
    gain_alloc = 0.0
    uniform = {row.R: row.mean_error for row in table.for_rule("uniform")}
    optimal = {row.R: row.mean_error for row in table.for_rule("optimal")}
    ablation = {row.R: row.mean_error for row in table.for_rule("fixed_clf_optimal")}
    for R in uniform:
        if R not in optimal or R not in ablation:
            continue
        total = uniform[R] - optimal[R]
        if total <= 0:
            continue
        gain_total += total
        gain_alloc += uniform[R] - ablation[R]
    if gain_total == 0.0:
        raise ValueError("optimal regime never beats uniform on this grid")
    return gain_alloc / gain_total


def emit_results(table: ResultTable, path: str, format: str = "csv") -> None:
    """Persist a result table with a fixed column order
    (R, rule, mean_error, sd_error, folds, flag)."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for row in table.rows:
                writer.writerow([
                    repr(row.R), row.rule, repr(row.mean_error),
                    repr(row.sd_error), row.folds, row.flag,
                ])
    elif format == "json":
        payload = {
            "columns": list(RESULT_COLUMNS),
            "rows": [
                [row.R, row.rule, row.mean_error, row.sd_error, row.folds, row.flag]
                for row in table.rows
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {format!r}")


def read_results(path: str, format: str = "csv") -> ResultTable:
    table = ResultTable()
    if format == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != RESULT_COLUMNS:
                raise DataError(f"unexpected header {header}")
            for rec in reader:
                table.rows.append(ResultRow(
                    R=float(rec[0]), rule=rec[1], mean_error=float(rec[2]),
                    sd_error=float(rec[3]), folds=int(rec[4]), flag=rec[5],
                ))
    else:
        with open(path) as fh:
            payload = json.load(fh)
        for rec in payload["rows"]:
            table.rows.append(ResultRow(
                R=float(rec[0]), rule=rec[1], mean_error=float(rec[2]),
                sd_error=float(rec[3]), folds=int(rec[4]), flag=rec[5],
            ))
    return table
