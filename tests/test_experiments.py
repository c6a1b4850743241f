import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import breast_lines, skin_lines
from sensealloc import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    ablation_recovery,
    emit_results,
    ingest_uci,
    matched_error_budget,
    read_results,
    resource_ratio,
    run_experiment,
)
from sensealloc import experiments
from sensealloc.experiments import RESULT_JSON_SCHEMA, _fold_splits, load_config
from sensealloc.errors import ConfigError, DataError, InvalidInputError


class TestIngestSkin:
    def test_parses_and_maps_labels(self, tmp_path):
        path = tmp_path / "skin.txt"
        path.write_text(skin_lines([(74, 85, 123, 1), (90, 100, 130, 2), (1, 2, 3, 1)]))
        ds = ingest_uci(str(path), "skin")
        assert ds.features.shape == (3, 3)
        np.testing.assert_allclose(ds.labels, [1.0, -1.0, 1.0])
        np.testing.assert_allclose(ds.features[0], [74, 85, 123])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "skin.txt"
        path.write_text("74\t85\t123\t1\n90\t100\n")
        with pytest.raises(DataError) as err:
            ingest_uci(str(path), "skin")
        assert ":2:" in str(err.value)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "skin.txt"
        path.write_text("74\t85\t123\t3\n")
        with pytest.raises(DataError):
            ingest_uci(str(path), "skin")

    def test_roundtrip_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 256, size=(25, 3))
        labels = rng.choice([1, 2], 25)
        path = tmp_path / "skin.txt"
        path.write_text(skin_lines([(b, g, r, l) for (b, g, r), l in zip(X, labels)]))
        ds = ingest_uci(str(path), "skin")
        np.testing.assert_array_equal(ds.features, X.astype(float))


class TestIngestBreast:
    def test_drops_missing_and_maps_labels(self, tmp_path):
        rows = [
            [1000025, 5, 1, 1, 1, 2, 1, 3, 1, 1, 2],
            [1002945, 5, 4, 4, 5, 7, 10, 3, 2, 1, 4],
            [1015425, 3, 1, 1, 1, 2, "?", 3, 1, 1, 2],
        ]
        path = tmp_path / "breast.data"
        path.write_text(breast_lines(rows))
        ds = ingest_uci(str(path), "breast")
        assert ds.features.shape == (2, 9)
        np.testing.assert_allclose(ds.labels, [-1.0, 1.0])

    def test_malformed_field_count(self, tmp_path):
        path = tmp_path / "breast.data"
        path.write_text("1,2,3\n")
        with pytest.raises(DataError) as err:
            ingest_uci(str(path), "breast")
        assert ":1:" in str(err.value)

    def test_empty_after_cleaning(self, tmp_path):
        path = tmp_path / "breast.data"
        path.write_text(breast_lines([[1, 1, 1, 1, 1, 1, "?", 1, 1, 1, 2]]))
        with pytest.raises(DataError):
            ingest_uci(str(path), "breast")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("")
        with pytest.raises(DataError):
            ingest_uci(str(path), "iris")


class TestFolds:
    def test_disjoint_and_cover(self):
        cfg = ExperimentConfig(kind="synthetic", budgets=(1.0,), folds=5, seed=1,
                               train_size=7)
        splits = _fold_splits(cfg, 53)
        train_union = np.concatenate([tr for tr, _ in splits])
        blocks = np.array_split(np.arange(53), 5)
        assert sum(min(len(b), 7) for b in blocks) == len(train_union)
        for tr, te in splits:
            assert set(tr).isdisjoint(set(te))
            assert len(set(tr) | set(te)) <= 53
        # fold train blocks are mutually disjoint and lie inside the pool
        assert len(set(train_union)) == len(train_union)

    def test_breast_fraction_split(self):
        cfg = ExperimentConfig(kind="breast", budgets=(1.0,), folds=3, seed=2,
                               data_path=None, train_fraction=2.0 / 3.0)
        splits = _fold_splits(cfg, 90)
        for tr, te in splits:
            assert len(tr) == 60 and len(te) == 30
            assert set(tr).isdisjoint(te)


class TestResultIo:
    def make_table(self):
        return ResultTable(rows=[
            ResultRow(1.0, "uniform", 0.25, 0.01, 4, ""),
            ResultRow(1.0, "optimal", 0.20, 0.02, 4, ""),
            ResultRow(2.0, "uniform", 0.15, 0.01, 4, "divergence"),
        ])

    def test_csv_roundtrip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.csv"
        emit_results(table, str(path), "csv")
        header = path.read_text().splitlines()[0]
        assert header == "R,rule,mean_error,sd_error,folds,flag"
        back = read_results(str(path), "csv")
        assert back.rows == table.rows

    def test_json_roundtrip_and_schema(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.json"
        emit_results(table, str(path), "json")
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, RESULT_JSON_SCHEMA)
        back = read_results(str(path), "json")
        assert back.rows == table.rows

    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results(ResultTable(), str(path), "csv")
        assert path.read_text().strip() == "R,rule,mean_error,sd_error,folds,flag"

    @pytest.mark.parametrize("format, text", [
        ("csv", ""),
        ("csv", "R,rule,mean_error,sd_error,folds,flag\n1.0,uniform,0.25,0.01,4\n"),
        ("csv", "R,rule,mean_error,sd_error,folds,flag\n1.0,uniform,0.25,0.01,4,,x\n"),
        ("csv", "R,rule,mean_error,sd_error,folds,flag\n1.0,uniform,low,0.01,4,\n"),
        ("json", '{"columns": ["R", "rule", "mean_error", "sd_error", "folds", "flag"]}'),
        ("json", '{"rows": [[1.0, "uniform", 0.25, 0.01, 4]]}'),
        ("json", '{"rows": [[1.0, "uniform", "low", 0.01, 4, ""]]}'),
        ("json", "[1, 2]"),
        ("json", ""),
    ], ids=["csv-empty", "csv-short", "csv-long", "csv-non-numeric", "json-no-rows",
            "json-short", "json-non-numeric", "json-not-object", "json-empty"])
    def test_malformed_file_is_data_error(self, tmp_path, format, text):
        path = tmp_path / f"bad.{format}"
        path.write_text(text)
        with pytest.raises(DataError):
            read_results(str(path), format)

    def test_unknown_format_is_config_error(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results(self.make_table(), str(path), "csv")
        with pytest.raises(ConfigError, match="unknown output format"):
            read_results(str(path), "xml")


class TestMatchedError:
    def table(self):
        rows = []
        for R, err_u, err_o in [(1.0, 0.30, 0.22), (4.0, 0.20, 0.12), (16.0, 0.10, 0.05)]:
            rows.append(ResultRow(R, "uniform", err_u, 0.0, 2))
            rows.append(ResultRow(R, "optimal", err_o, 0.0, 2))
            rows.append(ResultRow(R, "fixed_clf_optimal", err_o + 0.01, 0.0, 2))
        return ResultTable(rows=rows)

    def test_interpolates_in_log_budget(self):
        t = self.table()
        # uniform crosses 0.20 exactly at R = 4
        assert matched_error_budget(t, "uniform", 0.20) == pytest.approx(4.0)
        mid = matched_error_budget(t, "uniform", 0.25)
        assert 1.0 < mid < 4.0

    def test_ratio_and_errors(self):
        t = self.table()
        ratio = resource_ratio(t, 0.15)
        assert ratio > 1.0
        with pytest.raises(InvalidInputError, match="never crosses"):
            matched_error_budget(t, "uniform", 0.5)

    def test_ablation_recovery(self):
        t = self.table()
        rec = ablation_recovery(t)
        # ablation sits 0.01 above optimal on every grid point
        gains = [0.08, 0.08, 0.05]
        expected = sum(g - 0.01 for g in gains) / sum(gains)
        assert rec == pytest.approx(expected)

    def test_short_or_flat_tables_raise_package_errors(self):
        t = self.table()
        with pytest.raises(InvalidInputError, match="two grid points"):
            matched_error_budget(ResultTable(rows=t.rows[:3]), "uniform", 0.2)
        flat = ResultTable(rows=[ResultRow(1.0, rule, 0.2, 0.0, 2)
                                 for rule in ("uniform", "optimal", "fixed_clf_optimal")])
        with pytest.raises(InvalidInputError, match="never beats"):
            ablation_recovery(flat)


class TestConfigFile:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\n"
            "kind = synthetic\n"
            "budgets = 1, 2, 4\n"
            "folds = 3\n"
            "seed = 11\n"
            "[synthetic]\n"
            "a = 5\n"
            "n = 600\n"
            "[output]\n"
            "format = json\n"
        )
        cfg = load_config(str(path))
        assert cfg.kind == "synthetic"
        assert cfg.budgets == (1.0, 2.0, 4.0)
        assert cfg.folds == 3 and cfg.seed == 11
        assert cfg.a == 5.0 and cfg.n_samples == 600
        assert cfg.out_format == "json"
        cfg2 = load_config(str(path), {"seed": 99})
        assert cfg2.seed == 99

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = wild\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_data_path_checked(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = skin\nbudgets = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="synthetic", budgets=(1.0, -2.0)).validate()

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_non_finite_budget_rejected(self, tmp_path, budget):
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(kind="synthetic", budgets=(1.0, budget)).validate()
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nkind = synthetic\nbudgets = 1 {budget}\n")
        with pytest.raises(ConfigError, match="finite"):
            load_config(str(path))

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("Yes", True), ("on", True), ("1", True),
        ("false", False), ("no", False), ("OFF", False), ("0", False),
    ])
    def test_full_scale_takes_boolean_words(self, tmp_path, word, value):
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nkind = synthetic\nfull_scale = {word}\n")
        assert load_config(str(path)).full_scale is value

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "experiment.ini"
        path.write_text(block)
        cfg = load_config(str(path))
        assert cfg.kind == "synthetic"
        assert cfg.budgets == (1.5, 2.6, 4.4, 7.6, 13.0, 22.0, 40.0)
        assert cfg.noise_scale == 0.3333333 and cfg.scale_mode == "sd"
        assert cfg.train_fraction == 0.6667
        assert cfg.data_path == "data/Skin_NonSkin.txt"
        assert (cfg.out_path, cfg.out_format) == ("results.csv", "csv")


@pytest.fixture(scope="module")
def tiny_cfg():
    return ExperimentConfig(
        kind="synthetic", a=7.0, n_samples=900, folds=2, seed=5,
        budgets=(2.0, 8.0, 32.0),
    )


class TestSyntheticExperiment:

    def test_structure_and_determinism(self, tiny_cfg):
        t1 = run_experiment(tiny_cfg)
        t2 = run_experiment(tiny_cfg)
        assert t1.rows == t2.rows
        assert {row.rule for row in t1.rows} == {"uniform", "optimal", "fixed_clf_optimal"}
        assert len(t1.rows) == 9
        for row in t1.rows:
            assert 0.0 <= row.mean_error <= 1.0
            assert row.sd_error >= 0.0
            assert row.folds == 2

    def test_error_decreases_with_budget(self, tiny_cfg):
        table = run_experiment(tiny_cfg)
        for rule in {row.rule for row in table.rows}:
            errs = [row.mean_error for row in table.for_rule(rule)]
            assert errs[0] > errs[-1]

    def test_report_sink_collects_monotone_traces(self, tiny_cfg, monkeypatch):
        sink = []
        solve = experiments.solve_robust_hinge

        def logged(*args, **kwargs):
            sink.append(solve(*args, **kwargs))
            return sink[-1]

        monkeypatch.setattr(experiments, "solve_robust_hinge", logged)
        run_experiment(tiny_cfg)
        assert len(sink) == 2 * 2 * 3  # two regimes, two folds, three budgets
        for rep in sink:
            trace = np.array(rep.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)


def test_normalization_uses_train_stats_only(tmp_path):
    rng = np.random.default_rng(3)
    X = np.column_stack([
        rng.integers(0, 255, 400), rng.integers(0, 255, 400), rng.integers(0, 255, 400),
    ])
    labels = np.where(X[:, 0] + X[:, 1] > 255, 1, 2)
    path = tmp_path / "skin.txt"
    path.write_text(skin_lines([(b, g, r, l) for (b, g, r), l in zip(X, labels)]))
    cfg = ExperimentConfig(kind="skin", budgets=(4.0,), folds=2, seed=6,
                           data_path=str(path), subsample=400, train_size=200)
    from sensealloc.experiments import _fold_splits, _load_dataset, _normalize_split

    ds = _load_dataset(cfg)
    splits = _fold_splits(cfg, ds.n_samples)
    train, test = ds.subset(splits[0][0]), ds.subset(splits[0][1])
    ntrain, ntest = _normalize_split(train, test)
    np.testing.assert_allclose(ntrain.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(ntrain.features.std(axis=0), 1.0, rtol=1e-12)
    assert abs(float(ntest.features.mean())) > 1e-6  # test stats differ: no leakage reuse


def test_online_kind_produces_rows(tmp_path):
    cfg = ExperimentConfig(kind="online-noisy", budgets=(6.0,), seed=7, horizon=300,
                           weight_cap=3.0, out_path=str(tmp_path / "res.csv"))
    table = run_experiment(cfg)
    rules = {row.rule for row in table.rows}
    assert rules == {"uniform", "efficient"}
    assert (tmp_path / "res.trace-uniform.csv").exists()
    assert (tmp_path / "res.trace-efficient.csv").exists()
