import json

import numpy as np
import pytest

from conftest import breast_lines, skin_lines
from sensealloc import (
    NoiseModel,
    ResourceVector,
    RngConfig,
    generate_synthetic,
    read_results,
    square_loss_total,
)
from sensealloc.cli import main


def test_allocate_json(tmp_path, capsys):
    out = tmp_path / "alloc.json"
    code = main(["allocate", "--weights", "1,7,1", "--budget", "9",
                 "--family", "inverse_sqrt", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["allocation"], [1.0, 7.0, 1.0], rtol=1e-9)


def test_allocate_closed_form_matches_waterfill(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["allocate", "--weights", "0.5 2 1.25", "--budget", "4", "--out", str(a)])
    main(["allocate", "--weights", "0.5 2 1.25", "--budget", "4",
          "--solver", "closed-form", "--out", str(b)])
    alloc_a = json.loads(a.read_text())["allocation"]
    alloc_b = json.loads(b.read_text())["allocation"]
    np.testing.assert_allclose(alloc_a, alloc_b, rtol=1e-8)


def test_allocate_bad_weights_is_config_error():
    assert main(["allocate", "--weights", "zebra", "--budget", "1"]) == 2


def test_train_batch(tmp_path):
    out = tmp_path / "model.json"
    code = main(["train-batch", "--loss", "hinge", "--n", "300", "--budget", "6",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["weights"]) == 3
    assert payload["objective"] > 0


def test_train_batch_square_objective_matches_loss(tmp_path):
    out = tmp_path / "model.json"
    code = main(["train-batch", "--loss", "square", "--n", "300", "--budget", "6",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    ds = generate_synthetic(7.0, 300, rng=RngConfig(4))
    r = ResourceVector(np.array(payload["allocation"]), 6.0)
    loss = square_loss_total(ds, np.array(payload["weights"]), payload["bias"], r,
                             NoiseModel("inverse_sqrt"))
    assert payload["objective"] == loss.total


def test_allocate_adversarial_solver_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["allocate", "--weights", "1,7,1", "--budget", "9", "--solver", "adversarial"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_analyze_table(tmp_path):
    out = tmp_path / "ratios.csv"
    code = main(["analyze", "--a-values", "1 7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,theoretical,empirical"
    a1 = [float(v) for v in lines[1].split(",")]
    assert a1[1] == pytest.approx(1.0)
    a7 = [float(v) for v in lines[2].split(",")]
    assert a7[1] == pytest.approx(3 * 51 / 81)
    assert a7[2] == pytest.approx(a7[1], rel=1e-3)


def test_experiment_roundtrip(tmp_path):
    cfg = tmp_path / "exp.ini"
    out = tmp_path / "rows.csv"
    cfg.write_text(
        "[experiment]\n"
        "kind = synthetic\n"
        "budgets = 2, 8\n"
        "folds = 2\n"
        "seed = 3\n"
        "[synthetic]\n"
        "n = 400\n"
    )
    code = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "R,rule,mean_error,sd_error,folds,flag"
    assert len(lines) == 7


@pytest.mark.parametrize("ini", [
    "[experiment]\nkind = synthetic\nbudgets = 2, 8\nfolds = 2\nseed = 3\n"
    "[synthetic]\nn = 400\n",
    "[experiment]\nkind = synthetic-sweep\nbudgets = 0.5 2\nfolds = 2\nseed = 1\n"
    "[synthetic]\nn = 300\nsweep_a = 1 7\n",
], ids=["synthetic", "sweep-with-flags"])
def test_experiment_stdout_matches_out_files(tmp_path, capsys, ini):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    assert main(["experiment", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    rows_csv, rows_json = tmp_path / "rows.csv", tmp_path / "rows.json"
    assert main(["experiment", "--config", str(cfg), "--out", str(rows_csv)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(rows_json),
                 "--format", "json"]) == 0
    assert stdout.splitlines() == rows_csv.read_text().splitlines()[1:]
    # repr, because a sweep row without a crossing holds a NaN ratio
    assert (repr(read_results(str(rows_json), "json").rows)
            == repr(read_results(str(rows_csv), "csv").rows))


def test_experiment_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nkind = nonsense\n")
    assert main(["experiment", "--config", str(cfg)]) == 2


_DATA_FILES = {
    "skin": skin_lines([(10 * k, 200 - k, 3 * k, 1 + k % 2) for k in range(20)]),
    "breast": breast_lines([(k, *[1 + (k + j) % 9 for j in range(9)], 2 + 2 * (k % 2))
                            for k in range(20)]),
}


@pytest.mark.parametrize("kind, line, synthetic, data", [
    ("synthetic", "scale_mode = bogus\n", "", ""),
    ("synthetic", "noise_scale = -1\n", "", ""),
    ("synthetic", "noise_scale = nan\n", "", ""),
    ("synthetic", "train_size = 100\n", "", ""),
    ("synthetic", "[experiment]\n", "", ""),
    ("synthetic", "seed = -3\n", "", ""),
    ("synthetic", "full_scale = ture\n", "", ""),
    ("synthetic", "", "a = nan\n", ""),
    ("synthetic", "", "a = inf\n", ""),
    ("synthetic", "", "sweep_a = 1 nan\n", ""),
    ("synthetic", "", "label_noise_sd = nan\n", ""),
    ("synthetic", "", "label_noise_sd = -1\n", ""),
    ("skin", "", "", "subsample = -5\n"),
    ("skin", "", "", "subsample = 0\n"),
    ("synthetic", "", "", "train_size = -1\n"),
    ("synthetic", "", "", "train_size = 0\n"),
    ("breast", "", "", "train_fraction = nan\n"),
    ("breast", "", "", "train_fraction = 0\n"),
    ("breast", "", "", "train_fraction = 1\n"),
    ("synthetic-sweep", "target_error = nan\n", "sweep_a = 7\n", ""),
    ("synthetic-sweep", "target_error = 0\n", "sweep_a = 7\n", ""),
    ("synthetic-sweep", "target_error = 1\n", "sweep_a = 7\n", ""),
], ids=["bad-scale-mode", "negative-noise-scale", "nan-noise-scale", "unmapped-key",
        "duplicate-section", "negative-seed", "full-scale-typo", "nan-slope",
        "infinite-slope", "nan-sweep-slope", "nan-label-noise", "negative-label-noise",
        "negative-subsample", "zero-subsample", "negative-train-size", "zero-train-size",
        "nan-train-fraction", "zero-train-fraction", "unit-train-fraction",
        "nan-target-error", "zero-target-error", "unit-target-error"])
def test_experiment_invalid_config_exit_2(tmp_path, capsys, kind, line, synthetic, data):
    if kind in _DATA_FILES:
        path = tmp_path / f"{kind}.txt"
        path.write_text(_DATA_FILES[kind])
        data = f"path = {path}\n" + data
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nkind = {kind}\nbudgets = 2 8\nfolds = 2\n" + line
                   + "[synthetic]\nn = 400\n" + synthetic + "[data]\n" + data)
    assert main(["experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("folds", [1, 500])
def test_experiment_fold_count_exit_2(tmp_path, capsys, folds):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nkind = synthetic\nbudgets = 2 8\nfolds = {folds}\n"
                   "[synthetic]\nn = 400\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_train_batch_empty_sample_exit_2(capsys):
    assert main(["train-batch", "--n", "0"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_experiment_malformed_data_exit_3(tmp_path):
    data = tmp_path / "skin.txt"
    data.write_text("1\t2\n")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nkind = skin\nbudgets = 1\nfolds = 2\n"
        f"[data]\npath = {data}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == 3


def test_online_demo(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code = main(["online-unknown", "--rounds", "200", "--budget", "6",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "demo.trace-unknown.csv").exists()


def test_oracle_check(capsys):
    assert main(["oracle-check", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text


def test_skin_experiment_via_cli(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.integers(0, 255, size=(300, 3))
    labels = np.where(X[:, 0].astype(int) + X[:, 1] > 250, 1, 2)
    data = tmp_path / "skin.txt"
    data.write_text(skin_lines([(b, g, r, l) for (b, g, r), l in zip(X, labels)]))
    cfg = tmp_path / "exp.ini"
    out = tmp_path / "rows.json"
    cfg.write_text(
        "[experiment]\nkind = skin\nbudgets = 1, 10\nfolds = 2\nseed = 2\n"
        f"[data]\npath = {data}\nsubsample = 300\ntrain_size = 100\n"
        "[output]\nformat = json\n"
    )
    code = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "R"
    assert len(payload["rows"]) == 6


@pytest.mark.parametrize("argv", [
    ["--weights", "1,nan", "--budget", "3"],
    ["--weights", "0,0", "--budget", "3"],
    ["--weights", "1,2", "--budget", "3", "--family", "tabulated"],
    ["--weights", "1,2", "--budget", "-3"],
    ["--weights", ",", "--budget", "3", "--family", "quantization", "--solver", "closed-form"],
], ids=["nan-weight", "zero-weights", "tabulated-without-table", "negative-budget",
        "no-weights-bits"])
def test_allocate_invalid_input_exit_2(argv, capsys):
    assert main(["allocate", *argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _exit_code(argv):
    """main's exit code, also where argparse rejects the arguments."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--seed", "-1"],
    ["train-batch", "--loss", "square", "--n", "40", "--seed", "-2"],
    ["online-unknown", "--rounds", "10", "--seed", "-5"],
    ["analyze", "--a-values=-3"],
    ["analyze", "--a-values", "x"],
    ["analyze", "--a-values", "1 nan"],
    ["analyze", "--a-values", "inf"],
    ["analyze", "--a-values", "1", "--seed", "-1"],
    ["train-batch", "--a", "nan", "--n", "40"],
    ["train-batch", "--a", "inf", "--n", "40"],
], ids=["oracle-check-seed", "train-batch-seed", "online-seed",
        "negative-a", "unparsable-a", "nan-a", "infinite-a", "analyze-seed",
        "train-batch-nan-a", "train-batch-infinite-a"])
def test_bad_seed_or_slope_exit_2(argv, capsys):
    """Exit code 1 is oracle-check's "checks failed", so bad input must not
    reach it through a numpy error."""
    assert _exit_code(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_experiment_negative_seed_override_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nkind = synthetic\nbudgets = 2\nfolds = 2\n[synthetic]\nn = 40\n")
    assert _exit_code(["experiment", "--config", str(cfg), "--seed", "-4"]) == 2
    assert "Traceback" not in capsys.readouterr().err
