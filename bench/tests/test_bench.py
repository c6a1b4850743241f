"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest bench/tests -q

The end-to-end cases run every workload once, traced and untraced, at its
smallest size (one unit), so the file takes a minute or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()

import registry  # noqa: E402
import sensealloc as sa  # noqa: E402
from spans import Instrumentation, Tracer, self_times  # noqa: E402
from workloads import AllocAnalytic  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in registry.SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = registry.SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
        assert f"  {name} = " in done.stdout
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["fail_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "alloc_analytic", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


class SpoiledAnalytic(AllocAnalytic):
    """Shifts one coordinate of every water-fill result, which breaks the
    sum = R and closed-form checks."""

    def execute(self, inputs):
        water, closed, relaxed, bits = super().execute(inputs)
        key = ("inverse_sqrt", 3)
        ar = water[key]
        alloc = ar.r.alloc.copy()
        alloc[0] *= 0.5
        water[key] = sa.AllocationResult(sa.ResourceVector(alloc, ar.r.budget), ar.lam,
                                         ar.funded, ar.residual)
        return water, closed, relaxed, bits


def test_failing_check_raises_fail_ratio(tmp_path):
    original = sa.allocate_waterfill
    wl = SpoiledAnalytic(5, tmp_path)
    values, tally = run.per_layer(wl, 1, tmp_path / "spans.npz")
    assert values["fail_ratio"] == 1.0
    assert tally.failed == tally.attempted > 0
    _, tally = run.end_to_end(wl, 1)
    result = run.result_line({"x": 1.0}, {"x": "s"}, tally)
    assert result["correct"] is False and result["failed"] == result["attempted"]
    # the traced phase leaves the library as it found it
    assert sa.allocate_waterfill is original
    assert sa.allocation.allocate_waterfill is original


def test_self_time_on_hand_built_span_tree():
    # 0 root [0, 10]: children 1 [1, 4] and 2 [3, 6] overlap, 3 [9, 12]
    #   runs past the root's end; 4 [2, 3] is a grandchild under 1.
    start = np.array([0.0, 1.0, 3.0, 9.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 12.0, 3.0])
    parent = np.array([-1, 0, 0, 0, 1])
    own = self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6; span 1: 3 - 1; leaves keep
    # their whole duration
    np.testing.assert_allclose(own, [4.0, 2.0, 3.0, 3.0, 1.0])


def test_wrappers_record_nesting_and_counters():
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.wrap("allocation", "allocate_adversarial")
    inst.wrap("allocation", "allocate_waterfill",
              on_result=lambda t, res, a, kw: t.add("solves", 1))
    inst.wrap("allocation", "no_such_function")
    with inst:
        sa.allocate_adversarial([1.0, 2.0], sa.NoiseModel("inverse"), 3.0)
    sa.allocate_waterfill([1.0, 2.0], sa.NoiseModel("inverse"), 3.0)  # not traced
    assert inst.missing == ["allocation.no_such_function"]
    assert [tracer.names[i] for i in tracer.name] == [
        "allocation.allocate_adversarial", "allocation.allocate_waterfill"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.counters["solves"] == 1
