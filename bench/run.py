"""sensealloc benchmark.

Run from the repository root, with no installation:

    python3 bench/run.py --workload experiment_synthetic --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload runs units for
``--seconds`` seconds of timed work and reports the median unit's rate, and
set-up is measured in several fresh processes started between the units.

``--trace 1`` measures the per-layer metrics: a fixed number of units runs
twice each, untraced and with every layer boundary wrapped (see spans.py),
and the median slowdown of a traced unit against its untraced twin is
reported as the trace overhead.  The spans are written to
``.bench_out/spans-<workload>-seed<seed>.npz``.

Every line but the last is for people: the environment record, the metrics
by name with their units, and any failed check.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when the benchmark ran, whether or not checks failed, and
non-zero when it could not run (for example, when ``src/sensealloc`` is not
there).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import registry

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in registry.SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_package():
    """Import sensealloc from this checkout's src/, never from elsewhere."""
    if not (SRC / "sensealloc" / "__init__.py").is_file():
        sys.exit(f"bench: no sensealloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sensealloc

    if Path(sensealloc.__file__).resolve().parent != SRC / "sensealloc":
        sys.exit(f"bench: imported sensealloc from {sensealloc.__file__}, not {SRC}")
    return sensealloc


def _workdir() -> Path:
    base = ROOT / ".bench_out"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=base))


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body for measuring set-up: import, build the workload,
    print the clock.  CLOCK_MONOTONIC is shared by all processes on Linux,
    so the parent can subtract its own spawn time."""
    _import_package()
    from workloads import WORKLOADS

    workdir = _workdir()
    try:
        WORKLOADS[workload](seed, workdir)
        print(repr(time.perf_counter()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from the start of one fresh process to its workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-probe"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


class Tally:
    """Timed seconds, failures and the rates of passing units over a
    sequence of units."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.rates = []

    def rate(self) -> float:
        """Median over passing units of operations per timed second.

        Not total work over total time: on the 2-core shared Xeon VM this was
        tuned on, 13 ms chunks of fixed work ran from 0.6x to 8x their median
        time, and a mean carries those stalls into the figure.  Over 15 s
        windows the median rate of 20 ms pieces spread 3% from window to
        window, where the mean rate spread 11%."""
        return statistics.median(self.rates) if self.rates else 0.0


def run_unit(wl, k: int, tally: Tally, tracer=None, root: int = -1) -> float:
    """One closed-loop step: prepare unit k, run it (timed), check it, and
    return its timed seconds.  With a tracer, the unit runs inside a span
    whose name id is ``root``."""
    inputs = wl.prepare(k)
    if tracer is not None:
        tracer.run_id = k
    span = None if tracer is None else tracer.open(root)
    t0 = time.perf_counter()
    problems = None
    try:
        outputs = wl.execute(inputs)
    except Exception:  # a failing operation is counted; the run goes on
        problems = [traceback.format_exc()]
    finally:
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
    if problems is None:
        try:
            problems = wl.check(inputs, outputs)
        except Exception:  # output the check cannot even read is a failure too
            problems = [traceback.format_exc()]
    tally.attempted += 1
    tally.seconds += dt
    if problems:
        tally.failed += 1
        for problem in problems:
            print(f"check failed ({wl.name} unit {k}): {problem}", file=sys.stderr)
    else:
        tally.rates.append(wl.work(inputs) / dt)
    return dt


def environment(sa, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sensealloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sensealloc": sa.__version__,
        "nproc": NPROC,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def end_to_end(wl, seconds: int):
    """The untraced run: units back to back until ``seconds`` of timed work
    are done.  Returns (metric values, tally).

    The set-up probes run between the units, spread over the run, so that
    their median sees the same stretch of machine time as the throughput
    rather than the few seconds before it."""
    tally = Tally()
    setup = []
    k = 0
    while tally.seconds < seconds:
        if len(setup) < SETUP_PROBES and tally.seconds >= len(setup) * seconds / SETUP_PROBES:
            setup.append(measure_setup(wl.name, wl.seed))
            continue
        run_unit(wl, k, tally)
        k += 1
    setup += [measure_setup(wl.name, wl.seed) for _ in range(SETUP_PROBES - len(setup))]
    values = {
        "ops_per_s": tally.rate(),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, tally


def per_layer(wl, seconds: int, spans_path: Path):
    """The traced run: each of a fixed number of units runs twice, untraced
    and traced, in an order that alternates from pair to pair, so both
    phases see the same inputs and the same stretch of machine time.  The
    trace overhead is the median over pairs of the traced unit's slowdown.
    Writes the spans and returns (metric values, tally)."""
    from spans import Instrumentation, Tracer

    tracer = Tracer()
    inst = Instrumentation(tracer)
    registry.instrument(inst)
    for name in inst.missing:
        print(f"trace: sensealloc has no {name}; its metrics read 0", file=sys.stderr)
    root = tracer.name_id(f"{registry.ROOT_SPAN}.{wl.name}")
    untraced, tally = Tally(), Tally()
    ratios = []
    for k in range(wl.trace_units(seconds)):
        if k % 2:
            with inst:
                traced_s = run_unit(wl, k, tally, tracer, root)
        plain_s = run_unit(wl, k, untraced)
        if not k % 2:
            with inst:
                traced_s = run_unit(wl, k, tally, tracer, root)
        ratios.append(traced_s / plain_s)
    tracer.write(spans_path)
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    if len(ratios) > 1:
        q1, _, q3 = (100.0 * (q - 1.0) for q in statistics.quantiles(ratios, n=4))
        print(f"trace overhead over {len(ratios)} unit pairs: median {overhead_pct:+.1f}%, "
              f"quartiles {q1:+.1f}% to {q3:+.1f}%")
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    values = registry.per_layer_metrics(tracer, overhead_pct, tally.failed / tally.attempted)
    return values, tally


def result_line(values: dict, units: dict, tally: Tally) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(NPROC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    sa = _import_package()
    from workloads import WORKLOADS

    workdir = _workdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace == 0:
            values, tally = end_to_end(wl, args.seconds)
            units = {m["name"]: m["unit"] for m in registry.SPEC["end_to_end"]}
        else:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            values, tally = per_layer(wl, args.seconds, spans_path)
            units = {m["name"]: m["unit"] for m in registry.SPEC["per_layer"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = result_line(values, units, tally)
    print(json.dumps({"environment": environment(sa, args)}))
    print(f"{args.workload}: {tally.attempted} units, {tally.failed} failed")
    if args.trace == 0:
        print(f"  ops_per_s is {wl.ops_name} here")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
