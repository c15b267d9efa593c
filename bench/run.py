"""Seeded benchmark for qclock: clock solves, large local Lanczos solves and
the CLI pipeline.

    python3 bench/run.py --workload clock_solve --seed 1 --seconds 30 --trace 0

One process, one closed-loop client. Ops run until their timed wall time
adds up to --seconds; every op uses a fresh instance drawn from
(seed, op index) and is checked against an independent reference outside
the timed region. Set-up time is sampled in fresh processes spread over the
run, between ops, so that it sees the same machine as the ops. With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 every instance runs twice, plain and with per-layer spans, in
alternating order, and the JSON carries the per-layer metrics and the
tracing overhead measured on those pairs. A readable report, the
environment and any failing instance go to stderr.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: results are comparable only at
# one thread count, and one thread keeps a single client's timings steady on
# a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# fresh interpreter, qclock imported and ready for the first op
SETUP_CODE = "import qclock, qclock.cli"


def use_checkout_package():
    """Import qclock from this checkout's src/ by absolute path, never from a
    relative PYTHONPATH or another installed copy."""
    if not (SRC / "qclock" / "__init__.py").is_file():
        raise SystemExit(f"error: no qclock package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qclock
    if Path(qclock.__file__).resolve().parent != SRC / "qclock":
        raise SystemExit(f"error: imported qclock from {qclock.__file__}, not {SRC}")


def measure_setup() -> float:
    """Wall time of one fresh process that imports qclock."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    t0 = perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def tail(values):
    """Highest order statistic with at least ten samples above it, as
    (value, percentile, samples), or None when that statistic lies below the
    median, which happens with fewer than 21 samples."""
    ordered = sorted(values)
    if len(ordered) < 21:
        return None
    i = len(ordered) - 11
    return ordered[i], 100.0 * i / (len(ordered) - 1), len(ordered)


def timed_call(workload, inst, tracer=None):
    """(output, seconds, error) of one run() call, spans recorded if traced."""
    from spans import instrumented

    out, error = None, None
    t0 = perf_counter()
    try:
        if tracer is None:
            out = workload.run(inst)
        else:
            with instrumented(tracer):
                out = workload.run(inst)
    except Exception:
        error = "raised " + _one_line(traceback.format_exc(limit=3))
    return out, perf_counter() - t0, error


def run_loop(workload, seconds: float, tracer=None):
    """Closed loop until the timed op time reaches `seconds`. Returns the
    set-up samples and (index, inst, out, seconds, traced, error) per call;
    checks come later. Set-up is sampled before the first op (a warm-up,
    dropped) and then SETUP_REPEATS times at even steps of timed op time.
    With a tracer each instance runs plain and traced, alternating which
    goes first, so both sides see the same inputs."""
    measure_setup()
    setup, done = [], []
    timed = 0.0
    index = 0
    while timed < seconds:
        if len(setup) < SETUP_REPEATS and timed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(measure_setup())
        inst = workload.prepare(index)
        sides = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
        for traced in sides:
            out, wall, error = timed_call(workload, inst, tracer if traced else None)
            timed += wall
            done.append((index, inst, out, wall, traced, error))
        index += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())
    return setup, done


def _one_line(text: str) -> str:
    return text.strip().replace("\n", " | ")


def check_all(workload, done):
    """Check every call against its reference; returns (index, seconds,
    traced, failures) per call and prints each failure with its instance."""
    records = []
    for index, inst, out, wall, traced, error in done:
        fails = [error] if error else []
        if out is not None:
            if not traced and hasattr(workload, "record_times"):
                workload.record_times(out)
            try:
                fails = workload.check(inst, out)
            except Exception:
                fails = ["check raised " + _one_line(traceback.format_exc(limit=3))]
        records.append((index, wall, traced, fails))
    first = next((i for i, op in enumerate(done) if op[2] is not None), None)
    if hasattr(workload, "check_determinism") and first is not None:
        records[first][3].extend(workload.check_determinism(done[first][1], done[first][2]))
    for (index, _, _, fails), op in zip(records, done):
        for f in fails:
            print(f"FAIL {workload.name} op {index} [{workload.describe(op[1])}]: {f}",
                  file=sys.stderr)
    return records


def end_to_end(workload, records, setup_times, rss_kb):
    walls = [r[1] for r in records if not r[2]]
    passed = sum(1 for r in records if not r[2] and not r[3])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (passed / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {"op_p50_s": f"{len(walls)} ops", "setup_s": f"median of {len(setup_times)}"}
    extra = {"fail_frac": (sum(1 for r in records if r[3]) / len(records), "ratio")}
    high = tail(walls)
    if high is not None:
        extra["op_tail_s"] = (high[0], "s")
        notes["op_tail_s"] = f"p{high[1]:.0f} of {high[2]} ops"
    else:
        notes["op_tail_s"] = f"not reported: {len(walls)} ops, a tail needs 21"
    for name, times in getattr(workload, "command_times", {}).items():
        extra[f"cli_{name}_s"] = (statistics.median(times), "s")
    return metrics, extra, notes


def per_layer(workload, records, tracer) -> dict:
    """Per-layer metrics per traced call, and the tracing overhead as the
    median over instances of traced / plain wall time, minus one."""
    pairs = {}
    for index, wall, traced, _ in records:
        pairs.setdefault(index, {})[traced] = wall
    ratios = [p[True] / p[False] for p in pairs.values() if len(p) == 2]
    metrics = tracer.summary(sum(1 for r in records if r[2]))
    metrics["spectral.residual_rel"] = (workload.health.residual_rel, "ratio")
    metrics["spectral.energy_err_over_gap"] = (workload.health.energy_err_over_gap, "ratio")
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    return metrics, {"trace.overhead_frac": f"median of {len(ratios)} same-instance pairs"}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv), WORKLOADS


def main(argv=None) -> int:
    use_checkout_package()
    sys.path.insert(0, str(BENCH))
    args, workloads = parse_args(argv)
    from spans import Tracer

    print("env " + json.dumps(environment(), sort_keys=True), file=sys.stderr)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as work:
        workload = workloads[args.workload](args.seed, Path(work))
        tracer = Tracer() if args.trace else None
        setup_times, done = run_loop(workload, args.seconds, tracer)
        # read before the checks, whose references would set the high-water mark
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records = check_all(workload, done)
    metrics, extra, notes = end_to_end(workload, records, setup_times, rss_kb)
    if args.trace:
        # the plain calls of a traced run are reported on stderr only
        extra.update(metrics)
        metrics, trace_notes = per_layer(workload, records, tracer)
        notes.update(trace_notes)
    failed = sum(1 for r in records if r[3])
    reported = {**metrics, **extra}
    for name, (value, unit) in reported.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {value:.6g} {unit}{note}", file=sys.stderr)
    for name in notes.keys() - reported.keys():
        print(f"{args.workload} {name} {notes[name]}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
