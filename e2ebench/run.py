"""End-to-end benchmark of the ETA² reproduction.

Usage, from the repository root::

    python3 e2ebench/run.py --workload synthetic-mq --seed 2017 --seconds 20 --trace 0

Workloads: ``synthetic-mq`` and ``survey-mc`` (``run_simulation`` with an
``ETA2Approach``) and ``serve-replay`` (``IngestionService``); sizes, seeds
and why each was chosen are in ``workloads.json``, metric definitions in
``README.md``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions of the first input and prints
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every correctness check passed, 1 when one failed, and 2 when the
program cannot be imported.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_stats as stats  # noqa: E402
import bench_trace as trace  # noqa: E402
import bench_workloads as workloads  # noqa: E402

CONFIG = json.loads((HERE / "workloads.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Stop starting repetitions once this many seconds have gone, so a run
#: ends well inside its 180-second limit even on a slow machine.
TIME_GUARD_S = 120.0
INPUT_STRIDE = 100_003
#: Printed for every workload but not in the JSON line, so not held to a
#: bound: ten-seed spreads of the slowest day reached 0.27 on serve-replay,
#: above the largest bound allowed, and the failed ratio is 0 where nothing
#: fails (``ok_ratio`` carries it instead).
TABLE_ONLY_UNITS = {"day_max_s": "s", "failed_ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def meta() -> dict:
    import numpy

    blas = next(
        (
            f"{name}={os.environ[name]}"
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        ),
        "unset (OpenBLAS default: one per core)",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas,
    }


def time_left(start: float, seconds: float) -> bool:
    return time.perf_counter() - start < min(seconds, TIME_GUARD_S)


def untraced_run(run, seed: int, inputs: int, seconds: float) -> list:
    """Inputs ``0..inputs-1``, then repeats from input 0 until ``seconds`` pass."""
    reps: list = []
    start = time.perf_counter()
    while len(reps) <= inputs or time_left(start, seconds):
        reps.append(run(seed + (len(reps) % inputs) * INPUT_STRIDE))
    return reps


def end_to_end(reps, import_s: float) -> "tuple[dict, dict, dict]":
    """End-to-end metrics, sample counts and notes from untraced repetitions.

    Times are first reduced per input (median over that input's repeats),
    so every input weighs the same however often it was repeated.
    """
    by_input: dict = {}
    for rep in reps:
        by_input.setdefault(rep.input_seed, []).append(rep)
    groups = list(by_input.values())
    firsts = [group[0] for group in groups]
    by_day = [
        [stats.median(rep.day_s[d] for rep in group) for d in range(len(group[0].day_s))]
        for group in groups
    ]
    day_slots = [seconds for days in by_day for seconds in days]
    # The slowest day of the schedule, each day averaged over the inputs
    # with the extreme fifth at either end dropped: one input's slow solve
    # does not decide it on its own.
    schedule_days = [
        stats.trimmed_mean(days[d] for days in by_day) for d in range(len(by_day[0]))
    ]
    loop_s = sum(stats.median(rep.loop_s for rep in group) for group in groups)
    submits = [[s for rep in group for s in rep.submit_s] for group in groups]
    p50 = [stats.percentile(samples, 0.5) for samples in submits]
    p99 = [stats.percentile(samples, 0.99) for samples in submits]
    tally = stats.Tally()
    for rep in firsts:
        tally = tally.merge(rep.tally)
    values = {
        "setup_s": import_s + stats.median(rep.setup_s for rep in reps),
        "tasks_per_s": sum(rep.tasks_with_truth for rep in firsts) / loop_s,
        "day_p50_s": stats.median(day_slots),
        "day_max_s": max(schedule_days),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": tally.ok_ratio,
        "failed_ratio": tally.failed_ratio,
        "estimation_error": sum(rep.estimation_error for rep in firsts) / len(firsts),
        "recruit_cost": sum(rep.recruit_cost for rep in firsts) / len(firsts),
        "submit_p50_us": stats.median(p.value for p in p50) * 1e6,
        "submit_p99_us": stats.median(p.value for p in p99) * 1e6,
    }
    n_submits = sum(len(samples) for samples in submits)
    samples = {
        "setup_s": len(reps),
        "tasks_per_s": len(groups),
        "day_p50_s": len(day_slots),
        "day_max_s": len(day_slots),
        "peak_rss_mb": 1,
        "ok_ratio": tally.attempted,
        "failed_ratio": tally.attempted,
        "estimation_error": len(groups),
        "recruit_cost": len(groups),
        "submit_p50_us": n_submits,
        "submit_p99_us": n_submits,
    }
    notes = {
        "failed_ratio": f"{tally.failed} of {tally.attempted} failed: {dict(tally.reasons)}",
        "submit_p99_us": f"per-input p99 of ~{n_submits // len(groups)} calls"
        + ("" if all(p.meets_rule for p in p99) else ": fewer than 10 calls beyond it"),
    }
    return values, samples, notes


def phase_check(rep, recorder) -> "tuple[list, list]":
    """Compare span-derived phase totals with the program's own PhaseTimer."""
    tolerance = CONFIG["phase_tolerance"]
    step_total = sum(rep.phase_s.values())
    allowed = tolerance["abs_s"] + tolerance["rel"] * step_total
    rows, problems = [], []
    for phase, spans in trace.phase_totals(recorder).items():
        timer = rep.phase_s.get(phase, 0.0)
        share = timer / step_total if step_total else 0.0
        rows.append(
            f"  {phase:<9} timer {timer:8.4f} s ({share:6.1%} of the step time)  "
            f"spans {spans:8.4f} s  gap {spans - timer:+.4f} s"
        )
        if abs(spans - timer) > allowed:
            problems.append(
                f"phase {phase}: spans {spans:.4f} s vs timer {timer:.4f} s "
                f"(allowed gap {allowed:.4f} s)"
            )
    return rows, problems


def traced_run(run, seed: int, seconds: float) -> "tuple[dict, list, list, list]":
    """Alternate untraced and traced repetitions of the first input."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time_left(start, seconds):
        plain.append(run(seed))
        recorder = trace.Recorder()
        traced.append((run(seed, recorder=recorder), recorder))
    layers, problems = [], []
    for rep, recorder in traced:
        metrics = trace.layer_metrics(recorder)
        metrics["semantics.train_s"] = rep.embedding_train_s
        metrics["wal.bytes"] = rep.wal_bytes
        layers.append(metrics)
        rows, phase_problems = phase_check(rep, recorder)
        problems += phase_problems
    values = {name: stats.median(m[name] for m in layers) for name in layers[0]}
    values["trace_overhead_ratio"] = stats.median(r.loop_s for r, _ in traced) / stats.median(
        r.loop_s for r in plain
    )
    return values, plain + [rep for rep, _ in traced], rows, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro
        import repro.serve.service  # noqa: F401  (imports count as set-up)
        import repro.simulation.approaches  # noqa: F401
    except ImportError as error:
        print(f"error: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"error: imported the program from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    workloads.quiet_program_logs()

    workdir = ROOT / ".e2ebench-work"
    workdir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]

    def run(seed, recorder=None, size="full"):
        # Garbage left by the previous repetition is collected untimed.
        gc.collect()
        return workload(seed, recorder=recorder, workdir=workdir, size=size)

    try:
        # Lazy imports and first-call set-up inside the program happen in an
        # untimed tiny repetition, so the first measured input is not slower.
        run(args.seed, size="tiny")
        if args.trace:
            values, reps, rows, problems = traced_run(run, args.seed, args.seconds)
            samples, notes = {}, {}
        else:
            inputs = CONFIG["workloads"][args.workload]["inputs"]
            reps = untraced_run(run, args.seed, inputs, args.seconds)
            values, samples, notes = end_to_end(reps, import_s)
            rows, problems = [], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fingerprints: dict = {}
    for rep in reps:
        fingerprints.setdefault(rep.input_seed, set()).add(rep.fingerprint)
        problems += [f"input {rep.input_seed}: {problem}" for problem in rep.problems]
    problems += [
        f"input {seed}: repeated runs gave {len(prints)} different fingerprints"
        for seed, prints in fingerprints.items()
        if len(prints) > 1
    ]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  inputs {sorted(fingerprints)}")
    print("meta " + json.dumps(meta(), sort_keys=True))
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    for name, value in values.items():
        unit = units.get(name) or TABLE_ONLY_UNITS[name]
        count = samples.get(name, "")
        print(f"  {name:<28} {value:14.6g} {unit:<6} n={count!s:<6} {notes.get(name, '')}")
    if rows:
        print(
            "phases of the last traced repetition: the program's PhaseTimer vs the "
            f"benchmark's spans (allowed gap {CONFIG['phase_tolerance']['abs_s']} s + "
            f"{CONFIG['phase_tolerance']['rel']:.0%} of the step time)"
        )
        for row in rows:
            print(row)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(rep.tally.attempted for rep in reps),
        "failed": sum(rep.tally.failed for rep in reps),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
