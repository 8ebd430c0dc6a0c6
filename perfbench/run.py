#!/usr/bin/env python3
"""prunesolve benchmark: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload pipeline-mvc --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs come from ``--seed``. The run sets up its workload two or three
times (``setup_s`` is their median plus the import time), then repeats whole
rounds of the workload while a further round still fits in ``--seconds``,
checking every output against the benchmark's own computations. The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, and with
``--trace 1`` the per-layer metrics of a run whose first round is untraced
and whose later rounds are traced (see ``tracing.py``); that run also writes
``perfbench/work/trace-<workload>-<seed>.json``.

Exit codes: 0 with a result line, 1 when the checkers' self-tests or the
workload's set-up fail, 2 when the program's source is missing.
"""

import os

# Pin BLAS to one thread before numpy is imported: the timings are of a
# single-threaded program, whatever the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOAD_NAMES = ("pipeline-mvc", "solve-mis", "exact")

# End-to-end metrics, in the order BENCHMARK.json lists them: (name, unit)
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("stage1_s", "s"),
              ("stage2_s", "s"), ("quality", "ratio")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import prunesolve from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import prunesolve
    from prunesolve import bench, cli, gcn, graph, solvers, training  # noqa: F401

    if Path(prunesolve.__file__).resolve().parent != SRC / "prunesolve":
        raise ImportError(f"prunesolve imported from {prunesolve.__file__}")
    return prunesolve


def run_rounds(workload, state, seconds: float) -> list:
    """Whole rounds: one, then more while the median round still fits in
    ``seconds``."""
    rounds, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.round(state))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return rounds


def stage_times(rounds) -> dict[int, float]:
    """Each timed call's median across the rounds, summed per stage."""
    repeats: dict[str, list[float]] = {}
    stage_of: dict[str, int] = {}
    for r in rounds:
        for call, (stage, dt) in r.times.items():
            repeats.setdefault(call, []).append(dt)
            stage_of[call] = stage
    return {k: sum(statistics.median(repeats[c]) for c in repeats if stage_of[c] == k)
            for k in (1, 2)}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def traced_run(ps, workload, state, args) -> tuple[list, dict]:
    """One untraced round, then traced rounds; per-layer metrics, and a
    trace file with the environment and the tracing overhead."""
    import tracing

    start = time.perf_counter()
    untraced = workload.round(state)
    tracer = tracing.Tracer(ps)
    tracer.install()
    try:
        left = args.seconds - (time.perf_counter() - start)
        traced = run_rounds(workload, state, max(left, 0.0))
    finally:
        tracer.uninstall()
    extra = {k: statistics.fmean(r.layers.get(k, 0.0) for r in traced)
             for k in ("bench.phase1_s", "bench.phase2_s", "bench.phase3_s")}
    layers = tracer.per_layer(len(traced), extra)
    traced_wall = traced[0].wall_s
    WORK.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced_wall,  # of the first traced round
        "tracing_overhead_s": traced_wall - untraced.wall_s,
        "traced_rounds": len(traced),
        "per_layer": layers,
        "calls": dict(sorted(tracer.calls.items())),
    }
    path = WORK / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    return [untraced, *traced], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prunesolve" / "__init__.py").is_file():
        print(f"run.py: no prunesolve source under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import checks
    import workloads

    ps = import_program()
    import_s = time.perf_counter() - t0

    broken = checks.self_test()
    if broken:
        print(f"run.py: checker self-tests failed: {broken}", file=sys.stderr)
        return 1

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = []
        try:
            for _ in range(1 if args.trace else workload.setups):
                t = time.perf_counter()
                state = workload.setup(ps, work, args.seed)
                setups.append(time.perf_counter() - t)
        except (RuntimeError, OSError, ValueError) as e:
            print(f"run.py: set-up of {args.workload} failed: {e}", file=sys.stderr)
            return 1
        workload.reference(state)

        if args.trace:
            rounds, metrics = traced_run(ps, workload, state, args)
        else:
            rounds = run_rounds(workload, state, args.seconds)
            stages = stage_times(rounds)
            values = {
                "setup_s": import_s + statistics.median(setups),
                "wall_s": stages[1] + stages[2],
                "stage1_s": stages[1],
                "stage2_s": stages[2],
                "quality": rounds[0].quality,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = [msg for r in rounds for msg in r.wrong]
    failed = sum(r.failed for r in rounds)
    for i, r in enumerate(rounds[1:], start=2):
        if r.digest != rounds[0].digest:
            wrong.append(f"round {i}: outputs differ from round 1")
            failed += r.attempted - r.failed
    for msg in wrong[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} figures: {json.dumps(rounds[0].figures)}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
