"""Run one eigenwave benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload invert_salt --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, checks, every repetition and, when traced, every span) goes
to ``.bench_out/`` in the checkout.  The exit code is 0 when every output
check passed, 1 when one failed and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("invert_salt", "forward_survey", "basis_sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads per workload, capped at nproc.  SuperLU factorizes on one
# thread, so a second only adds barrier waits that a busy neighbour
# stretches; the Lanczos updates of the eigensolve are dense BLAS and gain
# from two.
BLAS_THREADS = {"invert_salt": 1, "forward_survey": 1, "basis_sweep": 2}
# set up at least 5 times, and up to 50 times until 3 s is spent
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 5, 50, 3.0
QUALITY_UNITS = {"model_err_pct": "%", "misfit_ratio": "ratio"}
NOT_APPLICABLE = 1.0  # reported for a quality metric a workload does not have


def limit_threads(workload: str, nproc: int) -> None:
    """Set the workload's BLAS and OpenMP pool size; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS[workload], nproc))


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


# tracing and workloads import numpy and eigenwave, so the functions below
# import them only after main() has capped the threads and set the path


def timed_reps(workload, inputs, seconds: float, trace: bool, tracer):
    """Repeat the timed section while the next repetition fits in `seconds`.

    A traced run alternates untraced and traced repetitions and makes at
    least one of each.  Returns the last outputs, the walls split by
    tracing, the operation tally, the boundaries found missing and the
    number of repetitions that produced no output.
    """
    import tracing
    from workloads import Ops

    walls = {False: [], True: []}
    ops, missing, lost, outputs = Ops(), [], 0, None
    start = perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        outputs = None  # free the last repetition's outputs before the next
        t0 = perf_counter()
        if traced:
            tracer.rep += 1
            with tracing.installed(tracer) as missing:
                outputs, rep_ops = workload.run(inputs)
        else:
            outputs, rep_ops = workload.run(inputs)
        walls[traced].append(perf_counter() - t0)
        ops += rep_ops
        lost += outputs is None
        if trace and not walls[True]:
            continue
        longest = max(walls[False] + walls[True])
        if lost or perf_counter() - start + longest > seconds:
            break
    return outputs, walls, ops, missing, lost


def measure(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    import tracing
    from workloads import WORKLOADS, Ops

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](OUT)
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS or (
        sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX_REPS
    ):
        t0 = perf_counter()
        inputs = workload.setup(seed)
        setup_s.append(perf_counter() - t0)

    tracer = tracing.Tracer()
    outputs, walls, ops, missing, lost = timed_reps(workload, inputs, seconds, trace, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, quality = [("every_repetition_completed", not lost, f"{lost} lost" if lost else "")], {}
    if outputs is not None:
        quality = workload.quality(inputs, outputs)
        checks += workload.check(inputs, outputs, quality)
    ops += Ops(len(checks), sum(not ok for _, ok, _ in checks))

    if trace:
        summary = tracing.Summary(
            tracer, len(walls[True]),
            statistics.median(walls[True]), statistics.median(walls[False]),
        )
        metrics = tracing.layer_metrics(summary, missing, tracer.changed)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            **{
                key: {"value": quality.get(key, NOT_APPLICABLE), "unit": unit}
                for key, unit in QUALITY_UNITS.items()
            },
        }
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "result": result,
        "setup_s": setup_s, "wall_s": walls[False], "traced_wall_s": walls[True],
        "quality": quality,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "missing_boundaries": missing,
        "spans": [vars(s) for s in tracer.spans],
    }
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")
    report(record)
    return result


def report(record: dict) -> None:
    """Human-readable lines: checks, then every metric with its unit."""
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"reps {len(record['wall_s'])} untraced, {len(record['traced_wall_s'])} traced")
    print("env " + json.dumps(record["env"]))
    for row in record["checks"]:
        print(f"  check {row['name']:<40} {'ok' if row['ok'] else 'FAILED'}  {row['detail']}")
    for boundary in record["missing_boundaries"]:
        print(f"  boundary missing: {boundary}")
    for key, m in result["metrics"].items():
        if m["value"] is None:
            print(f"  {key:<32} absent: {m['absent']}")
            continue
        note = "  (not applicable)" if key in QUALITY_UNITS and key not in record["quality"] else ""
        print(f"  {key:<32} {m['value']:.6g} {m['unit']}{note}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<32} {fail_frac:.6g} ({result['failed']}/{result['attempted']})")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eigenwave" / "__init__.py").is_file():
        print(f"bench: no eigenwave package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    limit_threads(args.workload, nproc)
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), environment(nproc))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
