"""Run one clusterforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: mc-graph, verify and cli-session.  Run from any directory;
the library is imported from the ``src`` directory next to
``perfbench``, never from an installed copy.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric in BENCHMARK.json; with ``--trace 1`` it
has every per-layer metric, measured on cycles that alternate with
untraced ones.  Times are scaled to the reference host speed of
speed.py.  Lines before the result start with ``#`` and describe the
run, raw wall-clock figures included.  The exit code is 0 when a result
was printed, and nonzero, with no result, when the run could not be
made.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from speed import scale
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
# Fresh interpreters whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 7
# Everything, set-up samples included, must finish within this.
BUDGET_S = 170.0
# One process, one thread: keep numpy's BLAS from starting worker threads.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class RunError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter.

    Returns its result and its set-up time at the reference speed: the
    raw time from spawn to the worker's first timed op, less the
    calibration loops the worker ran during it, scaled by those loops.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise RunError("workload process did not finish within the run budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    loops = result["setup_loops"]
    if not loops:
        raise RunError("no calibration loop ran during set-up")
    result["setup_raw_s"] = result["ready"] - spawned
    return result, scale(result["setup_raw_s"] - sum(loops), loops)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def class_summary(half: dict) -> str:
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in zip(half["kinds"], half["latencies"]):
        by_kind.setdefault(kind, []).append(seconds)
    return "; ".join(
        f"{kind} {len(v)}x p50 {1000 * statistics.median(v):.3f} ms" for kind, v in by_kind.items()
    )


def end_to_end(main_result: dict, setups: list[float], raw_setups: list[float]) -> tuple[dict, list[str]]:
    loop = main_result["loop"]
    half = loop["halves"]["untraced"]
    latencies = half["latencies"]
    if len(latencies) < 2:
        raise RunError(f"only {len(latencies)} ops ran")
    p90 = statistics.quantiles(latencies, n=10)[8]
    above = sum(1 for x in latencies if x > p90)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": half["completed"] / half["timed_s"],
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * p90,
        "peak_rss_mb": main_result["peak_rss_kb"] / 1024,
    }
    notes = [
        f"samples: op_p50_ms and op_p90_ms from {len(latencies)} timed ops, {above} above p90",
        f"setup_s: median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.4f}" for s in setups) + " s at the reference speed; raw "
        + ", ".join(f"{s:.4f}" for s in raw_setups) + " s",
        f"timed: {half['timed_s']:.3f} s of op time at the reference speed, {half['raw_s']:.3f} s raw, "
        f"over {half['cycles']} whole cycles"
        + (", cut at the wall-time cap" if loop["capped"] else ""),
        f"raw ops_per_s: {half['completed'] / half['raw_s']:.6g}",
        f"classes: {class_summary(half)}",
        f"inputs.repeat_frac: {loop['repeat_frac']:.4f} of ops repeat an earlier op's input",
    ]
    return metrics, notes


def traced_layers(main_result: dict) -> tuple[dict, list[str], bool]:
    trace = main_result["trace"]
    loop = main_result["loop"]
    notes = [
        "waits: none; one process, one thread, no queues, so no layer has a wait time to report",
        f"spans: {trace['spans']} recorded, written to {trace['file']}",
        f"self times of all traced ops sum to {trace['self_sum_s']:.6f} s; "
        f"the runner timed {trace['runner_sum_s']:.6f} s (raw)",
    ]
    notes += [f"base of {name}: {base}" for name, base in trace["bases"].items()]
    for label, half in loop["halves"].items():
        notes.append(f"{label} cycles: {half['ops']} ops, {half['timed_s']:.3f} s of op time"
                     + (", cut at the wall-time cap" if loop["capped"] else ""))
    notes += [f"self-time check failed: {p}" for p in trace["problems"]]
    return trace["metrics"], notes, not trace["problems"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O: the library's to_graph "
              "self-check is an assert", file=sys.stderr)
        return 2
    if not (SRC / "clusterforge" / "__init__.py").is_file():
        print(f"perfbench: no clusterforge source under {SRC}", file=sys.stderr)
        return 3
    # Byte-compile first so no set-up sample pays for it.
    compileall.compile_dir(str(SRC / "clusterforge"), quiet=1)

    deadline = monotonic() + BUDGET_S
    try:
        setups, raw_setups, results = [], [], []
        for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            result, setup = spawn(args, deadline, setup_only=True)
            setups.append(setup)
            raw_setups.append(result["setup_raw_s"])
            results.append(result)
        main_result, setup = spawn(args, deadline, setup_only=False)
        setups.append(setup)
        raw_setups.append(main_result["setup_raw_s"])
        results.append(main_result)
        if args.trace:
            metrics, notes, consistent = traced_layers(main_result)
            specs = bench["per_layer"]
        else:
            metrics, notes = end_to_end(main_result, setups, raw_setups)
            consistent = True
            specs = bench["end_to_end"]
    except RunError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    missing = {spec["name"] for spec in specs} - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    halves = main_result["loop"]["halves"]
    header = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={version('numpy')} scipy={version('scipy')} commit={git_commit()}",
        f"ops per workload: {args.workload}={sum(h['ops'] for h in halves.values())} timed, "
        f"{sum(r['warmup_ops'] for r in results)} warm-up",
        f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} ops failed)",
    ]
    for line in header + notes:
        print(f"# {line}")
    for spec in specs:
        print(f"# {spec['name']} = {metrics[spec['name']]!r} {spec['unit']}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
