"""One benchmark workload in a fresh interpreter.

Started by run.py, never by hand.  Imports clusterforge from the
checkout's ``src``, runs the workload's warm-up ops, then runs whole
cycles of ops as a closed loop with one client: one process, one thread,
the next op starting when the previous one has returned and its output
has been checked.  Prints one JSON object as its last line.

Every op runs under a deadline enforced by a SIGALRM timer in this
(main) thread; an op that raises, runs past the deadline or fails its
output check is a failed op and gets one line on stderr.  Op times are
scaled to the reference host speed of speed.py; the raw wall-clock sum
is reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

from speed import Gauge, scale
from tracing import ROOT_SPAN, SPAN_NAMES, Tracer
from workloads import WORKLOADS, pin_digest, pin_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "digests.json"
SPANS_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

DEADLINE_S = 20.0
# The loop stops at the next op boundary past this much wall time, so a
# run whose ops keep hitting the deadline still ends within its budget.
LOOP_WALL_CAP_S = 80.0
# The 90th percentile needs at least ten samples above it.
MIN_SAMPLES = 110


class OpDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpDeadline(f"no result within the {DEADLINE_S:g} s deadline")


def monotonic() -> float:
    """System-wide clock, comparable with the parent's spawn timestamp."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Runs single ops: deadline, timing, output checks, failure lines."""

    def __init__(self, workload, pins: dict[str, str], gauge: Gauge):
        self.workload = workload
        self.pins = pins
        self.gauge = gauge
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def call(self, op, index: int) -> tuple[bool, float, float]:
        """Run one op; returns (succeeded, seconds the op call took at the
        reference speed, raw seconds)."""
        self.attempted += 1
        tracer = self.tracer
        gauge = self.gauge
        error = None
        loop_before = gauge.loop()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                # No tick between the tracer's clock reads and the runner's.
                gauge.hold = True
                mark = len(gauge.ticks)
                if tracer is not None:
                    tracer.start_op(index)
                t0 = time.perf_counter()
                gauge.hold = False
                out = self.workload.run(op)
            finally:
                gauge.hold = True
                elapsed = time.perf_counter() - t0
                ticks = gauge.ticks[mark:]
                if tracer is not None:
                    tracer.finish_op(elapsed)
                gauge.hold = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        scaled = scale(elapsed - sum(ticks), [loop_before, *ticks, gauge.loop()])
        if tracer is not None:
            tracer.op_scale[index] = scaled / elapsed
        if error is not None:
            return self._fail(op, index, error), scaled, elapsed
        try:
            problem = self.workload.check(op, out)
            expected = self.pins.get(pin_key(op.key))
            if problem is None and expected is not None:
                digest = pin_digest(self.workload.output(op, out))
                if digest != expected:
                    problem = f"output digest {digest} differs from the pinned {expected}"
        except Exception as exc:
            problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            return self._fail(op, index, problem), scaled, elapsed
        if tracer is not None:
            for key, value in self.workload.counters(out).items():
                tracer.counts[key] += value
        return True, scaled, elapsed

    def _fail(self, op, index: int, reason: str) -> bool:
        self.failed += 1
        line = f"perfbench: {self.workload.name} op {index} [{op.key}] failed: {reason}"
        print(" ".join(line.split()), file=sys.stderr, flush=True)
        return False


def new_stats() -> dict:
    return {"ops": 0, "completed": 0, "cycles": 0, "timed_s": 0.0, "raw_s": 0.0,
            "latencies": [], "kinds": []}


def run_loop(runner: Runner, first_cycle: list, seconds: float, min_ops: int,
             tracer: Tracer | None = None) -> dict:
    """Run whole cycles until `seconds` of op time and `min_ops` ops are done.

    With a tracer, odd cycles run with the tracer installed and even
    cycles without it, so both halves share the same stretch of wall time.
    Returns the stats of each half, with times at the reference speed.
    """
    workload = runner.workload
    halves = {"untraced": new_stats()}
    if tracer is not None:
        halves["traced"] = new_stats()
    seen: set[str] = set()
    ops = repeats = 0
    timed = 0.0
    cycle, cycle_ops = 0, first_cycle
    start = monotonic()
    capped = False
    while not capped:
        traced = tracer is not None and cycle % 2 == 1
        stats = halves["traced" if traced else "untraced"]
        if traced:
            tracer.install()
            runner.tracer = tracer
        for op in cycle_ops:
            repeats += op.key in seen
            seen.add(op.key)
            ok, scaled, elapsed = runner.call(op, ops)
            ops += 1
            stats["ops"] += 1
            stats["completed"] += ok
            stats["timed_s"] += scaled
            stats["raw_s"] += elapsed
            stats["latencies"].append(scaled)
            stats["kinds"].append(op.kind)
            timed += scaled
            if monotonic() - start > LOOP_WALL_CAP_S:
                capped = True
                break
        else:
            stats["cycles"] += 1
        if traced:
            runner.tracer = None
            tracer.uninstall()
        if capped:
            break
        cycle += 1
        if timed >= seconds and ops >= min_ops and cycle % len(halves) == 0:
            break
        cycle_ops = workload.cycle(cycle)
    return {"halves": halves, "capped": capped, "repeat_frac": repeats / ops}


def per_layer(tracer: Tracer, self_time: list[float], loop: dict) -> dict:
    """Per-op means of every span's calls and self time, plus the counts.

    Self times are scaled to the reference speed with their op's factor.
    """
    plain, traced = loop["halves"]["untraced"], loop["halves"]["traced"]
    ops = traced["ops"]
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES + [ROOT_SPAN], 0.0)
    for name, op, self_s in zip(tracer.names, tracer.ops, self_time):
        if name != ROOT_SPAN:
            calls[name] += 1
        busy[name] += self_s * tracer.op_scale[op]
    counts = tracer.counts
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.self_ms"] = 1000 * busy[name] / ops
    metrics[f"{ROOT_SPAN}.self_ms"] = 1000 * busy[ROOT_SPAN] / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for key in ("graphstate.neighbors.calls", "fusion.rng_draws", "montecarlo.trials",
                "oracle.amp_bytes_computed", "checks.lines", "checks.failed_lines",
                "cli.stdout_bytes"):
        metrics[key] = counts[key] / ops
    metrics["fusion.success_ratio"] = ratio(counts["fusion.successes"], counts["fusion.attempts"])
    metrics["recipes.exhausted_ratio"] = ratio(counts["recipes.exhausted"], counts["recipes.builds"])
    metrics["tableau.measure_pauli.deterministic_ratio"] = ratio(
        counts["tableau.measure_pauli.deterministic"], calls["tableau.measure_pauli"]
    )
    plain_rate = plain["completed"] / plain["timed_s"]
    traced_rate = traced["completed"] / traced["timed_s"]
    metrics["trace.overhead_frac"] = 1 - traced_rate / plain_rate
    metrics["inputs.repeat_frac"] = loop["repeat_frac"]
    bases = {
        "fusion.success_ratio": f"{counts['fusion.attempts']:g} fusion attempts",
        "recipes.exhausted_ratio": f"{counts['recipes.builds']:g} builds",
        "tableau.measure_pauli.deterministic_ratio": f"{calls['tableau.measure_pauli']} measurements",
        "trace.overhead_frac": f"{plain_rate:.6g} untraced vs {traced_rate:.6g} traced ops/s, "
                               f"{plain['cycles']} and {traced['cycles']} alternating cycles",
    }
    return {
        "metrics": metrics,
        "bases": bases,
        "spans": len(tracer.names),
        "self_sum_s": sum(self_time),
        "runner_sum_s": sum(tracer.op_seconds.values()),
        "problems": tracer.problems(self_time),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Samples the host speed from here on: set-up, then every op.
    gauge = Gauge()
    gauge.start()
    try:
        return measure(args, gauge)
    finally:
        gauge.stop()


def measure(args, gauge: Gauge) -> int:
    sys.path.insert(0, str(SRC))
    import clusterforge

    if Path(clusterforge.__file__).resolve().parent != (SRC / "clusterforge").resolve():
        print(f"perfbench: imported clusterforge from {clusterforge.__file__}, not {SRC}", file=sys.stderr)
        return 3
    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        pins = json.loads(PINS.read_text(encoding="utf-8")).get(workload.name, {})
        runner = Runner(workload, pins, gauge)
        signal.signal(signal.SIGALRM, _on_alarm)
        warmup = workload.warmup()
        for i, op in enumerate(warmup):
            runner.call(op, -1 - i)
        first_cycle = workload.cycle(0)
        result = {"ready": monotonic(), "warmup_ops": len(warmup)}
        result["setup_loops"] = list(gauge.ticks)
        if not args.setup_only:
            if args.trace:
                tracer = Tracer()
                loop = run_loop(runner, first_cycle, args.seconds, 0, tracer)
                self_time = tracer.self_times()
                result["trace"] = per_layer(tracer, self_time, loop)
                spans_file = SPANS_DIR / f"spans-{workload.name}.csv"
                tracer.write(spans_file, self_time)
                result["trace"]["file"] = str(spans_file.relative_to(ROOT))
            else:
                loop = run_loop(runner, first_cycle, args.seconds, MIN_SAMPLES)
            result["loop"] = loop
        result["attempted"] = runner.attempted
        result["failed"] = runner.failed
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
