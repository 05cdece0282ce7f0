"""Regenerate perfbench/digests.json, the pinned output digests.

    python3 perfbench/pin.py

Runs the warm-up ops and the first cycles of the default seed for every
workload, untimed, checks each output against the workload's
invariants, and records a digest of the output bytes under a digest of
the op's input key.  The benchmark compares every op whose input is in
this table against it, so one changed output byte shows up as a failed
op.  Regenerate only when an output change is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS, pin_digest, pin_key  # noqa: E402

# Two to seven times the cycles a default-length run completes on 2 cores.
CYCLES = {"mc-graph": 260, "verify": 30, "cli-session": 200}


def main() -> int:
    if sys.flags.optimize:
        print("pin: refusing to run under python -O", file=sys.stderr)
        return 2
    workdir = HERE.parent / ".perfbench_work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, workdir)
            ops = workload.warmup() + [op for c in range(CYCLES[name]) for op in workload.cycle(c)]
            pins = {}
            for op in ops:
                out = workload.run(op)
                problem = workload.check(op, out)
                if problem is not None:
                    print(f"pin: {name} [{op.key}]: {problem}", file=sys.stderr)
                    return 1
                pins[pin_key(op.key)] = pin_digest(workload.output(op, out))
            table[name] = dict(sorted(pins.items()))
            print(f"{name}: {len(ops)} ops, {len(pins)} distinct inputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(table, indent=0, separators=(",", ":"))
    (HERE / "digests.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
