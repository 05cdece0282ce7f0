"""The three benchmark workloads.

A workload turns the run seed into an endless sequence of cycles.  A
cycle is a fixed list of op shapes (every chain length, suite, qubit
count or CLI verb, in fixed proportions and order) whose random parts
are drawn from ``random.Random("<workload>/<seed>/<cycle>")``, so the same seed
always gives the same inputs and the library sees only those inputs.
Runs stop on cycle boundaries, so every run has the same op mix.

Each workload object answers four questions about an op: how to run it
(``run``), which bytes it produced (``output``, compared against the
pinned digests), whether those outputs obey the invariants that hold for
any seed (``check``, returning a problem string or None), and which
extra counts the traced run should record (``counters``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One call into the library.

    ``key`` describes the whole input: two ops with the same key get the
    same input and must produce the same output bytes.  ``kind`` is the
    op class used for the per-class latency summary.
    """

    key: str
    kind: str
    args: tuple


def pin_key(key: str) -> str:
    """Short name of an op input in the pinned-digest table."""
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def pin_digest(output: bytes) -> str:
    """Pinned form of an op's output bytes."""
    return hashlib.sha256(output).hexdigest()[:12]


def _cycle_rng(workload: str, seed: int, cycle) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


def _draw_seed(rng: random.Random) -> int:
    return rng.getrandbits(31)


class McGraph:
    """Graph-level Monte Carlo: the paper's 6k-2 cost rule on real graphs."""

    name = "mc-graph"
    TRIALS = 100
    # Chain length sets the cost of every adjacency rebuild and path walk,
    # and how often short chains run out and retry on a fresh pair.
    LENGTHS = (4, 8, 16, 32, 64)

    def __init__(self, seed: int, workdir: Path):
        from clusterforge import montecarlo

        self.montecarlo = montecarlo
        self.seed = seed

    def _op(self, length: int, s: int) -> Op:
        return Op(
            f"run_recipe_trials({self.TRIALS}, {s}, chain_length={length})",
            f"L={length}",
            (length, s),
        )

    def warmup(self) -> list[Op]:
        rng = _cycle_rng(self.name, self.seed, "warmup")
        return [self._op(self.LENGTHS[0], _draw_seed(rng))]

    def cycle(self, index: int) -> list[Op]:
        rng = _cycle_rng(self.name, self.seed, index)
        return [self._op(length, _draw_seed(rng)) for length in self.LENGTHS]

    def run(self, op: Op):
        length, s = op.args
        return self.montecarlo.run_recipe_trials(self.TRIALS, s, chain_length=length)

    def output(self, op: Op, stats) -> bytes:
        sums = f"|{stats.cost_sum}|{stats.cost_sq_sum}|{stats.attempt_sum}"
        return (stats.to_json() + sums).encode()

    def check(self, op: Op, stats) -> str | None:
        hist = stats.attempt_histogram
        if stats.trials != self.TRIALS or sum(hist.values()) != self.TRIALS:
            return f"{stats.trials} trials, histogram sums to {sum(hist.values())}"
        cost = sum(count * (6 * k - 2) for k, count in hist.items())
        cost_sq = sum(count * (6 * k - 2) ** 2 for k, count in hist.items())
        attempts = sum(count * k for k, count in hist.items())
        if (stats.cost_sum, stats.cost_sq_sum, stats.attempt_sum) != (cost, cost_sq, attempts):
            return (
                f"sums (cost {stats.cost_sum}, cost^2 {stats.cost_sq_sum}, attempts "
                f"{stats.attempt_sum}) break the 6k-2 rule ({cost}, {cost_sq}, {attempts})"
            )
        return None

    def counters(self, out) -> dict:
        return {}


class Verify:
    """The cross-engine suites behind ``verify``, called in process."""

    name = "verify"
    # Every suite except the randomized one; their inputs never change.
    FIXED = ("box-equivalence", "box-on-chain", "cross", "measurement-rules", "fusion", "ring")
    SIZES = (8, 10, 12, 14)
    CASES = 20

    def __init__(self, seed: int, workdir: Path):
        from clusterforge import checks

        self.checks = checks
        self.seed = seed

    def warmup(self) -> list[Op]:
        return [self._fixed("box-equivalence"), self._fixed("measurement-rules")]

    @staticmethod
    def _fixed(name: str) -> Op:
        return Op(name, name, (name, {}))

    def cycle(self, index: int) -> list[Op]:
        rng = _cycle_rng(self.name, self.seed, index)
        ops = []
        for n in self.SIZES:
            ops.extend(self._fixed(name) for name in self.FIXED)
            s = _draw_seed(rng)
            options = {"n": n, "cases": self.CASES, "seed": s}
            ops.append(
                Op(
                    f"triple-agreement n={n} cases={self.CASES} seed={s}",
                    f"triple-agreement n={n}",
                    ("triple-agreement", options),
                )
            )
        return ops

    def run(self, op: Op):
        name, options = op.args
        return self.checks.run_suite(name, **options)

    def output(self, op: Op, reports) -> bytes:
        docs = [r.to_dict() for r in reports]
        return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()

    def check(self, op: Op, reports) -> str | None:
        if not reports or any(not r.lines for r in reports):
            return "a report has no lines"
        failing = [r.suite for r in reports if not r.passed]
        if failing:
            return f"suite did not pass: {', '.join(failing)}"
        return None

    def counters(self, out) -> dict:
        return {}


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


class CliSession:
    """In-process ``cli.main`` calls: build, replay, export and mc."""

    name = "cli-session"
    MC_TRIALS = 20000
    # Forced schedules that always finish on the chain lengths used below;
    # every one of them was run and exits 0.
    LADDER_FORCES = tuple(
        ",".join(["F"] * a + ["S"] + ["F"] * b + ["S"] + ["F"] * c + ["S"])
        for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2
    )
    DEPTH_FORCES = tuple(
        ",".join(["F"] * a + ["S"] + ["F"] * b + ["S"])
        for a in range(3) for b in range(3) if a + b <= 2
    )

    def __init__(self, seed: int, workdir: Path):
        from clusterforge import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        # build-file path -> (build key, stdout, parsed document)
        self.built: dict[str, tuple[str, str, dict]] = {}

    def _builds(self, rng: random.Random) -> list[list[str]]:
        def seed() -> str:
            return str(_draw_seed(rng))

        return [
            ["build", "L", "--chain", str(rng.randint(4, 12))],
            ["build", "cross", "--chain", "7"],
            ["build", "double-box", "--chain", "7"],
            ["build", "triple-box", "--chain", "10"],
            ["build", "ring8", "--chain", "9", "--seed", seed()],
            # 64-vertex chains leave room for 31 attempts, so a seeded H
            # runs out of material with probability 2^-31.
            ["build", "H", "--chains", "64,64", "--seed", seed()],
            ["build", "ladder", "--chains", "12,12", "--spares", "8,8", "--rungs", "2",
             "--force", rng.choice(self.LADDER_FORCES)],
            ["build", "depth", "--chains", "12,12,12", "--force", rng.choice(self.DEPTH_FORCES)],
            ["build", "join", "--chains", "7,7", "--seed", seed()],
        ]

    @staticmethod
    def _mc(preset: str, trials: int, s: int, fmt: list[str]) -> Op:
        argv = ["mc", preset, "--trials", str(trials), "--seed", str(s)] + fmt
        return Op(" ".join(argv), "mc", (argv, None, None))

    def _ops(self, builds: list[list[str]]) -> list[Op]:
        ops = []
        for slot, argv in enumerate(builds):
            path = str(self.workdir / f"build-{slot}.json")
            key = " ".join(argv)
            fmt = ("dot", "json")[slot % 2]
            ops.append(Op(key, "build", (argv, path, key)))
            ops.append(Op(f"replay <- {key}", "replay", (["replay", path], path, key)))
            ops.append(
                Op(f"export --to {fmt} <- {key}", "export",
                   (["export", path, "--to", fmt], path, key))
            )
        return ops

    def warmup(self) -> list[Op]:
        rng = _cycle_rng(self.name, self.seed, "warmup")
        return self._ops(self._builds(rng)[:1]) + [self._mc("ours", 1000, _draw_seed(rng), [])]

    def cycle(self, index: int) -> list[Op]:
        # Every recipe twice and one mc run: the RNG-bound mc ops swing most
        # with host load, so they stay under 2 % of ops (the percentiles sit
        # in the build and replay ops) and under half of the op time.
        rng = _cycle_rng(self.name, self.seed, index)
        ops = self._ops(self._builds(rng) + self._builds(rng))
        preset = ("ours", "type2")[index % 2]
        fmt = (["--format", "json"], [], ["--csv"])[index % 3]
        return ops + [self._mc(preset, self.MC_TRIALS, _draw_seed(rng), fmt)]

    def run(self, op: Op) -> CliRun:
        argv = op.args[0]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return CliRun(code, out.getvalue(), err.getvalue())

    def output(self, op: Op, run: CliRun) -> bytes:
        return f"exit={run.code}\n{run.stdout}\0{run.stderr}".encode()

    def check(self, op: Op, run: CliRun) -> str | None:
        argv, path, build_key = op.args
        if run.code != 0:
            return f"exit code {run.code}, expected 0: {run.stderr.strip()[:200]}"
        if op.kind == "build":
            self.built[path] = (build_key, run.stdout, json.loads(run.stdout))
            Path(path).write_text(run.stdout, encoding="utf-8")
            return None
        if op.kind == "mc":
            return self._check_mc(argv, run.stdout)
        recorded = self.built.get(path)
        if recorded is None or recorded[0] != build_key:
            return "its build did not succeed"
        _, build_stdout, doc = recorded
        if op.kind == "replay":
            if run.stdout != build_stdout:
                return "replay output differs from the build output"
            return None
        graph = doc["graph"]
        if argv[-1] == "dot":
            lines = run.stdout.splitlines()
            if lines[0] != "graph clusterstate {" or len(lines) != 2 + len(graph["vertices"]) + len(graph["edges"]):
                return "DOT export does not list the built graph"
            return None
        expected = {"vertices": graph["vertices"], "edges": graph["edges"], "frame": doc["frame"]}
        if json.loads(run.stdout) != expected:
            return "JSON export differs from the built graph"
        return None

    @staticmethod
    def _check_mc(argv: list[str], stdout: str) -> str | None:
        trials = int(argv[argv.index("--trials") + 1])
        if "--csv" in argv:
            rows = stdout.splitlines()
            total = sum(int(row.split(",")[1]) for row in rows[1:])
            ok = rows[0] == "attempts,count" and total == trials
        elif "json" in argv:
            stats = json.loads(stdout)["stats"]
            ok = stats["trials"] == trials == sum(stats["attempt_histogram"].values())
        else:
            ok = stdout.splitlines()[1].split()[:2] == ["trials", str(trials)]
        return None if ok else "mc output does not account for every trial"

    def counters(self, run: CliRun) -> dict:
        return {"cli.stdout_bytes": len(run.stdout.encode())}


WORKLOADS = {w.name: w for w in (McGraph, Verify, CliSession)}
