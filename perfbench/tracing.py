"""Spans and counts around the library's public functions, for the traced run.

Tracing is installed from outside the library: each listed function is
wrapped and the wrapper is bound in place of the original in every
``clusterforge`` module that holds it, so calls between modules and
within a module are both seen.  Spans stay in memory as parallel lists
(name, start, end, parent, op) and are written out when the run ends.

Wrappers can be installed and removed again, so a traced run can
alternate traced and untraced cycles over the same stretch of wall time.

A span's self time is its duration minus the time its child spans
cover.  The program is one thread with no queues, so nothing waits on a
layer: busy time and counts are the only per-layer quantities.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# Defining module -> public functions that get a span named <module>.<function>.
FUNCTIONS = {
    "graphstate": ("chain_to_box", "measure_z", "measure_y", "local_complement",
                   "path_vertices", "lc_equivalent", "isomorphic"),
    "fusion": ("type1_fuse", "merge_disjoint"),
    "recipes": ("build_h_shape", "grow_ladder", "grow_depth", "replay",
                "result_to_json", "result_from_doc"),
    "montecarlo": ("run_recipe_trials", "run_trials"),
    "tableau": ("from_graph", "apply_clifford_op", "measure_pauli", "canonical_form",
                "canonical_equal", "to_graph"),
    "oracle": ("graph_state_vector", "apply_unitary", "project_measure", "merge_qubits",
               "equal_up_to_global_phase"),
    "cliffords": ("compose_labels", "matrix"),
    "checks": ("run_suite", "measurement_agreement"),
    "cli": ("main",),
}
# The remaining single-shape builders share one span.
BUILD_OTHER = ("build_l_shape", "build_cross", "build_double_box", "build_triple_box",
               "build_ring8")
BUILDS = ("recipes.build_h_shape", "recipes.grow_ladder", "recipes.grow_depth",
          "recipes.build_other")
ROOT_SPAN = "op"
# How far an op's summed self times may be from the op time the runner
# measured around the same call: the root span opens and closes a few
# microseconds outside the runner's clock reads.
SELF_SUM_TOLERANCE_S = 5e-4

SPAN_NAMES = (
    [f"{module}.{fn}" for module, fns in FUNCTIONS.items() for fn in fns]
    + ["recipes.build_other", "tableau.StabilizerTableau", "tableau.StabilizerTableau.apply"]
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        # op index -> op time the runner measured, for the self-time check
        self.op_seconds: dict[int, float] = {}
        # op index -> factor to the reference speed (see speed.py)
        self.op_scale: dict[int, float] = {}
        # (owner, attribute, original, wrapper) for every rebinding
        self.bindings: list[tuple[object, str, object, object]] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def start_op(self, index: int) -> None:
        self.op = index
        self.active = True
        self.begin(ROOT_SPAN)

    def finish_op(self, seconds: float) -> None:
        """Close the op's root span, and any span an exception left open;
        `seconds` is the op time the runner measured on its own clock."""
        while self.stack:
            self.end(self.stack[-1])
        self.active = False
        self.op_seconds[self.op] = seconds

    def span(self, name: str, fn, after=None, on_error=None):
        """Wrap fn so each call while tracing is active records a span."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(i)
                if on_error is not None:
                    on_error(exc)
                raise
            self.end(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counting(self, key: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function in all clusterforge modules."""
        if not self.bindings:
            self.bindings = self._bindings()
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        mods = {m: importlib.import_module(f"clusterforge.{m}") for m in FUNCTIONS}
        counts = self.counts

        def fused(args, kwargs, result):
            counts["fusion.attempts"] += result[2].fusion_attempts
            counts["fusion.successes"] += result[2].fusion_successes

        def trials(args, kwargs, stats):
            counts["montecarlo.trials"] += stats.trials

        def measured(args, kwargs, result):
            counts["tableau.measure_pauli.deterministic"] += bool(result[2])

        def amplitudes(args, kwargs, result):
            values = list(args) + (list(result) if isinstance(result, tuple) else [result])
            counts["oracle.amp_bytes_computed"] += sum(
                16 * v.amplitudes.size for v in values if hasattr(v, "amplitudes")
            )

        def reported(args, kwargs, reports):
            counts["checks.lines"] += sum(len(r.lines) for r in reports)
            counts["checks.failed_lines"] += sum(not line.passed for r in reports for line in r.lines)

        def built(args, kwargs, result):
            counts["recipes.builds"] += 1

        exhausted_error = mods["recipes"].ResourcesExhaustedError

        def build_failed(exc):
            counts["recipes.builds"] += 1
            if isinstance(exc, exhausted_error):
                counts["recipes.exhausted"] += 1

        hooks = {
            "fusion.type1_fuse": (fused, None),
            "montecarlo.run_recipe_trials": (trials, None),
            "montecarlo.run_trials": (trials, None),
            "tableau.measure_pauli": (measured, None),
            "checks.run_suite": (reported, None),
        }
        hooks.update({name: (amplitudes, None)
                      for name in SPAN_NAMES if name.startswith("oracle.")})
        hooks.update({name: (built, build_failed) for name in BUILDS})

        bindings = []
        for module, fns in FUNCTIONS.items():
            for fn in fns:
                name = f"{module}.{fn}"
                bindings += self._everywhere(getattr(mods[module], fn), name, hooks.get(name, (None, None)))
        for fn in BUILD_OTHER:
            bindings += self._everywhere(getattr(mods["recipes"], fn), "recipes.build_other",
                                         hooks["recipes.build_other"])

        tableau_cls = mods["tableau"].StabilizerTableau
        graph_cls = mods["graphstate"].GraphState
        rng_cls = mods["fusion"].RngStream
        for owner, attr, wrap in (
            (tableau_cls, "__init__", lambda f: self.span("tableau.StabilizerTableau", f)),
            (tableau_cls, "apply", lambda f: self.span("tableau.StabilizerTableau.apply", f)),
            (graph_cls, "neighbors", lambda f: self.counting("graphstate.neighbors.calls", f)),
            (rng_cls, "next_u64", lambda f: self.counting("fusion.rng_draws", f)),
        ):
            original = vars(owner)[attr]
            bindings.append((owner, attr, original, wrap(original)))
        return bindings

    def _everywhere(self, original, name: str, hooks) -> list[tuple[object, str, object, object]]:
        """One wrapper, bound in every clusterforge module that holds `original`."""
        wrapper = self.span(name, original, *hooks)
        return [
            (module, attr, original, wrapper)
            for modname, module in list(sys.modules.items())
            if modname == "clusterforge" or modname.startswith("clusterforge.")
            for attr, value in list(vars(module).items())
            if value is original
        ]

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover.

        Spans come from one thread, so children of one span never overlap
        and their covered time is the sum of their durations.
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def problems(self, self_time: list[float]) -> list[str]:
        """Check that each span lies inside its parent within the same op,
        that each op has one root span, and that the self times within an
        op add up to the op time the runner measured around the call."""
        problems = []
        roots: dict[int, int] = defaultdict(int)
        sums: dict[int, float] = defaultdict(float)
        for i, parent in enumerate(self.parents):
            sums[self.ops[i]] += self_time[i]
            if parent < 0:
                roots[self.ops[i]] += 1
            elif (self.ops[parent] != self.ops[i] or self.starts[i] < self.starts[parent]
                  or self.ends[i] > self.ends[parent]):
                problems.append(f"span {i} ({self.names[i]}) escapes its parent {parent}")
        for op, seconds in self.op_seconds.items():
            if roots[op] != 1:
                problems.append(f"op {op}: {roots[op]} root spans")
            elif abs(sums[op] - seconds) > SELF_SUM_TOLERANCE_S:
                problems.append(f"op {op}: self times sum to {sums[op]!r} s, the runner timed {seconds!r} s")
        return problems[:5]

    def write(self, path: Path, self_time: list[float]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,parent,name,start_s,end_s,self_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.ops[i]},{self.parents[i]},{name},{self.starts[i] - origin:.9f},"
                    f"{self.ends[i] - origin:.9f},{self_time[i]:.9f}\n"
                )
