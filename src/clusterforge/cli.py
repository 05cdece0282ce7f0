"""Command-line front end.

Verbs: ``build`` runs a construction recipe and prints its result as
canonical JSON; ``verify`` runs the cross-engine check suites;
``mc`` estimates joining costs by Monte Carlo next to the closed form;
``export`` converts a stored recipe result to DOT or canonical graph
JSON; ``replay`` re-executes a stored trace and confirms it reproduces
the stored result bit-exactly.

Exit codes: 0 success, 1 usage or verification failure, 2 resource
exhaustion inside a recipe.  ``main`` is the one error boundary: a
verb's ``ValueError``, or a reader that closes standard output early,
ends in exit 1 and one stderr line, ``<verb>[ <recipe or suite>]: ...``.
Payloads go to standard output; human diagnostics go to standard error.
Every seeded invocation prints byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import checks, montecarlo, recipes
from .fusion import RngStream
from .graphstate import chain, to_dot, to_json_doc
from .recipes import (
    RecipeResult,
    ResourcesExhaustedError,
    parse_schedule,
    replay,
    result_from_checked_doc,
    result_from_doc,
    result_to_json,
)

ENV_SEED = "CLUSTERFORGE_SEED"


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors with exit code 1.

    Exit code 2 is reserved for resource exhaustion."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError:
        return 0


def _parse_lengths(raw: str, expected: int | None, what: str) -> list[int]:
    try:
        lengths = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {raw!r}")
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError(f"{what} must be positive integers, got {raw!r}")
    if expected is not None and len(lengths) != expected:
        raise ValueError(f"{what} needs exactly {expected} lengths, got {len(lengths)}")
    return lengths


def _allocate_chains(lengths: Sequence[int]) -> list:
    """Disjoint chains with consecutive labels, in the given order."""
    chains = []
    start = 1
    for length in lengths:
        chains.append(chain(length, start=start))
        start += length
    return chains


def _chain_arg(args) -> int:
    if not args.chain:
        raise ValueError(f"{args.recipe} needs --chain")
    (length,) = _parse_lengths(args.chain, 1, "--chain")
    return length


def _chains_arg(args, expected: int) -> list[int]:
    if not args.chains:
        raise ValueError(f"{args.recipe} needs --chains")
    return _parse_lengths(args.chains, expected, "--chains")


def _build_l(args, **kw) -> RecipeResult:
    segment = tuple(_parse_lengths(args.segment, 4, "--segment")) if args.segment else None
    return recipes.build_l_shape(chain(_chain_arg(args)), segment)


def _build_ladder(args, rng, forced) -> RecipeResult:
    lengths = _chains_arg(args, 2)
    spares = _parse_lengths(args.spares, None, "--spares") if args.spares else []
    allocated = _allocate_chains(list(spares) + lengths)
    pool, (a, b) = allocated[: len(spares)], allocated[len(spares) :]
    h = recipes.build_h_shape(a, b, rng=rng, forced=forced)
    rest = forced[h.ledger.fusion_attempts :]
    return recipes.grow_ladder(h, pool, args.rungs, rng=rng, forced=rest)


def _build_depth(args, rng, forced) -> RecipeResult:
    lengths = _chains_arg(args, 3)
    extra, a, b = _allocate_chains([lengths[2], lengths[0], lengths[1]])
    h = recipes.build_h_shape(a, b, rng=rng, forced=forced)
    return recipes.grow_depth(h, extra, rng=rng, forced=forced[h.ledger.fusion_attempts :])


# Recipe name -> builder(args, rng=, forced=), in the order `build` lists them.
# One forced schedule spans a whole pipeline: later stages get the tokens that
# earlier stages did not consume.  Material merged mid-run (ladder spares, depth
# chains) gets the lowest labels, because a fusion names its merged vertex
# max+1, which must not collide with material still waiting to merge.
_RECIPES = {
    "L": _build_l,
    "cross": lambda args, **kw: recipes.build_cross(chain(_chain_arg(args))),
    "H": lambda args, **kw: recipes.build_h_shape(*_allocate_chains(_chains_arg(args, 2)), **kw),
    "ladder": _build_ladder,
    "depth": _build_depth,
    "double-box": lambda args, **kw: recipes.build_double_box(chain(_chain_arg(args))),
    "triple-box": lambda args, **kw: recipes.build_triple_box(chain(_chain_arg(args))),
    "join": lambda args, **kw: recipes.join_double_boxes(
        *map(recipes.build_double_box, _allocate_chains(_chains_arg(args, 2))), **kw),
    "ring8": lambda args, **kw: recipes.build_ring8(chain(_chain_arg(args)), **kw),
}


def cmd_build(args) -> int:
    kw = dict(rng=RngStream(args.seed), forced=parse_schedule(args.force))
    try:
        result = _RECIPES[args.recipe](args, **kw)
    except ResourcesExhaustedError as exc:
        print(result_to_json(exc.partial))
        print(f"build {args.recipe}: {exc}", file=sys.stderr)
        return 2
    print(result_to_json(result))
    return 0


def cmd_verify(args) -> int:
    options = {}
    if args.n is not None:
        options["n"] = args.n
    if args.cases is not None:
        options["cases"] = args.cases
    options["seed"] = args.seed
    try:
        reports = checks.run_suite(args.check, **options)
    except KeyError as exc:
        print(f"verify: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True, separators=(",", ":")))
    else:
        for report in reports:
            print(report.to_table())
    return 0 if all(r.passed for r in reports) else 1


def _mc_model(args) -> montecarlo.CostModel:
    custom = [args.p, args.lcost, args.fail]
    if args.preset is not None:
        if any(v is not None for v in custom):
            raise ValueError("give either a preset name or --p/--lcost/--fail, not both")
        if args.preset not in montecarlo.PRESETS:
            raise ValueError(
                f"unknown preset: {args.preset} (have {', '.join(sorted(montecarlo.PRESETS))})"
            )
        return montecarlo.PRESETS[args.preset]
    if all(v is None for v in custom):
        raise ValueError("give a preset name or all of --p/--lcost/--fail")
    if any(v is None for v in custom):
        raise ValueError("custom models need all of --p/--lcost/--fail")
    return montecarlo.CostModel(
        l_build_cost=args.lcost, failure_penalty=args.fail, success_probability=args.p
    )


def cmd_mc(args) -> int:
    model = _mc_model(args)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.graph_level:
        if model != montecarlo.PRESETS["ours"]:
            raise ValueError("--graph-level drives the H recipe; it only matches the ours model")
        stats = montecarlo.run_recipe_trials(args.trials, args.seed)
    else:
        stats = montecarlo.run_trials(model, args.trials, args.seed)
    closed = {
        "mean_cost": montecarlo.closed_form_expected_cost(model),
        "variance": montecarlo.closed_form_cost_variance(model),
        "mean_attempts": montecarlo.closed_form_expected_attempts(model),
    }
    if args.csv:
        sys.stdout.write(stats.histogram_csv())
        return 0
    if args.format == "json":
        doc = {"model": model.to_dict(), "stats": stats.to_dict(), "closed_form": closed}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return 0
    rows = [("metric", "empirical", "closed-form")]
    rows.append(("trials", str(stats.trials), "-"))
    for key in ("mean_cost", "variance", "mean_attempts"):
        rows.append((key, f"{getattr(stats, key):.6f}", f"{closed[key]:.6f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def _load_doc(path: str) -> dict:
    """A stored RecipeResult file, parsed but not yet decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ValueError("parse error: JSON nested too deeply") from None


def _write_out(path: str | None, payload: str) -> None:
    """``payload`` to the file at ``path``, or to standard output without one."""
    if not path:
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_export(args) -> int:
    result = result_from_doc(_load_doc(args.input))
    if args.to == "dot":
        payload = to_dot(result.graph)
    else:
        payload = to_json_doc(result.graph, result.frame) + "\n"
    _write_out(args.out, payload)
    return 0


def cmd_replay(args) -> int:
    # Replay first: an edited step reports where the trace stops
    # replaying, not that the stored ledger no longer matches it.
    doc = _load_doc(args.input)
    replayed = result_to_json(replay(doc))
    recorded = result_to_json(result_from_checked_doc(doc))
    print(replayed)
    if replayed != recorded:
        print("replay: reconstruction differs from the recorded result", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _make_parser() -> _Parser:
    """Built once per process, so it holds no default read from the environment."""
    parser = _Parser(prog="clusterforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)
    seed_kw = dict(type=int, help="rng seed (default: $CLUSTERFORGE_SEED or 0)")

    b = sub.add_parser("build", help="run a construction recipe, print RecipeResult JSON")
    b.add_argument("recipe", choices=list(_RECIPES))
    b.add_argument("--chain", help="length of the single input chain")
    b.add_argument("--chains", help="comma-separated input chain lengths")
    b.add_argument("--segment", help="explicit 4-vertex box segment for L")
    b.add_argument("--spares", help="spare chain lengths for ladder growth")
    b.add_argument("--rungs", type=int, default=1, help="rungs to add (ladder)")
    b.add_argument("--force", help="forced fusion outcomes, e.g. S or F,S or F*3,S")
    b.add_argument("--seed", **seed_kw)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("check", help=f"one of: {', '.join(checks.SUITE_NAMES)}")
    v.add_argument("--n", type=int, help="graph size for randomized suites")
    v.add_argument("--cases", type=int, help="number of randomized cases")
    v.add_argument("--seed", **seed_kw)
    v.add_argument("--format", choices=["table", "json"], default="table")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("mc", help="Monte Carlo joining costs next to the closed form")
    m.add_argument("preset", nargs="?", help=f"cost model: {', '.join(sorted(montecarlo.PRESETS))}")
    m.add_argument("--p", type=float, help="fusion success probability")
    m.add_argument("--lcost", type=float, help="bonds per L-shape")
    m.add_argument("--fail", type=float, help="bonds per failed fusion")
    m.add_argument("--trials", type=int, default=10000)
    m.add_argument("--seed", **seed_kw)
    m.add_argument("--graph-level", action="store_true", help="drive the full H recipe per trial")
    m.add_argument("--csv", action="store_true", help="print the attempt histogram as CSV")
    m.add_argument("--format", choices=["table", "json"], default="table")
    m.set_defaults(func=cmd_mc)

    e = sub.add_parser("export", help="convert a stored RecipeResult to DOT or graph JSON")
    e.add_argument("input", help="path to a RecipeResult JSON file")
    e.add_argument("--to", choices=["dot", "json"], default="dot")
    e.add_argument("--out", help="output path (default: standard output)")
    e.set_defaults(func=cmd_export)

    r = sub.add_parser("replay", help="re-execute a stored trace and confirm the result")
    r.add_argument("input", help="path to a RecipeResult JSON file")
    r.set_defaults(func=cmd_replay)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:
        args.seed = _default_seed()
    subject = getattr(args, "recipe", None) or getattr(args, "check", None)
    where = f"{args.verb} {subject}" if subject else args.verb
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"{where}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Point stdout at the null device so the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"{where}: standard output was closed early", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
