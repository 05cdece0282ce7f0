"""Golden corpus: seeded CLI runs pinned byte for byte.

Each case runs ``cli.main`` in process through ``conftest.run_cli`` and
compares its standard output with the file of the same name under
``tests/golden/``.  A change in RNG draw order, JSON layout or a recipe's
cost bookkeeping shows up here as a diff, even when every other test
still passes.

Regenerate the corpus only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from clusterforge.recipes import result_from_doc, result_to_json
from conftest import CliRun, assert_replays_exactly, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# The build whose output file feeds the replay and export cases.
SOURCE_BUILD = ("build", "H", "--chains", "8,8", "--seed", "42")

# name -> (argv, expected exit code); "{build}" is the path of SOURCE_BUILD's output.
CASES = {
    "build-L": (("build", "L", "--chain", "6"), 0),
    "build-L-segment": (("build", "L", "--chain", "6", "--segment", "2,3,4,5"), 0),
    "build-cross": (("build", "cross", "--chain", "7"), 0),
    "build-double-box": (("build", "double-box", "--chain", "7"), 0),
    "build-triple-box": (("build", "triple-box", "--chain", "10"), 0),
    "build-ring8-forced-S": (("build", "ring8", "--chain", "9", "--force", "S"), 0),
    "build-ring8-forced-F": (("build", "ring8", "--chain", "9", "--force", "F"), 0),
    "build-ring8-seeded": (("build", "ring8", "--chain", "9", "--seed", "1"), 0),
    "build-H-forced": (("build", "H", "--chains", "8,8", "--force", "F,S"), 0),
    "build-H-seeded": (SOURCE_BUILD, 0),
    "build-H-exhausted": (("build", "H", "--chains", "4,4", "--force", "F,F"), 2),
    "build-ladder-forced": (
        ("build", "ladder", "--chains", "10,10", "--spares", "4,4", "--rungs", "2",
         "--force", "S,F,S,S,S"), 0),
    "build-ladder-forced-spare-fails": (
        ("build", "ladder", "--chains", "10,10", "--spares", "4,4", "--rungs", "2",
         "--force", "S,S,F,S,S"), 0),
    "build-ladder-exhausted": (
        ("build", "ladder", "--chains", "8,8", "--spares", "4,4", "--rungs", "2",
         "--force", "S,F,S,S,S"), 2),
    "build-ladder-seeded": (
        ("build", "ladder", "--chains", "12,12", "--spares", "8,8", "--rungs", "2",
         "--seed", "0"), 0),
    "build-depth-forced": (("build", "depth", "--chains", "10,10,8", "--force", "S,F,S"), 0),
    "build-depth-seeded": (("build", "depth", "--chains", "12,12,12", "--seed", "5"), 0),
    "build-join-forced": (("build", "join", "--chains", "7,7", "--force", "S,F"), 0),
    "build-join-seeded": (("build", "join", "--chains", "7,7", "--seed", "2"), 0),
    "replay": (("replay", "{build}"), 0),
    "export-dot": (("export", "{build}", "--to", "dot"), 0),
    "export-json": (("export", "{build}", "--to", "json"), 0),
    "mc-ours-table": (("mc", "ours", "--trials", "3000", "--seed", "5"), 0),
    "mc-ours-json": (("mc", "ours", "--trials", "3000", "--seed", "5", "--format", "json"), 0),
    "mc-ours-csv": (("mc", "ours", "--trials", "3000", "--seed", "5", "--csv"), 0),
    "mc-type2-table": (("mc", "type2", "--trials", "3000", "--seed", "6"), 0),
    "mc-type2-json": (("mc", "type2", "--trials", "3000", "--seed", "6", "--format", "json"), 0),
    "mc-type2-csv": (("mc", "type2", "--trials", "3000", "--seed", "6", "--csv"), 0),
    "mc-graph-level": (("mc", "ours", "--graph-level", "--trials", "300", "--seed", "9"), 0),
    "verify-all-json": (("verify", "all", "--format", "json"), 0),
}


def run_case(name: str, workdir: Path) -> CliRun:
    build = workdir / "build.json"
    if not build.exists():
        source = run_cli(*SOURCE_BUILD)
        assert source.returncode == 0
        build.write_bytes(source.stdout)
    argv, _ = CASES[name]
    return run_cli(*(str(build) if arg == "{build}" else arg for arg in argv))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    r = run_case(name, tmp_path)
    assert r.returncode == CASES[name][1]
    assert r.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_golden_builds_decode_and_replay():
    """Every stored build decodes (its ledger is its trace's sum), replays
    byte for byte, and replays as physics on the tableau, and on the
    oracle when its pre-merged state has at most 14 qubits."""
    builds = sorted(GOLDEN.glob("build-*.out"))
    assert builds
    for path in builds:
        text = path.read_text(encoding="utf-8")
        result = result_from_doc(json.loads(text))
        assert result_to_json(result) + "\n" == text, path.name
        assert_replays_exactly(result)


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            r = run_case(case, Path(tmp))
            if r.returncode != CASES[case][1]:
                sys.exit(f"{case}: exit code {r.returncode}, expected {CASES[case][1]}")
            (GOLDEN / f"{case}.out").write_bytes(r.stdout)
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
