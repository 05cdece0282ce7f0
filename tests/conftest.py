"""Shared test plumbing: the CLI runner and assertions over the library's
two physics replayers.

``clusterforge.checks.replay_tableau`` and ``replay_oracle`` re-run a
recipe's trace as raw physics on the stabilizer tableau and the dense
oracle, and compare with the recipe's claimed graph + frame.  Neither
consults the graph-rewrite rules under test, so a bug there cannot
cancel out here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

from clusterforge.checks import OVERLAP_TOL, replay_oracle, replay_tableau
from clusterforge.oracle import OracleLimitError

SRC = Path(__file__).resolve().parent.parent / "src"

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def run_cli(
    *args: str, env_extra: dict | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    """Invoke the CLI in a subprocess; output stays as bytes on purpose."""
    env = os.environ.copy()
    env.pop("CLUSTERFORGE_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "clusterforge", *args],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


def assert_tableau_replay(result) -> None:
    assert replay_tableau(result), (
        f"tableau replay of {result.name} disagrees with its graph + frame"
    )


def assert_oracle_replay(result) -> None:
    prob, overlap = replay_oracle(result)
    assert abs(prob - 0.5) <= OVERLAP_TOL, f"{result.name}: branch probability {prob}"
    assert overlap >= 1 - OVERLAP_TOL, (
        f"dense replay of {result.name} disagrees with its graph + frame"
    )


def assert_replays_exactly(result) -> None:
    """Both physics replayers (the oracle when 14 qubits suffice), plus the
    symbolic round trip."""
    from clusterforge.recipes import replay, result_to_json

    assert_tableau_replay(result)
    try:
        assert_oracle_replay(result)
    except OracleLimitError:
        pass
    text = result_to_json(result)
    assert result_to_json(replay(json.loads(text))) == text
