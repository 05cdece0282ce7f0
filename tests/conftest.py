"""Shared test plumbing: the two CLI runners and assertions over the
library's two physics replayers.

``run_cli`` calls ``cli.main`` in this process and hands back what the
command-line process would have shown: exit code, stdout and stderr as
bytes.  ``run_entry_point`` starts ``python -m clusterforge`` for the
few tests whose subject is the process itself: the real entry point's
exit codes, a seed read from a fresh process's environment, a standard
output whose reader is gone, and output that must not depend on
interpreter-start settings such as ``PYTHONHASHSEED`` or thread counts.
Every other CLI test uses ``run_cli``.

``clusterforge.checks.replay_tableau`` and ``replay_oracle`` re-run a
recipe's trace as raw physics on the stabilizer tableau and the dense
oracle, and compare with the recipe's claimed graph + frame.  Neither
consults the graph-rewrite rules under test, so a bug there cannot
cancel out here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

from clusterforge import cli
from clusterforge.checks import OVERLAP_TOL, replay_oracle, replay_tableau
from clusterforge.oracle import OracleLimitError

SRC = Path(__file__).resolve().parent.parent / "src"

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


class CliRun(NamedTuple):
    """One CLI invocation as its caller sees it; output stays as bytes on purpose."""

    returncode: int
    stdout: bytes
    stderr: bytes


def run_cli(
    *args: str, env_extra: dict | None = None, timeout: float | None = None
) -> CliRun:
    """Call ``cli.main(args)`` in process, as ``python -m clusterforge`` runs it.

    ``CLUSTERFORGE_SEED`` is unset for the call unless ``env_extra`` sets
    it; no other variable is accepted, because settings read at
    interpreter start would be silently ignored here (use
    ``run_entry_point``).  Argparse's ``SystemExit`` becomes the exit
    code; any other exception escapes and fails the test, as a traceback
    would fail the process.  ``timeout`` arms ``SIGALRM``, which stops
    Python code but not a single long call into C.
    """
    extra = env_extra or {}
    other = sorted(set(extra) - {cli.ENV_SEED})
    if other:
        raise ValueError(f"run_cli sets only {cli.ENV_SEED}, not {other}: use run_entry_point")

    def expire(signum, frame):
        raise subprocess.TimeoutExpired(["clusterforge", *args], timeout)

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire) if timeout else None
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv(cli.ENV_SEED, raising=False)
            for key, value in extra.items():
                mp.setenv(key, value)
            if timeout:
                signal.setitimer(signal.ITIMER_REAL, timeout)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(args))
                except SystemExit as exc:
                    code = exc.code or 0
    finally:
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return CliRun(code, out.getvalue().encode(), err.getvalue().encode())


def run_entry_point(
    *args: str, env_extra: dict | None = None, stdout: int = subprocess.PIPE
) -> CliRun:
    """Run ``python -m clusterforge`` in a fresh interpreter.

    ``stdout`` may name a file descriptor for the child's standard
    output; the returned stdout is then empty.
    """
    env = os.environ.copy()
    env.pop(cli.ENV_SEED, None)
    env["PYTHONPATH"] = str(SRC)
    if env_extra:
        env.update(env_extra)
    done = subprocess.run(
        [sys.executable, "-m", "clusterforge", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )
    return CliRun(done.returncode, done.stdout or b"", done.stderr)


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
