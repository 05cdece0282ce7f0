"""End-to-end CLI coverage, one ``cli.main`` call per invocation.

Exit code contract: 0 success, 1 usage or verification failure, 2
resource exhaustion.  Seeded invocations must be byte-identical across
runs, so every comparison here works on raw stdout and stderr bytes.
``run_cli`` runs each invocation in this process; ``run_entry_point``
starts the real entry point only where the process is the subject: its
exit codes and bytes match the in-process ones, seeded output stays the
same in a fresh interpreter with its own hash seed, it reads the seed
from its environment, and a closed standard output ends it in one
stderr line."""

import argparse
import json
import os
import signal
import subprocess
import time

import pytest

from clusterforge import cli
from conftest import run_cli, run_entry_point


def test_build_l_shape():
    r = run_cli("build", "L", "--chain", "4")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["name"] == "L"
    assert doc["ledger"] == {
        "bonds_consumed": 2,
        "fusion_attempts": 0,
        "fusion_successes": 0,
        "qubits_consumed": 1,
    }
    assert sorted(doc.keys()) == [
        "annotations", "frame", "graph", "initial", "ledger", "name", "trace",
    ]


def test_build_l_with_segment():
    r = run_cli("build", "L", "--chain", "6", "--segment", "2,3,4,5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["annotations"] == {"arm": 4, "hub": 2}


def test_build_h_forced_success():
    r = run_cli("build", "H", "--chains", "6,6", "--force", "S")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["ledger"]["bonds_consumed"] == 4
    assert doc["annotations"]["rails"] == [[1, 2, 5, 6], [7, 8, 11, 12]]
    assert doc["annotations"]["rungs"] == [13]


def test_build_h_exhaustion_exits_2_with_partial():
    r = run_cli("build", "H", "--chains", "4,4", "--force", "F,F")
    assert r.returncode == 2
    assert b"resource chains exhausted" in r.stderr
    doc = json.loads(r.stdout)
    assert doc["name"] == "H"
    assert doc["annotations"]["exhausted"] is True
    assert doc["annotations"]["rungs"] == []
    assert doc["ledger"]["bonds_consumed"] == 6


def test_build_simple_recipes():
    for name, length in [("cross", "7"), ("double-box", "7"), ("triple-box", "10")]:
        r = run_cli("build", name, "--chain", length)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["name"] == name


def test_build_ladder_pipeline():
    r = run_cli(
        "build", "ladder",
        "--chains", "8,8", "--spares", "4,4", "--rungs", "2", "--force", "S,S,S,S",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["annotations"]["rungs"] == [25, 26, 29]
    assert doc["ledger"]["fusion_attempts"] == 5
    assert doc["ledger"]["fusion_successes"] == 5


def test_build_depth_pipeline():
    r = run_cli("build", "depth", "--chains", "8,8,6", "--force", "S,S,S")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert len(doc["annotations"]["rails"]) == 3
    assert doc["annotations"]["cursors"] == [1, 2, 1]


def test_build_join_and_ring8():
    r = run_cli("build", "join", "--chains", "7,7", "--force", "S,S")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["ledger"]["fusion_successes"] == 2

    r = run_cli("build", "ring8", "--chain", "9", "--force", "S")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["name"] == "ring8"
    assert doc["ledger"]["fusion_attempts"] == 1


def test_build_usage_errors_exit_1():
    cases = [
        (("build", "L"), b"L needs --chain"),
        (("build", "H"), b"H needs --chains"),
        (("build", "H", "--chains", "6"), b"exactly 2 lengths"),
        (("build", "L", "--chain", "x"), b"comma-separated integers"),
        (("build", "L", "--chain", "0"), b"positive integers"),
        (("build", "join", "--chains", "9,9"), b"7-vertex chain"),
    ]
    for args, needle in cases:
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert needle in r.stderr, (args, r.stderr)


def test_unknown_verb_and_recipe_exit_1():
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("build", "bogus").returncode == 1
    assert run_cli().returncode == 1


def test_verify_table_output():
    r = run_cli("verify", "box-equivalence")
    assert r.returncode == 0
    text = r.stdout.decode()
    assert text.count("PASS") == 3
    assert "FAIL" not in text
    assert "overlap=1.000000000000" in text


def test_verify_json_output():
    r = run_cli("verify", "box-equivalence", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc[0]["suite"] == "box-equivalence"
    assert doc[0]["passed"] is True


def test_verify_forwards_options():
    r = run_cli(
        "verify", "triple-agreement",
        "--cases", "5", "--n", "5", "--seed", "2", "--format", "json",
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)[0]["passed"] is True


def test_verify_unknown_suite_exits_1():
    r = run_cli("verify", "nonsense")
    assert r.returncode == 1
    assert b"unknown check: nonsense" in r.stderr


def test_mc_table():
    r = run_cli("mc", "ours", "--trials", "2000", "--seed", "5")
    assert r.returncode == 0
    lines = r.stdout.decode().splitlines()
    assert lines[0].split() == ["metric", "empirical", "closed-form"]
    assert lines[1].split() == ["trials", "2000", "-"]
    assert lines[2].startswith("mean_cost")
    assert "10.000000" in lines[2]
    assert "72.000000" in lines[3]
    assert "2.000000" in lines[4]


def test_mc_json():
    r = run_cli("mc", "ours", "--trials", "500", "--seed", "5", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert sorted(doc.keys()) == ["closed_form", "model", "stats"]
    assert doc["closed_form"] == {"mean_attempts": 2.0, "mean_cost": 10.0, "variance": 72.0}
    assert doc["stats"]["trials"] == 500


def test_mc_csv():
    r = run_cli("mc", "ours", "--trials", "200", "--seed", "5", "--csv")
    assert r.returncode == 0
    lines = r.stdout.decode().splitlines()
    assert lines[0] == "attempts,count"
    assert lines[1].startswith("1,")
    assert r.stdout.endswith(b"\n")


def test_mc_custom_model():
    r = run_cli(
        "mc", "--p", "0.25", "--lcost", "3", "--fail", "9",
        "--trials", "300", "--seed", "1", "--format", "json",
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["model"]["success_probability"] == 0.25


def test_mc_graph_level_matches_abstract():
    graph = run_cli("mc", "--graph-level", "ours", "--trials", "400", "--seed", "9", "--csv")
    abstract = run_cli("mc", "ours", "--trials", "400", "--seed", "9", "--csv")
    assert graph.returncode == abstract.returncode == 0
    assert graph.stdout == abstract.stdout


def test_mc_usage_errors_exit_1():
    cases = [
        (("mc",), b"give a preset name or all of"),
        (("mc", "bogus"), b"unknown preset: bogus"),
        (("mc", "ours", "--p", "0.5", "--lcost", "2", "--fail", "2"), b"not both"),
        (("mc", "--p", "0.5", "--lcost", "2"), b"need all of"),
        (("mc", "type2", "--graph-level"), b"only matches the ours model"),
        (("mc", "ours", "--trials", "0"), b"at least 1"),
    ]
    for args, needle in cases:
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert needle in r.stderr, (args, r.stderr)


def test_export_dot(tmp_path):
    path = tmp_path / "l.json"
    path.write_bytes(run_cli("build", "L", "--chain", "4").stdout)
    r = run_cli("export", str(path))
    assert r.returncode == 0
    assert r.stdout.decode() == (
        "graph clusterstate {\n  1;\n  3;\n  4;\n  1 -- 3;\n  1 -- 4;\n}\n"
    )


def test_export_json_and_out_file(tmp_path):
    path = tmp_path / "l.json"
    path.write_bytes(run_cli("build", "L", "--chain", "4").stdout)
    r = run_cli("export", str(path), "--to", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "vertices": [1, 3, 4], "edges": [[1, 3], [1, 4]], "frame": {},
    }
    out = tmp_path / "graph.dot"
    r = run_cli("export", str(path), "--out", str(out))
    assert r.returncode == 0 and r.stdout == b""
    assert out.read_text().startswith("graph clusterstate {")


def test_export_to_an_unwritable_path_exits_1_with_one_line(tmp_path):
    path = tmp_path / "l.json"
    path.write_bytes(run_cli("build", "L", "--chain", "4").stdout)
    for out in (tmp_path / "missing" / "x.dot", tmp_path):
        r = run_cli("export", str(path), "--out", str(out))
        assert r.returncode == 1, out
        assert r.stdout == b"", out
        assert r.stderr.startswith(f"export: cannot write {out}: ".encode()), r.stderr
        assert r.stderr.count(b"\n") == 1, r.stderr


def test_export_errors_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    r = run_cli("export", str(bad))
    assert r.returncode == 1
    assert b"parse error: line 1 column 2" in r.stderr

    r = run_cli("export", str(tmp_path / "missing.json"))
    assert r.returncode == 1
    assert b"cannot read" in r.stderr

    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"vertices": [1]}')
    r = run_cli("export", str(wrong))
    assert r.returncode == 1
    assert b"invalid recipe document" in r.stderr


def test_replay_round_trip(tmp_path):
    path = tmp_path / "h.json"
    built = run_cli("build", "H", "--chains", "6,6", "--seed", "3").stdout
    path.write_bytes(built)
    r = run_cli("replay", str(path))
    assert r.returncode == 0
    assert r.stdout == built


def test_replay_tampered_trace_exits_1(tmp_path):
    doc = json.loads(run_cli("build", "H", "--chains", "6,6", "--seed", "3").stdout)
    for step in doc["trace"]:
        if step["op"] == "fuse":
            step["outcome"] = "F" if step["outcome"] == "S" else "S"
            break
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    r = run_cli("replay", str(path))
    assert r.returncode == 1
    assert b"fuse step mismatch" in r.stderr


def test_replay_of_an_edited_graph_exits_1_with_the_replayed_result(tmp_path):
    built = run_cli("build", "H", "--chains", "6,6", "--seed", "3").stdout
    doc = json.loads(built)
    doc["graph"]["vertices"].append(99)  # well formed, but not what the trace builds
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    r = run_cli("replay", str(path))
    assert r == (1, built, b"replay: reconstruction differs from the recorded result\n")


def test_edited_ledger_exits_1_with_one_line(tmp_path):
    doc = json.loads(run_cli("build", "H", "--chains", "6,6", "--seed", "3").stdout)
    doc["ledger"]["bonds_consumed"] += 1
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    for verb in ("export", "replay"):
        r = run_cli(verb, str(path))
        assert r.returncode == 1, verb
        assert r.stdout == b"", verb
        assert r.stderr == f"{verb}: stored ledger does not match its trace\n".encode(), verb


def test_non_object_frame_or_relabel_mapping_exits_1_with_one_line(tmp_path):
    h = json.loads(run_cli("build", "H", "--chains", "6,6", "--seed", "3").stdout)
    h["frame"] = 3
    ring = json.loads(run_cli("build", "ring8", "--chain", "9", "--force", "S").stdout)
    relabel = next(step for step in ring["trace"] if step["op"] == "relabel")
    relabel["mapping"] = list(relabel["mapping"].values())
    cases = [
        ("export", h, "frame must be a JSON object"),
        ("replay", h, "frame must be a JSON object"),
        ("replay", ring, "relabel mapping must be a JSON object"),
    ]
    for verb, doc, message in cases:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        r = run_cli(verb, str(path))
        assert (r.returncode, r.stdout, r.stderr) == (1, b"", f"{verb}: {message}\n".encode())


def test_seeded_runs_are_byte_identical():
    # One run in this process, one in a fresh interpreter with its own hash seed.
    pairs = [
        ("mc", "ours", "--trials", "3000", "--seed", "11"),
        ("build", "H", "--chains", "8,8", "--seed", "42"),
        ("verify", "triple-agreement", "--cases", "5", "--seed", "7", "--format", "json"),
    ]
    for args in pairs:
        here, fresh = run_cli(*args), run_entry_point(*args)
        assert here.returncode == 0, args
        assert here == fresh, args


def test_different_seeds_change_the_build():
    a = run_cli("build", "H", "--chains", "8,8", "--seed", "0")
    b = run_cli("build", "H", "--chains", "8,8", "--seed", "3")
    assert a.stdout != b.stdout
    assert json.loads(a.stdout)["ledger"]["fusion_attempts"] == 2
    assert json.loads(b.stdout)["ledger"]["fusion_attempts"] == 1


def test_seed_env_variable():
    flagged = run_cli("build", "H", "--chains", "8,8", "--seed", "42")
    via_env = run_cli(
        "build", "H", "--chains", "8,8", env_extra={"CLUSTERFORGE_SEED": "42"}
    )
    assert via_env.stdout == flagged.stdout
    fresh = run_entry_point(
        "build", "H", "--chains", "8,8", env_extra={"CLUSTERFORGE_SEED": "42"}
    )
    assert fresh.stdout == flagged.stdout

    default = run_cli("build", "H", "--chains", "8,8")
    explicit_zero = run_cli("build", "H", "--chains", "8,8", "--seed", "0")
    assert default.stdout == explicit_zero.stdout

    junk = run_cli("build", "H", "--chains", "8,8", env_extra={"CLUSTERFORGE_SEED": "junk"})
    assert junk.stdout == explicit_zero.stdout

    flag_wins = run_cli(
        "build", "H", "--chains", "8,8", "--seed", "3",
        env_extra={"CLUSTERFORGE_SEED": "42"},
    )
    assert flag_wins.stdout == run_cli("build", "H", "--chains", "8,8", "--seed", "3").stdout


# -- the real entry point and the in-process runner ----------------------------------


H88 = ("build", "H", "--chains", "8,8")


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "L", "--chain", "4"),
        ("build", "L"),
        ("frobnicate",),
        (),
        ("build", "H", "--chains", "4,4", "--force", "F,F"),
    ],
    ids=["exit-0", "exit-1-usage", "exit-1-argparse", "no-args", "exit-2-partial"],
)
def test_entry_point_and_in_process_runner_agree(argv):
    assert run_entry_point(*argv) == run_cli(*argv)


def test_a_raise_inside_a_verb_escapes_the_runner(monkeypatch):
    def planted(result):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "result_to_json", planted)
    with pytest.raises(RuntimeError, match="planted"):
        run_cli("build", "L", "--chain", "4")


def test_timeout_stops_a_hung_verb(monkeypatch):
    monkeypatch.setattr(cli, "result_to_json", lambda result: time.sleep(30))
    start = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired):
        run_cli("build", "L", "--chain", "4", timeout=0.2)
    assert time.monotonic() - start < 5


def test_runner_restores_the_seed_and_the_alarm_handler(monkeypatch):
    def sentinel(signum, frame):
        pass

    monkeypatch.setenv(cli.ENV_SEED, "7")
    previous = signal.signal(signal.SIGALRM, sentinel)
    try:
        unseeded = run_cli(*H88, timeout=30)
        assert unseeded == run_cli(*H88, "--seed", "0")
        assert run_cli(*H88, env_extra={cli.ENV_SEED: "3"}, timeout=30) == run_cli(
            *H88, "--seed", "3"
        )
        monkeypatch.setattr(cli, "result_to_json", lambda result: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_cli(*H88, env_extra={cli.ENV_SEED: "3"}, timeout=30)
        assert os.environ[cli.ENV_SEED] == "7"
        assert signal.getsignal(signal.SIGALRM) is sentinel
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_runner_refuses_settings_read_at_interpreter_start():
    for key in ("PYTHONHASHSEED", "OMP_NUM_THREADS"):
        with pytest.raises(ValueError, match=key):
            run_cli(*H88, env_extra={key: "1"})


# -- one parser per process -------------------------------------------------------
#
# ``cli.main`` parses every call with one cached parser, so nothing a call
# reads from the environment may be frozen into that parser.


def test_seed_env_variable_is_read_on_every_call():
    cli._make_parser.cache_clear()
    by_flag = {seed: run_cli(*H88, "--seed", seed) for seed in ("0", "1", "3")}
    assert len(set(by_flag.values())) == 3
    for seed in ("3", "1", "0", "junk", "3"):
        via_env = run_cli(*H88, env_extra={cli.ENV_SEED: seed})
        assert via_env == by_flag["0" if seed == "junk" else seed], seed
    assert run_cli(*H88) == by_flag["0"]


def test_usage_error_and_help_leave_the_next_call_unchanged():
    seed3 = {cli.ENV_SEED: "3"}
    cli._make_parser.cache_clear()
    first = run_cli(*H88, env_extra=seed3)
    for argv, code in ((("build", "nope"), 1), (("mc", "--help"), 0), (("--help",), 0)):
        cli._make_parser.cache_clear()
        made_first = run_cli(*argv)
        assert made_first.returncode == code and (made_first.stdout or made_first.stderr), argv
        assert run_cli(*argv) == made_first, argv
        assert run_cli(*H88, env_extra=seed3) == first, argv


def test_every_verb_shares_one_parser(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        cli._Parser, "__init__", lambda self, **kw: built.append(kw["prog"]) or init(self, **kw)
    )
    cli._make_parser.cache_clear()
    seeded = [
        H88,
        ("verify", "triple-agreement", "--n", "6", "--cases", "3", "--format", "json"),
        ("mc", "ours", "--trials", "200", "--format", "json"),
    ]
    for i, argv in enumerate(seeded):
        via_env = run_cli(*argv, env_extra={cli.ENV_SEED: str(i + 5)})
        assert via_env.returncode == 0, argv
        assert via_env == run_cli(*argv, "--seed", str(i + 5)), argv
    stored = tmp_path / "h.json"
    stored.write_bytes(run_cli(*H88).stdout)
    assert run_cli("replay", str(stored)).returncode == 0
    assert run_cli("export", str(stored), "--to", "json").returncode == 0
    assert built.count("clusterforge") == 1


def test_verify_bad_options_exit_1_with_one_line():
    cases = [
        (("--n", "20"), b"qubit"),
        (("--n", "1"), b"need at least two vertices"),
        (("--cases", "0"), b"need at least one case"),
    ]
    for args, needle in cases:
        r = run_cli("verify", "triple-agreement", *args)
        assert r.returncode == 1, args
        assert r.stdout == b"", args
        assert r.stderr.count(b"\n") == 1 and needle in r.stderr, (args, r.stderr)


def test_mc_unbounded_or_non_finite_inputs_exit_1_with_one_line():
    cases = [
        (("--p", "1e-300", "--lcost", "2", "--fail", "2", "--trials", "1"), b"draws"),
        (("--p", "0.5", "--lcost", "nan", "--fail", "2", "--format", "json"), b"finite"),
        (("--p", "0.5", "--lcost", "1e200", "--fail", "1", "--trials", "100"), b"overflow"),
        (("--p", "0.5", "--lcost", "1e160", "--fail", "1", "--trials", "1"), b"overflow"),
        (("--p", "0.5", "--lcost", "1e160", "--fail", "1", "--trials", "1", "--csv"), b"overflow"),
        (("--p", "0.5", "--lcost", "1e308", "--fail", "1e308", "--trials", "100",
          "--format", "json"), b"overflow"),
    ]
    for args, needle in cases:
        r = run_cli("mc", *args, timeout=60)
        assert r.returncode == 1, args
        assert r.stdout == b"", args
        assert r.stderr.count(b"\n") == 1 and needle in r.stderr, (args, r.stderr)


def test_oversized_verify_or_graph_level_run_is_refused_before_any_work():
    cases = [
        (("verify", "triple-agreement", "--n", "2000"), b"qubits exceeds 14", 5),
        (("mc", "ours", "--graph-level", "--trials", "100000000"), b"draws", 10),
    ]
    for args, needle, timeout in cases:
        r = run_cli(*args, timeout=timeout)
        assert r.returncode == 1, args
        assert r.stdout == b"", args
        assert r.stderr.count(b"\n") == 1 and needle in r.stderr, (args, r.stderr)


def test_build_ladder_negative_rungs_exit_1():
    r = run_cli("build", "ladder", "--chains", "8,8", "--rungs", "-1", "--force", "S")
    assert r.returncode == 1
    assert r.stderr == b"build ladder: rung count must be non-negative, got -1\n"


def test_build_huge_repeat_count_exits_1_with_one_line():
    r = run_cli("build", "depth", "--chains", "6,6,6", "--force", "F*99999999999", timeout=60)
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr == b"build depth: forced schedule longer than 1000000 tokens\n"


def test_build_ladder_running_back_to_its_last_rung_exits_2():
    r = run_cli(
        "build", "ladder", "--chains", "12,12", "--spares", "8,8", "--rungs", "2", "--seed", "2",
    )
    assert r.returncode == 2
    assert r.stderr.count(b"\n") == 1 and b"resource chains exhausted" in r.stderr
    assert json.loads(r.stdout)["annotations"]["exhausted"] is True


def test_unknown_frame_label_is_rejected(tmp_path):
    doc = json.loads(run_cli("build", "L", "--chain", "4").stdout)
    doc["frame"] = {"1": "Q"}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    for args in (("export", str(path), "--to", "json"), ("replay", str(path))):
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert r.stdout == b"", args
        assert b"unknown Clifford label: 'Q'" in r.stderr, args


@pytest.mark.parametrize(
    "argv, where",
    [
        (("build", "L", "--chain", "4"), "build L"),  # about 600 bytes, left to the exit flush
        (("build", "L", "--chain", "20000"), "build L"),  # about 0.7 MB, fails inside print
        (("verify", "box-equivalence"), "verify box-equivalence"),
        (("mc", "ours", "--trials", "100"), "mc"),
        (("export", "STORED"), "export"),
        (("replay", "STORED"), "replay"),
    ],
    ids=["build-small", "build-large", "verify", "mc", "export", "replay"],
)
def test_closed_stdout_ends_in_one_stderr_line(tmp_path, argv, where):
    stored = tmp_path / "l4.json"
    stored.write_bytes(run_cli("build", "L", "--chain", "4").stdout)
    argv = [str(stored) if arg == "STORED" else arg for arg in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = run_entry_point(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (1, f"{where}: standard output was closed early\n".encode())
