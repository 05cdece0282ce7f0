"""End-to-end CLI coverage through real subprocesses.

Exit code contract: 0 success, 1 usage or verification failure, 2
resource exhaustion.  Seeded invocations must be byte-identical across
runs, so every comparison here works on raw stdout bytes."""

import argparse
import contextlib
import io
import json

from clusterforge import cli
from conftest import run_cli


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
    pairs = [
        ("mc", "ours", "--trials", "3000", "--seed", "11"),
        ("build", "H", "--chains", "8,8", "--seed", "42"),
        ("verify", "triple-agreement", "--cases", "5", "--seed", "7", "--format", "json"),
    ]
    for args in pairs:
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout, args


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


# -- one parser per process -------------------------------------------------------
#
# ``cli.main`` parses every call with one cached parser, so nothing a call
# reads from the environment may be frozen into that parser.


def call_main(argv) -> tuple[int, str, str]:
    """One in-process ``cli.main`` call: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


H88 = ("build", "H", "--chains", "8,8")


def test_seed_env_variable_is_read_on_every_call(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    cli._make_parser.cache_clear()
    by_flag = {seed: call_main((*H88, "--seed", seed)) for seed in ("0", "1", "3")}
    assert len(set(by_flag.values())) == 3
    for seed in ("3", "1", "0", "junk", "3"):
        monkeypatch.setenv(cli.ENV_SEED, seed)
        assert call_main(H88) == by_flag["0" if seed == "junk" else seed], seed
    monkeypatch.delenv(cli.ENV_SEED)
    assert call_main(H88) == by_flag["0"]


def test_usage_error_and_help_leave_the_next_call_unchanged(monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "3")
    cli._make_parser.cache_clear()
    first = call_main(H88)
    for argv, code in ((("build", "nope"), 1), (("mc", "--help"), 0), (("--help",), 0)):
        cli._make_parser.cache_clear()
        monkeypatch.delenv(cli.ENV_SEED)
        made_first = call_main(argv)
        assert made_first[0] == code and (made_first[1] or made_first[2]), argv
        assert call_main(argv) == made_first, argv
        monkeypatch.setenv(cli.ENV_SEED, "3")
        assert call_main(H88) == first, argv


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
        monkeypatch.setenv(cli.ENV_SEED, str(i + 5))
        via_env = call_main(argv)
        assert via_env[0] == 0, argv
        assert via_env == call_main((*argv, "--seed", str(i + 5))), argv
    stored = tmp_path / "h.json"
    stored.write_text(call_main(H88)[1], encoding="utf-8")
    assert call_main(("replay", str(stored)))[0] == 0
    assert call_main(("export", str(stored), "--to", "json"))[0] == 0
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
