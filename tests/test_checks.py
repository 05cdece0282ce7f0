"""Verification suites: every bundled check must pass, and the report
objects must render faithfully."""

from dataclasses import replace

import pytest

from clusterforge import checks
from clusterforge.checks import (
    OVERLAP_TOL,
    SUITE_NAMES,
    CheckLine,
    CheckReport,
    measurement_agreement,
    random_graph,
    replay_oracle,
    replay_tableau,
    run_suite,
)
from clusterforge.fusion import RngStream
from clusterforge.graphstate import GraphState, chain, star
from clusterforge.recipes import RecipeResult, nodeless_rung


def test_suite_names_are_registered():
    assert SUITE_NAMES == (
        "box-equivalence",
        "box-on-chain",
        "cross",
        "measurement-rules",
        "fusion",
        "ring",
        "triple-agreement",
        "all",
    )


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "all"])
def test_each_suite_passes(name):
    options = {"cases": 20} if name == "triple-agreement" else {}
    reports = run_suite(name, **options)
    for report in reports:
        assert report.passed, report.to_table()
        assert report.lines


def test_all_runs_every_suite():
    reports = run_suite("all", cases=5)
    assert [r.suite for r in reports] == list(SUITE_NAMES[:-1])
    assert all(r.passed for r in reports)


def test_unknown_suite():
    with pytest.raises(KeyError, match="unknown check"):
        run_suite("nonsense")


def test_triple_agreement_options():
    a = run_suite("triple-agreement", n=5, cases=7, seed=3)[0]
    b = run_suite("triple-agreement", n=5, cases=7, seed=3)[0]
    assert a.to_dict() == b.to_dict()
    assert a.passed


def test_report_rendering():
    report = CheckReport(
        suite="demo",
        lines=[CheckLine("works", True, "detail text"), CheckLine("broke", False)],
    )
    assert not report.passed
    table = report.to_table()
    assert "PASS  demo: works  (detail text)" in table
    assert "FAIL  demo: broke" in table
    doc = report.to_dict()
    assert doc["passed"] is False
    assert doc["lines"][0] == {"name": "works", "passed": True, "detail": "detail text"}


def test_random_graph_is_seeded():
    g1 = random_graph(6, RngStream(8))
    g2 = random_graph(6, RngStream(8))
    assert g1 == g2
    assert g1.sorted_vertices() == [1, 2, 3, 4, 5, 6]


def test_measurement_agreement_reports():
    ok, note = measurement_agreement(chain(5), 3, "Z")
    assert ok and "agree" in note
    ok, note = measurement_agreement(star(4), 1, "Y")
    assert ok
    for basis in ("Z", "Y"):
        for v in (1, 2, 4):
            assert measurement_agreement(random_graph(6, RngStream(v)), v, basis)[0]


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: {"graph": GraphState(r.graph.vertices, r.graph.edges ^ {(1, 4)})},
        lambda r: {"frame": {**r.frame, 2: "H"}},
    ],
    ids=["edge-toggled", "frame-label-edited"],
)
def test_replayers_reject_an_edited_result(edit):
    res = nodeless_rung(chain(5), 3)
    assert res.frame == {2: "S", 4: "S"}
    assert replay_tableau(res) and replay_oracle(res)[1] >= 1 - OVERLAP_TOL
    edited = replace(res, **edit(res))
    assert not replay_tableau(edited)
    assert replay_oracle(edited)[1] < 1 - OVERLAP_TOL


def test_ring_suite_fails_on_a_wrong_ring_graph(monkeypatch):
    build = checks.build_ring8

    def toggled(g, forced=None):
        res = build(g, forced=forced)
        if forced != "S":
            return res
        return replace(res, graph=GraphState(res.graph.vertices, res.graph.edges ^ {(1, 2)}))

    monkeypatch.setattr(checks, "build_ring8", toggled)
    verdicts = {line.name: line.passed for line in run_suite("ring")[0].lines}
    assert not verdicts["success output is locally equivalent to the 8-ring"]
    assert not verdicts["oracle: fused ring + Hadamards equals the extracted graph"]


def _hand_built(initial, trace, graph=None):
    """A RecipeResult with no recipe behind it, for the walk's refusals."""
    return RecipeResult("hand-built", graph or initial, {}, tuple(trace), initial)


def _hadamard(v):
    return {"op": "tableau_rewrite", "hadamards": [v], "swaps": []}


def test_walk_stops_at_a_certain_outcome():
    # H|+> = |0>: Z = +1 is certain, not the 1/2 every trace measurement needs.
    res = _hand_built(GraphState({1}, ()), [_hadamard(1), {"op": "measure_z", "vertex": 1}])
    assert replay_oracle(res) == (1.0, 0.0)
    assert checks._walk(res, checks._Tableau) == (1.0, None)
    assert not replay_tableau(res)


def test_walk_stops_at_an_excluded_outcome():
    # With H on vertex 1 of the edge 1-2, Y = +1 on vertex 1 excludes Y = +1 on vertex 2.
    res = _hand_built(
        chain(2),
        [_hadamard(1), {"op": "measure_y", "vertex": 1}, {"op": "measure_y", "vertex": 2}],
    )
    assert replay_oracle(res) == (0.0, 0.0)
    assert checks._walk(res, checks._Tableau) == (0.0, None)
    assert not replay_tableau(res)


@pytest.mark.parametrize(
    "step, message",
    [
        ({"op": "measure_z", "vertex": 3}, "trace does not run: no live vertex 3"),
        ({"op": "teleport"}, "unknown trace op: 'teleport'"),
    ],
    ids=["no-live-vertex", "unknown-op"],
)
def test_walk_refuses_a_trace_that_cannot_run(step, message):
    res = _hand_built(chain(2), [step])
    for replayer in (replay_oracle, replay_tableau):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replayer(res)


def test_walk_rejects_survivors_that_are_not_the_claimed_vertices():
    res = _hand_built(chain(2), [], graph=GraphState({1, 2, 3}, {(1, 2)}))
    assert replay_oracle(res) == (0.5, 0.0)
    assert not replay_tableau(res)


def test_measurement_agreement_refuses_an_unsupported_basis():
    with pytest.raises(ValueError, match="^unsupported measurement basis: 'X'$"):
        measurement_agreement(chain(3), 2, "X")


@pytest.mark.parametrize(
    "engine, method, value, detail",
    [
        ("_Tableau", "compare", False, "tableau mismatch measuring Z at 2"),
        ("_Oracle", "measure", 0.25, "outcome probability 0.25 is not 1/2"),
        ("_Oracle", "compare", 0.0, "oracle mismatch measuring Z at 2"),
    ],
    ids=["tableau-mismatch", "off-branch", "oracle-mismatch"],
)
def test_measurement_agreement_fails_on_a_broken_engine(monkeypatch, engine, method, value, detail):
    monkeypatch.setattr(getattr(checks, engine), method, lambda self, *a: value)
    assert measurement_agreement(chain(3), 2, "Z") == (False, detail)


@pytest.mark.parametrize(
    "method, value, detail",
    [
        ("measure", 0.25, "fuse(2,3): branch probability 0.25 is not 1/2"),
        ("compare", 0.0, "fuse(2,3): state mismatch"),
    ],
    ids=["off-branch", "state-mismatch"],
)
def test_fusion_suite_fails_on_a_broken_oracle(monkeypatch, method, value, detail):
    monkeypatch.setattr(checks._Oracle, method, lambda self, *a: value)
    lines = {line.name: line for line in run_suite("fusion")[0].lines}
    assert lines["chains 2+2: success gives the 3-chain"].passed
    line = lines["chains 2+2: oracle success branch"]
    assert (line.passed, line.detail) == (False, detail)


def test_triple_agreement_reports_its_first_failing_case(monkeypatch):
    # The tableau disagrees from the second case on; the detail names case 1.
    calls = []

    def compare(self, g, frame):
        calls.append(g)
        return len(calls) == 1

    monkeypatch.setattr(checks._Tableau, "compare", compare)
    (line,) = run_suite("triple-agreement", n=4, cases=3)[0].lines
    assert len(calls) == 3
    assert not line.passed
    assert line.detail.startswith("case 1: tableau mismatch measuring ")
