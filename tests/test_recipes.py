"""Shape recipes: frozen regressions, ledgers, traces, and physics replays.

Every expected graph below was cross-checked against the dense
statevector and stabilizer engines (the parametrized replay test at the
bottom keeps doing so on each run), so the frozen edge lists are
verified snapshots rather than transcribed beliefs.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_replays_exactly, assert_tableau_replay
from clusterforge import tableau as tb
from clusterforge.fusion import CostLedger, RngStream, merge_disjoint, type1_fuse
from clusterforge.montecarlo import run_recipe_trials
from clusterforge.graphstate import (
    GraphState,
    _WorkingGraph,
    chain,
    chain_to_box,
    graph_from_doc,
    graph_to_doc,
    isomorphic,
    lc_equivalent,
    measure_y,
    measure_z,
    path_vertices,
    ring,
    star,
)
from clusterforge.recipes import (
    RecipeResult,
    ResourcesExhaustedError,
    build_cross,
    build_double_box,
    build_h_shape,
    build_l_shape,
    build_ring8,
    build_triple_box,
    close_second_rung,
    grow_depth,
    grow_ladder,
    join_double_boxes,
    nodeless_rung,
    parse_schedule,
    replay,
    result_from_doc,
    result_to_doc,
    result_to_json,
    salvage_failed_join,
    trace_ledger,
)


def edges(result):
    return result.graph.sorted_edges()


def h66(forced="S"):
    return build_h_shape(chain(6), chain(6, start=7), forced=forced)


def h88(forced="S"):
    return build_h_shape(chain(8), chain(8, start=9), forced=forced)


def double_boxes():
    return build_double_box(chain(7)), build_double_box(chain(7, start=8))


# -- forced-outcome schedules --------------------------------------------------


def test_parse_schedule_forms():
    assert parse_schedule(None) == []
    assert parse_schedule("S") == ["S"]
    assert parse_schedule("F,S") == ["F", "S"]
    assert parse_schedule("F*3,S") == ["F", "F", "F", "S"]
    assert parse_schedule("f, s") == ["F", "S"]
    assert parse_schedule(("S", "F")) == ["S", "F"]


def test_parse_schedule_rejects_junk():
    with pytest.raises(ValueError, match="bad forced-outcome token: 'Q'"):
        parse_schedule("S,Q")
    with pytest.raises(ValueError, match="bad forced-outcome token"):
        parse_schedule("F*x")
    with pytest.raises(ValueError, match="bad forced-outcome entry: True"):
        parse_schedule([True])
    with pytest.raises(ValueError, match="forced schedule longer than 1000000 tokens"):
        parse_schedule("S,F*99999999999")


# -- deterministic single-chain recipes ----------------------------------------


def test_l_shape_frozen():
    res = build_l_shape(chain(4))
    assert edges(res) == [(1, 3), (1, 4)]
    assert res.ledger == CostLedger(bonds_consumed=2, qubits_consumed=1)
    assert res.annotations == {"hub": 1, "arm": 3}
    assert res.frame == {}


def test_l_shape_midchain_segment():
    res = build_l_shape(chain(6, start=0), segment=(1, 2, 3, 4))
    assert edges(res) == [(0, 1), (1, 3), (1, 4), (4, 5)]
    assert res.ledger.bonds_consumed == 2


def test_l_shape_needs_four_vertices():
    with pytest.raises(ValueError, match="fewer than four vertices"):
        build_l_shape(chain(3))


def test_l_shape_is_deterministic():
    runs = {result_to_json(build_l_shape(chain(4))) for _ in range(5)}
    assert len(runs) == 1


def test_cross_frozen():
    res = build_cross(chain(7))
    assert edges(res) == [(1, 4), (2, 4), (4, 6), (4, 7)]
    assert res.ledger == CostLedger(bonds_consumed=4, qubits_consumed=2)
    assert res.annotations == {"center": 4}
    assert isomorphic(res.graph, star(5)) is not None


def test_cross_with_extensions():
    # a 7-run embedded in a longer chain keeps its outer stubs
    res = build_cross(chain(9, start=0), start=1)
    assert res.graph.degree(4) == 4
    assert res.graph.has_edge(0, 1) and res.graph.has_edge(7, 8)


def test_cross_needs_consecutive_run():
    with pytest.raises(ValueError, match="cross needs a 7-vertex chain"):
        build_cross(chain(6))
    with pytest.raises(ValueError, match="consecutive labels"):
        build_cross(chain(7).relabel({7: 99}))


def test_run_interior_must_be_clean():
    g = GraphState([*range(1, 10), 99], chain(9).edges | {(5, 99)})
    with pytest.raises(ValueError, match="vertex 5 must have no outside neighbors"):
        build_double_box(g, start=2)


def test_double_box_frozen():
    res = build_double_box(chain(7))
    assert edges(res) == [
        (1, 3), (1, 4), (2, 3), (2, 4), (4, 6), (4, 7), (5, 6), (5, 7),
    ]
    assert res.ledger == CostLedger()
    assert res.annotations == {"start": 1, "hubs": [4], "wings": [2, 7]}


def test_triple_box_frozen():
    res = build_triple_box(chain(10))
    assert edges(res) == [
        (1, 3), (1, 4), (2, 3), (2, 4), (4, 6), (4, 7),
        (5, 6), (5, 7), (7, 9), (7, 10), (8, 9), (8, 10),
    ]
    assert res.ledger == CostLedger()
    assert res.annotations == {"start": 1, "hubs": [4, 7]}


# -- H shapes -------------------------------------------------------------------


def test_h_forced_success_frozen():
    res = h66()
    assert edges(res) == [
        (1, 2), (2, 5), (2, 13), (5, 6), (7, 8), (8, 11), (8, 13), (11, 12),
    ]
    assert res.ledger == CostLedger(4, 3, 1, 1)
    assert res.annotations == {
        "rails": [[1, 2, 5, 6], [7, 8, 11, 12]],
        "cursors": [1, 1],
        "rungs": [13],
    }


def test_h_fail_then_succeed_frozen():
    res = build_h_shape(chain(7), chain(7, start=8), forced="F,S")
    assert edges(res) == [(1, 2), (2, 7), (2, 15), (8, 9), (9, 14), (9, 15)]
    assert res.ledger == CostLedger(10, 7, 2, 1)
    assert res.annotations["rungs"] == [15]


def test_h_exhaustion_carries_partial_result():
    with pytest.raises(ResourcesExhaustedError, match="resource chains exhausted") as exc:
        build_h_shape(chain(4), chain(4, start=5), forced="F,F,F,F")
    partial = exc.value.partial
    assert isinstance(partial, RecipeResult)
    assert edges(partial) == [(1, 4), (5, 8)]
    assert partial.ledger == CostLedger(6, 4, 1, 0)
    assert partial.annotations == {"rails": [[1, 4], [5, 8]], "rungs": [], "exhausted": True}


def test_h_needs_entropy_when_schedule_runs_dry():
    with pytest.raises(ValueError, match="fusion needs an rng or a forced outcome"):
        build_h_shape(chain(6), chain(6, start=7), forced="")


def test_h_seeded_build_is_reproducible():
    a = build_h_shape(chain(10), chain(10, start=11), rng=RngStream(11))
    b = build_h_shape(chain(10), chain(10, start=11), rng=RngStream(11))
    assert result_to_json(a) == result_to_json(b)
    assert a.ledger.fusion_successes == 1


def test_h_leftover_schedule_falls_back_to_rng():
    res = build_h_shape(chain(10), chain(10, start=11), rng=RngStream(4), forced="F")
    fuses = [s for s in res.trace if s["op"] == "fuse"]
    assert fuses[0]["outcome"] == "F"
    assert res.ledger.fusion_attempts >= 2


def rung_candidates(g):
    return [
        v
        for v in g.sorted_vertices()
        if g.degree(v) == 2 and all(g.degree(u) == 3 for u in g.neighbors(v))
    ]


def test_h_has_unique_rung_vertex():
    res = h66()
    assert rung_candidates(res.graph) == res.annotations["rungs"]


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=40)
def test_h_bond_cost_tracks_attempts(seed):
    # 6k - 2 bonds after success on attempt k; 6k if the chains run out
    try:
        res = build_h_shape(chain(12), chain(12, start=13), rng=RngStream(seed))
    except ResourcesExhaustedError as exc:
        partial = exc.partial
        assert partial.ledger.bonds_consumed == 6 * partial.ledger.fusion_attempts
        return
    k = res.ledger.fusion_attempts
    assert res.ledger.bonds_consumed == 6 * k - 2
    assert res.ledger.fusion_successes == 1
    # the rung always bridges the two cursor hubs; a hub keeps degree 3
    # unless its rail shrank so far that no tail remains before it
    rung = res.annotations["rungs"][0]
    rails, cursors = res.annotations["rails"], res.annotations["cursors"]
    hubs = [rails[i][cursors[i]] for i in range(2)]
    assert res.graph.degree(rung) == 2
    assert res.graph.neighbors(rung) == set(hubs)
    for i, hub in enumerate(hubs):
        assert res.graph.degree(hub) == (3 if cursors[i] >= 1 else 2)


# -- ladder and depth growth -----------------------------------------------------


def test_ladder_adds_rung_frozen():
    res = grow_ladder(h88(), [], 1, rng=None, forced="S")
    assert edges(res) == [
        (1, 2), (2, 5), (2, 17), (5, 8), (5, 18),
        (9, 10), (10, 13), (10, 17), (13, 16), (13, 18),
    ]
    assert res.ledger == CostLedger(8, 6, 2, 2)
    assert res.annotations == {
        "rails": [[1, 2, 5, 8], [9, 10, 13, 16]],
        "cursors": [2, 2],
        "rungs": [17, 18],
    }


def test_ladder_zero_rungs_is_identity():
    h = h88()
    assert grow_ladder(h, [], 0, rng=None) is h


def test_ladder_consumes_spares_frozen():
    res = grow_ladder(
        h88(), [chain(4, start=30), chain(4, start=40)], 2, rng=None, forced="S,S,S,S"
    )
    assert res.annotations["rails"] == [[1, 2, 5, 34, 33], [9, 10, 13, 44, 43]]
    assert res.annotations["rungs"] == [17, 18, 45]
    assert res.ledger == CostLedger(12, 11, 5, 5)


def test_ladder_exhausts_without_spares():
    with pytest.raises(ResourcesExhaustedError):
        grow_ladder(h66(), [], 1, rng=None, forced="S")


def test_ladder_rejects_negative_rung_count():
    with pytest.raises(ValueError, match="rung count must be non-negative"):
        grow_ladder(h88(), [], -1, rng=None)


def test_ladder_exhausts_when_failures_reach_the_last_rung():
    """A failed spare fusion can leave a rail ending at its last rung's hub,
    which must not be fused onto the next spare."""
    h = build_h_shape(chain(12, start=17), chain(12, start=29), forced="S")
    spares = [chain(8), chain(8, start=9)]
    with pytest.raises(ResourcesExhaustedError) as info:
        grow_ladder(h, spares, 2, rng=None, forced="F,F,S,S,F")
    partial = info.value.partial
    assert partial.annotations["rails"][1] == [29, 30, 33]
    assert partial.annotations["cursors"] == [2, 2]
    assert trace_ledger(partial.trace) == partial.ledger


def test_rewrites_build_no_neighbour_map_from_scratch(monkeypatch):
    """Only graphs made outside a rewrite, here the input chains, build
    their neighbour map from the edge set; every rewrite patches its
    parent's, so the count stays flat as trials and rungs grow."""
    builds = []
    build = GraphState._adj.func
    monkeypatch.setattr(GraphState._adj, "func", lambda g: builds.append(g) or build(g))

    def count(run) -> int:
        builds.clear()
        run()
        return len(builds)

    def ladder(rungs: int) -> None:
        n = 3 * rungs + 10
        h = build_h_shape(chain(n), chain(n, start=n + 1), forced="S")
        grow_ladder(h, [], rungs, forced=["S"] * rungs)

    assert count(lambda: run_recipe_trials(20, 0, chain_length=16)) == 2
    assert count(lambda: run_recipe_trials(200, 0, chain_length=16)) == 2
    assert count(lambda: ladder(3)) == 2
    assert count(lambda: ladder(30)) == 2


def test_builds_freeze_the_whole_graph_a_fixed_number_of_times(monkeypatch):
    """A recipe copies its working graph into an immutable graph only at
    its ends, so the count is the same for 3 rungs as for 300: one
    freeze per built result and one for the replay."""
    freezes = []
    freeze = _WorkingGraph.freeze
    monkeypatch.setattr(_WorkingGraph, "freeze", lambda w: freezes.append(len(w.vertices)) or freeze(w))

    def count(rungs: int) -> int:
        freezes.clear()
        n = 3 * rungs + 10
        h = build_h_shape(chain(n), chain(n, start=n + 1), forced="S")
        ladder = grow_ladder(h, [], rungs, forced=["S"] * rungs)
        assert replay(result_to_doc(ladder)) == ladder
        return len(freezes)

    assert count(3) == count(300) == 3


def test_depth_growth_frozen():
    res = grow_depth(h88(), chain(6, start=18), rng=None, forced="S")
    assert res.graph.neighbors(24) == {13, 19}
    assert res.annotations["rails"] == [
        [1, 2, 5, 6, 7, 8], [9, 10, 13, 16], [18, 19, 22, 23],
    ]
    assert res.annotations["cursors"] == [1, 2, 1]
    assert res.ledger == CostLedger(8, 6, 2, 2)


# -- joining double boxes ---------------------------------------------------------


def test_join_both_rungs_frozen():
    res = join_double_boxes(*double_boxes(), forced="S,S")
    assert res.graph.neighbors(15) == {3, 4, 10, 11}
    assert res.graph.neighbors(16) == {4, 5, 11, 12}
    assert res.ledger == CostLedger(0, 2, 2, 2)
    assert res.annotations == {"join_outcomes": ["S", "S"], "rungs": [15, 16]}


def test_join_second_rung_fails_frozen():
    res = join_double_boxes(*double_boxes(), forced="S,F")
    assert edges(res) == [
        (1, 3), (1, 4), (3, 15), (4, 6), (4, 15), (5, 6),
        (9, 10), (9, 11), (10, 15), (11, 14), (11, 15), (12, 14),
    ]
    assert res.ledger == CostLedger(4, 3, 2, 1)
    assert res.annotations == {"join_outcomes": ["S", "F"], "rungs": [15]}


def test_join_first_rung_fails_stops_early():
    res = join_double_boxes(*double_boxes(), forced="F")
    assert res.ledger == CostLedger(4, 2, 1, 0)
    assert res.annotations == {"join_outcomes": ["F"], "rungs": []}
    # both clusters survive as separate boxes-with-tails
    assert len(res.graph.connected_components()) == 2


def test_join_requires_double_box_annotations():
    plain = build_l_shape(chain(4))
    with pytest.raises((KeyError, ValueError)):
        join_double_boxes(plain, build_double_box(chain(7, start=8)), forced="S,S")


def test_close_second_rung_success_frozen():
    res = close_second_rung(join_double_boxes(*double_boxes(), forced="S,F"), forced="S")
    assert edges(res) == [
        (1, 3), (1, 4), (3, 15), (4, 15), (4, 16),
        (9, 10), (9, 11), (10, 15), (11, 15), (11, 16),
    ]
    assert res.frame == {4: "S", 11: "S", 16: "SS"}
    assert res.ledger == CostLedger(8, 6, 3, 2)
    assert res.annotations == {"close_outcomes": ["S"]}


def test_close_second_rung_retry_frozen():
    res = close_second_rung(join_double_boxes(*double_boxes(), forced="S,F"), forced="F,S")
    assert edges(res) == [
        (1, 3), (1, 4), (3, 15), (4, 15), (4, 16),
        (9, 10), (9, 11), (10, 15), (11, 15), (11, 16),
    ]
    assert res.frame == {}
    assert res.ledger == CostLedger(6, 6, 4, 2)
    assert res.annotations == {"close_outcomes": ["F", "S"]}


def test_close_second_rung_double_failure_leaves_double_box():
    res = close_second_rung(join_double_boxes(*double_boxes(), forced="S,F"), forced="F,F")
    assert res.ledger == CostLedger(8, 7, 4, 1)
    assert isomorphic(res.graph, build_double_box(chain(7)).graph) is not None


def test_salvage_success_recovers_double_box():
    remnant = join_double_boxes(*double_boxes(), forced="F")
    res = salvage_failed_join(remnant, forced="S")
    assert res.ledger == CostLedger(8, 7, 2, 1)
    assert res.annotations == {"salvage_outcome": "S"}
    assert isomorphic(res.graph, build_double_box(chain(7)).graph) is not None


def test_salvage_failure_frozen():
    res = salvage_failed_join(join_double_boxes(*double_boxes(), forced="F"), forced="F")
    assert res.ledger == CostLedger(8, 4, 2, 0)
    assert res.annotations == {"salvage_outcome": "F"}


def test_salvage_refuses_a_remnant_without_two_components():
    # a join that succeeded leaves one component: there is nothing to salvage
    joined = join_double_boxes(*double_boxes(), forced="S,S")
    assert len(joined.graph.connected_components()) == 1
    with pytest.raises(ValueError, match="expected exactly two remnant components"):
        salvage_failed_join(joined, forced="S")


# -- ring and rung cleanups -------------------------------------------------------


def test_ring8_success_frozen():
    res = build_ring8(chain(9), forced="S")
    assert edges(res) == [
        (1, 3), (1, 8), (2, 3), (2, 4), (2, 7),
        (3, 6), (4, 5), (5, 7), (6, 7), (6, 8),
    ]
    assert res.frame == {}
    assert res.ledger == CostLedger(0, 1, 1, 1)
    assert res.annotations == {"closed": True}
    assert lc_equivalent(res.graph, ring(8), up_to_isomorphism=True)


def test_ring8_failure_leaves_seven_chain():
    res = build_ring8(chain(9), forced="F")
    assert path_vertices(res.graph) == [2, 3, 4, 5, 6, 7, 8]
    assert res.ledger == CostLedger(2, 2, 1, 0)
    assert res.annotations == {"closed": False}


def test_nodeless_rung_frozen():
    h = h66()
    res = nodeless_rung(h.graph, h.annotations["rungs"][0])
    assert edges(res) == [
        (1, 2), (2, 5), (2, 8), (5, 6), (7, 8), (8, 11), (11, 12),
    ]
    assert res.frame == {2: "S", 8: "S"}
    assert res.ledger == CostLedger(2, 1, 0, 0)
    assert res.annotations == {"bonded": [2, 8]}


def test_nodeless_rung_needs_degree_two():
    with pytest.raises(ValueError, match="needs a degree-2 vertex"):
        nodeless_rung(chain(4), 1)


# -- traces, ledgers, serialization ------------------------------------------------


ZOO = {
    "l-shape": lambda: build_l_shape(chain(4)),
    "l-midchain": lambda: build_l_shape(chain(6, start=0), segment=(1, 2, 3, 4)),
    "cross": lambda: build_cross(chain(7)),
    "cross-extended": lambda: build_cross(chain(9, start=0), start=1),
    "double-box": lambda: build_double_box(chain(7)),
    "triple-box": lambda: build_triple_box(chain(10)),
    "h-success": h66,
    "h-retry": lambda: build_h_shape(chain(7), chain(7, start=8), forced="F,S"),
    "h-seeded": lambda: build_h_shape(chain(10), chain(10, start=11), rng=RngStream(11)),
    "ladder-rung": lambda: grow_ladder(h88(), [], 1, rng=None, forced="S"),
    "ladder-spares": lambda: grow_ladder(
        h88(), [chain(4, start=30), chain(4, start=40)], 2, rng=None, forced="S,S,S,S"
    ),
    "depth": lambda: grow_depth(h88(), chain(6, start=18), rng=None, forced="S"),
    "join-ss": lambda: join_double_boxes(*double_boxes(), forced="S,S"),
    "join-sf": lambda: join_double_boxes(*double_boxes(), forced="S,F"),
    "join-f": lambda: join_double_boxes(*double_boxes(), forced="F"),
    "close-s": lambda: close_second_rung(
        join_double_boxes(*double_boxes(), forced="S,F"), forced="S"
    ),
    "close-fs": lambda: close_second_rung(
        join_double_boxes(*double_boxes(), forced="S,F"), forced="F,S"
    ),
    "close-ff": lambda: close_second_rung(
        join_double_boxes(*double_boxes(), forced="S,F"), forced="F,F"
    ),
    "salvage-s": lambda: salvage_failed_join(
        join_double_boxes(*double_boxes(), forced="F"), forced="S"
    ),
    "salvage-f": lambda: salvage_failed_join(
        join_double_boxes(*double_boxes(), forced="F"), forced="F"
    ),
    "ring8-s": lambda: build_ring8(chain(9), forced="S"),
    "ring8-f": lambda: build_ring8(chain(9), forced="F"),
    "nodeless-rung": lambda: nodeless_rung(h66().graph, 13),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_recipe_physics_and_round_trips(name):
    """Dense + stabilizer replay of the trace, plus symbolic round trips."""
    res = ZOO[name]()
    assert_replays_exactly(res)
    assert trace_ledger(res.trace) == res.ledger
    again = result_from_doc(result_to_doc(res))
    assert result_to_json(again) == result_to_json(res)


def test_exhausted_partial_still_replays():
    try:
        build_h_shape(chain(4), chain(4, start=5), forced="F,F")
    except ResourcesExhaustedError as exc:
        partial = exc.partial
    assert_replays_exactly(partial)
    assert trace_ledger(partial.trace) == partial.ledger


def test_replay_detects_tampered_fusion():
    doc = result_to_doc(h66())
    for step in doc["trace"]:
        if step["op"] == "fuse":
            step["outcome"] = "F"
    with pytest.raises(ValueError, match="trace does not replay: fuse step mismatch"):
        replay(doc)


def test_replay_detects_tampered_measurement_bonds():
    doc = result_to_doc(h66())
    step = next(s for s in doc["trace"] if s["op"] == "measure_z")
    step["bonds"] += 1
    with pytest.raises(ValueError, match="trace does not replay: measure_z step mismatch"):
        replay(doc)


def test_result_from_doc_rejects_an_edited_ledger():
    doc = result_to_doc(h66())
    doc["ledger"]["fusion_attempts"] = 2
    with pytest.raises(ValueError, match="stored ledger does not match its trace"):
        result_from_doc(doc)


def _forced_pipeline(name, schedule, seed):
    """Run one recipe pipeline on a forced prefix, then seeded draws.

    Later stages get the tokens earlier stages did not consume; an
    exhausted stage ends the pipeline with its partial result.
    """
    rng = RngStream(seed)

    def rest(after):
        return schedule[after.ledger.fusion_attempts :]

    try:
        if name == "H":
            return build_h_shape(chain(8), chain(8, start=9), rng=rng, forced=schedule)
        if name == "ladder":
            spares = [chain(4, start=30), chain(4, start=40)]
            return grow_ladder(h88(), spares, 2, rng=rng, forced=schedule)
        if name == "depth":
            return grow_depth(h88(), chain(6, start=18), rng=rng, forced=schedule)
        if name == "ring8":
            return build_ring8(chain(9), rng=rng, forced=schedule)
        joined = join_double_boxes(*double_boxes(), rng=rng, forced=schedule)
        outcomes = joined.annotations["join_outcomes"]
        if outcomes == ["F"]:
            return salvage_failed_join(joined, rng=rng, forced=rest(joined))
        if outcomes == ["S", "F"]:
            return close_second_rung(joined, rng=rng, forced=rest(joined))
        return joined
    except ResourcesExhaustedError as exc:
        return exc.partial


@pytest.mark.parametrize("name", ["H", "ladder", "depth", "join", "ring8"])
@given(
    schedule=st.lists(st.sampled_from(["S", "F"]), max_size=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=30)
def test_forced_schedules_replay_exactly(name, schedule, seed):
    res = _forced_pipeline(name, schedule, seed)
    text = result_to_json(res)
    assert result_to_json(replay(json.loads(text))) == text
    assert trace_ledger(res.trace) == res.ledger
    assert_tableau_replay(res)


def _fold(result: RecipeResult) -> GraphState:
    """The result's graph rebuilt by folding its trace through the public
    rewrite functions on immutable graphs, one new graph per step."""
    g = result.initial
    for step in result.trace:
        op = step["op"]
        if op == "box":
            g = chain_to_box(g, tuple(step["segment"]))
        elif op in ("measure_z", "measure_y"):
            g = (measure_z if op == "measure_z" else measure_y)(g, step["vertex"])
        elif op == "fuse":
            g = type1_fuse(g, step["a"], step["b"], forced=step["outcome"],
                           allow_nonleaf=step["allow_nonleaf"])[0]
        elif op == "merge":
            g = merge_disjoint(g, graph_from_doc(step))
        elif op == "relabel":
            g = g.relabel({int(k): v for k, v in step["mapping"].items()})
        elif op == "drop_isolated":
            for v in step["vertices"]:
                g = measure_z(g, v)
        else:
            order = g.sorted_vertices()
            index = {v: i for i, v in enumerate(order)}
            t = tb.from_graph(g)
            for v in step["hadamards"]:
                t = t.apply("H", index[v])
            for a, b in step["swaps"]:
                t = t.apply("SWAP", index[a], index[b])
            g = tb.to_graph(t)[0].relabel(dict(enumerate(order)))
    return g


@pytest.mark.parametrize("name", ["H", "ladder", "depth", "join", "ring8"])
@given(
    schedule=st.lists(st.sampled_from(["S", "F"]), max_size=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=30)
def test_in_place_builds_equal_the_immutable_fold(name, schedule, seed):
    res = _forced_pipeline(name, schedule, seed)
    assert _fold(res) == res.graph
    assert res.graph._adj == GraphState(res.graph.vertices, res.graph.edges)._adj


# Input result -> a recipe that resumes a builder from it.
CONTINUATIONS = {
    "ladder": (h88, lambda h, **kw: grow_ladder(h, [chain(4, start=30), chain(4, start=40)], 2, **kw)),
    "depth": (h88, lambda h, **kw: grow_depth(h, chain(6, start=18), **kw)),
    "join": (lambda: double_boxes()[0],
             lambda x, **kw: join_double_boxes(x, double_boxes()[1], **kw)),
    "close": (lambda: join_double_boxes(*double_boxes(), forced="S,F"), close_second_rung),
    "salvage": (lambda: join_double_boxes(*double_boxes(), forced="F"), salvage_failed_join),
}


@pytest.mark.parametrize("name", sorted(CONTINUATIONS))
@given(
    schedule=st.lists(st.sampled_from(["S", "F"]), max_size=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=20)
def test_a_resumed_builder_never_changes_its_input(name, schedule, seed):
    make, go_on = CONTINUATIONS[name]
    source = make()
    text, adj = result_to_json(source), dict(source.graph._adj)
    runs = []
    for _ in range(2):
        try:
            res = go_on(source, rng=RngStream(seed), forced=schedule)
        except ResourcesExhaustedError as exc:
            res = exc.partial
        runs.append(result_to_json(res))
    assert runs[0] == runs[1]
    assert result_to_json(source) == text
    assert source.graph._adj == adj


def test_replay_recomputes_ledger():
    doc = result_to_doc(h66())
    doc["ledger"]["bonds_consumed"] = 77
    replayed = replay(doc)
    assert replayed.ledger.bonds_consumed == 4  # from the trace, not the claim
    assert result_to_json(replayed) != json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_replay_rejects_unknown_op():
    doc = result_to_doc(build_l_shape(chain(4)))
    doc["trace"].append({"op": "teleport"})
    with pytest.raises(ValueError, match="unknown trace op"):
        replay(doc)


def replayed(initial: GraphState, trace: list[dict]) -> RecipeResult:
    """A hand-made result: ``trace`` replayed from ``initial``.  Replay
    checks the stored graph, frame and ledger only for their types."""
    doc = {"name": "hand", "graph": graph_to_doc(initial), "frame": {}, "trace": trace,
           "ledger": CostLedger(0, 0, 0, 0).to_dict(), "initial": graph_to_doc(initial),
           "annotations": {}}
    return replay(doc)


def y_leaves(*leaves: int) -> list[dict]:
    return [{"op": "measure_y", "vertex": v, "bonds": 1} for v in leaves]


def test_corrections_that_compose_to_the_identity_leave_no_frame_entry():
    # each Y-measured leaf of the star leaves S on the centre, and S^4 = I
    assert replayed(star(5), y_leaves(2, 3)).frame == {1: "SS"}
    res = replayed(star(5), y_leaves(2, 3, 4, 5))
    assert res.frame == {}
    assert res.graph == GraphState([1])
    assert_replays_exactly(res)


@pytest.mark.parametrize("step", [
    {"op": "measure_z", "vertex": 1, "bonds": 3},
    {"op": "measure_y", "vertex": 1, "bonds": 3},
    {"op": "fuse", "a": 1, "b": 4, "outcome": "S", "merged": 6, "bonds": 0, "allow_nonleaf": True},
], ids=["measure_z", "measure_y", "fuse"])
def test_steps_refuse_a_vertex_that_carries_a_frame_correction(step):
    with pytest.raises(ValueError, match="vertex 1 carries a frame correction; absorb it first"):
        replayed(star(5), [*y_leaves(2), step])


def test_tableau_rewrite_refuses_a_frame():
    step = {"op": "tableau_rewrite", "hadamards": [], "swaps": []}
    assert replayed(star(5), [step]).graph == star(5)
    with pytest.raises(ValueError, match="tableau rewrite requires an empty frame"):
        replayed(star(5), [*y_leaves(2), step])


@pytest.mark.parametrize("build", [build_double_box, build_triple_box, build_cross])
def test_box_runs_check_their_chain_in_place(build):
    boxes = 3 if build is build_triple_box else 2
    n = 3 * boxes + 1
    with pytest.raises(ValueError, match=f"needs vertices 1..{n}"):
        build(chain(n - 1), start=1)
    gapped = GraphState(chain(n).vertices, chain(n).edges - {(3, 4)})
    with pytest.raises(ValueError, match="needs the chain edge 3-4"):
        build(gapped, start=1)


@pytest.mark.parametrize("grow", [
    lambda r: grow_ladder(r, [], 1, forced="S"),
    lambda r: grow_depth(r, chain(8, start=20), forced="S"),
], ids=["ladder", "depth"])
def test_growth_refuses_a_result_without_rails(grow):
    with pytest.raises(ValueError, match="does not carry rail annotations; build the H first"):
        grow(build_l_shape(chain(4)))


def test_ladder_drops_a_spare_that_a_failed_fusion_leaves_one_vertex():
    spares = [chain(2, start=30), chain(8, start=40), chain(8, start=50)]
    res = grow_ladder(h66(), spares, 1, forced="F,S,S,S")
    fusions = [(s["a"], s["b"], s["outcome"]) for s in res.trace if s["op"] == "fuse"]
    # vertex 31, left alone by the failure, is never fused
    assert fusions == [(4, 10, "S"), (6, 30, "F"), (5, 40, "S"), (12, 50, "S"), (42, 51, "S")]
    assert res.annotations["rungs"] == [13, 58]
    assert res.ledger == CostLedger(10, 10, 5, 4)


def test_close_second_rung_refuses_a_result_without_two_leaves():
    with pytest.raises(ValueError, match="does not look like a one-rung join remnant"):
        close_second_rung(build_double_box(chain(7)), forced="S")


@pytest.mark.parametrize("remnant, message", [
    (merge_disjoint(ring(4), ring(4, start=5)), "lacks a unique degree-3 hub"),
    (merge_disjoint(star(4), star(4, center=5)), "has no intact box cycle"),
], ids=["rings", "stars"])
def test_salvage_refuses_components_that_are_not_broken_boxes(remnant, message):
    with pytest.raises(ValueError, match=f"remnant component {message}"):
        salvage_failed_join(replayed(remnant, []), forced="S")


def test_result_json_is_canonical():
    text = result_to_json(build_l_shape(chain(4)))
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text
