"""Fusion primitive, cost ledger, and the seeded RNG."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterforge.fusion import (
    CostLedger,
    FusionOutcome,
    RngStream,
    merge_disjoint,
    step_cost,
    type1_fuse,
)
from clusterforge.graphstate import GraphState, chain, star


# -- RngStream ----------------------------------------------------------------


def test_rng_is_deterministic_and_platform_fixed():
    r = RngStream(12345)
    first = [r.next_u64() for _ in range(3)]
    assert first == [RngStream(12345).next_u64() for _ in range(1)] + first[1:]
    # frozen values pin the algorithm, not just self-consistency
    assert RngStream(0).next_u64() == 16294208416658607535
    assert RngStream(1).next_u64() != RngStream(0).next_u64()


def test_rng_floats_and_bools():
    r = RngStream(7)
    f = 0.0
    for _ in range(100):
        f = r.next_float()
        assert 0.0 <= f < 1.0
    assert RngStream(7, counter=99).next_float() == f
    always = RngStream(3)
    assert all(always.next_bool(1.0) for _ in range(20))
    never = RngStream(3)
    assert not any(never.next_bool(0.0) for _ in range(20))


def test_rng_counter_restart():
    r = RngStream(99)
    skip = [r.next_u64() for _ in range(5)]
    resumed = RngStream(99, counter=3)
    assert resumed.next_u64() == skip[3]


def test_substreams_are_independent_of_parent_position():
    parent = RngStream(5)
    child_before = parent.substream(2)
    parent.next_u64()
    parent.next_u64()
    child_after = parent.substream(2)
    assert child_before.next_u64() == child_after.next_u64()
    assert parent.substream(0).next_u64() != parent.substream(1).next_u64()
    with pytest.raises(ValueError, match="non-negative"):
        parent.substream(-1)


def test_bool_frequency_is_sane():
    r = RngStream(2024)
    heads = sum(r.next_bool() for _ in range(10000))
    assert 4700 < heads < 5300


# -- CostLedger ----------------------------------------------------------------


def test_ledger_addition_and_dict_round_trip():
    a = CostLedger(1, 2, 3, 4)
    b = CostLedger(10, 20, 30, 40)
    assert a + b == CostLedger(11, 22, 33, 44)
    assert CostLedger() + a == a
    assert CostLedger(**a.to_dict()) == a


@given(st.lists(st.tuples(*[st.integers(0, 50)] * 4), max_size=6))
def test_ledger_sum_is_componentwise(parts):
    ledgers = [CostLedger(*p) for p in parts]
    total = sum(ledgers, CostLedger())
    for i, name in enumerate(
        ("bonds_consumed", "qubits_consumed", "fusion_attempts", "fusion_successes")
    ):
        assert getattr(total, name) == sum(p[i] for p in parts)


def test_fusion_outcome_consistency():
    with pytest.raises(ValueError, match="must name the merged vertex"):
        FusionOutcome(True)
    with pytest.raises(ValueError, match="cannot name a merged vertex"):
        FusionOutcome(False, merged=7)


def test_step_cost_per_op():
    assert step_cost({"op": "measure_z", "vertex": 2, "bonds": 3}) == CostLedger(3, 1)
    assert step_cost({"op": "measure_y", "vertex": 2, "bonds": 2}) == CostLedger(2, 1)
    assert step_cost({"op": "fuse", "outcome": "S", "bonds": 0}) == CostLedger(0, 1, 1, 1)
    assert step_cost({"op": "fuse", "outcome": "F", "bonds": 4}) == CostLedger(4, 2, 1, 0)
    assert step_cost({"op": "drop_isolated", "vertices": [5, 9]}) == CostLedger(0, 2)
    for op in ("box", "merge", "relabel", "tableau_rewrite"):
        assert step_cost({"op": op}) == CostLedger()


# -- type-I fusion --------------------------------------------------------------


def two_chains():
    return merge_disjoint(chain(3), chain(3, start=4))


def test_fusion_success_merges_leaves():
    g, outcome, delta = type1_fuse(two_chains(), 3, 4, forced="S")
    assert outcome.success and outcome.merged == 7
    assert g.sorted_edges() == [(1, 2), (2, 7), (5, 6), (5, 7)]
    assert delta == CostLedger(qubits_consumed=1, fusion_attempts=1, fusion_successes=1)


def test_fusion_failure_cuts_both_ends():
    g, outcome, delta = type1_fuse(two_chains(), 3, 4, forced="F")
    assert not outcome.success and outcome.merged is None
    assert g.sorted_edges() == [(1, 2), (5, 6)]
    assert delta == CostLedger(bonds_consumed=2, qubits_consumed=2, fusion_attempts=1)


def test_fusion_forced_outcome_is_s_or_f():
    for forced in ("X", True, False):
        with pytest.raises(ValueError, match="forced outcome must be 'S' or 'F'"):
            type1_fuse(two_chains(), 3, 4, forced=forced)


def test_fusion_needs_entropy_or_force():
    with pytest.raises(ValueError, match="fusion needs an rng or a forced outcome"):
        type1_fuse(two_chains(), 3, 4)


def test_fusion_draws_once_even_when_forced():
    # forced attempts still consume one draw, keeping traces aligned
    rng = RngStream(8)
    type1_fuse(two_chains(), 3, 4, rng=rng, forced="S")
    assert rng.counter == 1
    rng_free = RngStream(8)
    g, outcome, _ = type1_fuse(two_chains(), 3, 4, rng=rng_free)
    assert rng_free.counter == 1
    assert outcome.success == RngStream(8).next_bool()


def test_fusion_rng_statistics():
    rng = RngStream(31)
    wins = 0
    for _ in range(2000):
        _, outcome, _ = type1_fuse(two_chains(), 3, 4, rng=rng)
        wins += outcome.success
    assert 900 < wins < 1100


def test_fusion_target_validation():
    g = two_chains()
    with pytest.raises(ValueError, match="cannot fuse a vertex with itself"):
        type1_fuse(g, 3, 3, forced="S")
    with pytest.raises(ValueError, match="vertices are adjacent"):
        type1_fuse(g, 1, 2, forced="S")
    with pytest.raises(ValueError, match="unsupported fusion target: degree > 1"):
        type1_fuse(g, 2, 4, forced="S")
    with pytest.raises(ValueError, match="no such vertex"):
        type1_fuse(g, 3, 99, forced="S")


def test_fusion_nonleaf_rule():
    # degree-2 targets need the explicit opt in; neighborhoods then XOR
    g = merge_disjoint(chain(3), chain(3, start=4))
    merged, outcome, _ = type1_fuse(g, 2, 5, forced="S", allow_nonleaf=True)
    assert outcome.merged == 7
    assert merged.neighbors(7) == {1, 3, 4, 6}
    failed, _, delta = type1_fuse(g, 2, 5, forced="F", allow_nonleaf=True)
    assert failed.sorted_edges() == []
    assert delta.bonds_consumed == 4


def test_fusion_success_neighborhood_is_symmetric_difference():
    # overlapping neighborhoods cancel: both stars share no vertices here,
    # but a shared neighbor after relabeling would drop out
    g = GraphState([1, 2, 3, 4, 9], [(1, 2), (1, 3), (1, 4)])
    out, outcome, _ = type1_fuse(g, 9, 2, forced="S")
    assert out.neighbors(outcome.merged) == {1}


def test_merge_disjoint_rejects_overlap():
    with pytest.raises(ValueError, match=r"vertex sets overlap: \[2, 3\]"):
        merge_disjoint(chain(3), chain(3, start=2))
    g = merge_disjoint(star(3), chain(2, start=10))
    assert g.n == 5
