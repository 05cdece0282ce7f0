"""clusterforge: build and verify photonic cluster-state shapes.

Linear chains are cheap to make; this package turns them into 2D
cluster shapes (boxes, L's, H's, crosses, ladders, rings) using free
local unitaries, Pauli-measurement rewrites, and probabilistic type-I
fusion, while accounting for the bonds each route consumes.  Every
graph-level rewrite can be cross-checked against a stabilizer tableau
and a dense statevector oracle.
"""

from .fusion import CostLedger, FusionOutcome, RngStream, merge_disjoint, type1_fuse
from .graphstate import (
    GraphState,
    chain,
    chain_to_box,
    isomorphic,
    lc_equivalent,
    local_complement,
    measure_y,
    measure_z,
    ring,
    star,
)
from .montecarlo import (
    PRESETS,
    CostModel,
    TrialStats,
    closed_form_expected_cost,
    run_recipe_trials,
    run_trials,
)
from .recipes import (
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
    replay,
    result_to_json,
    salvage_failed_join,
)
from .tableau import StabilizerTableau, canonical_equal, from_graph, to_graph

__all__ = [
    "GraphState",
    "chain",
    "ring",
    "star",
    "local_complement",
    "measure_z",
    "measure_y",
    "chain_to_box",
    "lc_equivalent",
    "isomorphic",
    "StabilizerTableau",
    "from_graph",
    "to_graph",
    "canonical_equal",
    "RngStream",
    "CostLedger",
    "FusionOutcome",
    "type1_fuse",
    "merge_disjoint",
    "RecipeResult",
    "ResourcesExhaustedError",
    "build_l_shape",
    "build_cross",
    "build_h_shape",
    "grow_ladder",
    "grow_depth",
    "build_double_box",
    "build_triple_box",
    "join_double_boxes",
    "close_second_rung",
    "salvage_failed_join",
    "build_ring8",
    "nodeless_rung",
    "replay",
    "result_to_json",
    "CostModel",
    "PRESETS",
    "TrialStats",
    "closed_form_expected_cost",
    "run_trials",
    "run_recipe_trials",
]

__version__ = "0.1.0"
