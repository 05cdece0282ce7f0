"""Graph container, rewrite moves, and equivalence searches."""

import json

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from clusterforge.fusion import merge_disjoint, type1_fuse
from clusterforge.graphstate import (
    _WorkingGraph,
    GraphState,
    OrbitLimitError,
    chain,
    chain_to_box,
    frame_from_doc,
    graph_from_doc,
    graph_to_doc,
    isomorphic,
    lc_equivalent,
    local_complement,
    measure_y,
    measure_z,
    path_vertices,
    ring,
    star,
    to_dot,
    to_json_doc,
    y_byproduct_frame,
)

BOX = GraphState(range(1, 5), [(1, 3), (2, 3), (2, 4), (1, 4)])


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    verts = list(range(1, n + 1))
    pairs = [(u, v) for u in verts for v in verts if u < v]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return GraphState(verts, edges)


# -- container basics --------------------------------------------------------


def test_constructor_normalizes_edges():
    g = GraphState([1, 2, 3], [(3, 1), (1, 2)])
    assert g.sorted_edges() == [(1, 2), (1, 3)]
    assert g.n == 3
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(2, 3)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError, match="self loop"):
        GraphState([1], [(1, 1)])
    with pytest.raises(ValueError, match="no such vertex"):
        GraphState([1, 2], [(1, 3)])


def test_neighbors_and_degree():
    g = star(4)
    assert g.neighbors(1) == {2, 3, 4}
    assert g.degree(1) == 3
    assert g.degree(2) == 1
    with pytest.raises(ValueError, match="no such vertex"):
        g.neighbors(9)


def test_vertex_edits():
    g = chain(3)
    assert g.with_edge(1, 3).has_edge(1, 3)


def test_relabel():
    g = chain(3).relabel({1: 10, 3: 30})
    assert g.sorted_edges() == [(2, 30), (10, 2)] or g.sorted_edges() == [
        (2, 10),
        (2, 30),
    ]
    with pytest.raises(ValueError, match="not injective"):
        chain(3).relabel({1: 2})


def test_components_and_isolated():
    g = GraphState([1, 2, 3, 4, 5], [(1, 2), (3, 4)])
    comps = {frozenset(c) for c in g.connected_components()}
    assert comps == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5})}
    assert g.isolated_vertices() == {5}


def test_builders():
    assert chain(4).sorted_edges() == [(1, 2), (2, 3), (3, 4)]
    assert chain(3, start=5).sorted_edges() == [(5, 6), (6, 7)]
    assert ring(4).sorted_edges() == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert star(4).sorted_edges() == [(1, 2), (1, 3), (1, 4)]
    with pytest.raises(ValueError):
        chain(0)
    with pytest.raises(ValueError):
        ring(2)
    with pytest.raises(ValueError):
        star(1)


# -- rewrite moves -----------------------------------------------------------


def test_local_complement_toggles_neighborhood():
    assert local_complement(chain(3), 2).sorted_edges() == [(1, 2), (1, 3), (2, 3)]


@given(graphs())
def test_local_complement_is_involutive(g):
    for v in g.sorted_vertices():
        assert local_complement(local_complement(g, v), v) == g


def test_measure_z_deletes_vertex():
    g = measure_z(chain(4), 2)
    assert g.sorted_edges() == [(3, 4)]
    assert g.vertices == {1, 3, 4}


def test_measure_y_complements_then_deletes():
    g = measure_y(chain(4), 2)
    assert g.sorted_edges() == [(1, 3), (3, 4)]
    # same thing step by step
    assert g == measure_z(local_complement(chain(4), 2), 2)


def test_y_byproduct_frame_marks_neighbors():
    assert y_byproduct_frame(chain(4), 2) == {1: "S", 3: "S"}
    assert y_byproduct_frame(star(4), 1) == {2: "S", 3: "S", 4: "S"}


def test_chain_to_box_edges_and_report():
    boxed = chain_to_box(chain(4), (1, 2, 3, 4))
    assert boxed == BOX
    assert len(boxed.edges) == len(chain(4).edges) + 1
    # ends may keep outside neighbors, middles may not
    long = chain_to_box(chain(6), (2, 3, 4, 5))
    assert long.sorted_edges() == [(1, 2), (2, 4), (2, 5), (3, 4), (3, 5), (5, 6)]


def test_chain_to_box_rejects_bad_segments():
    with pytest.raises(ValueError, match="must be distinct"):
        chain_to_box(chain(4), (1, 2, 3, 1))
    with pytest.raises(ValueError, match="not a path"):
        chain_to_box(chain(4), (1, 2, 4, 3))
    branched = GraphState([1, 2, 3, 4, 9], [(1, 2), (2, 3), (3, 4), (2, 9)])
    with pytest.raises(ValueError, match="no outside neighbors"):
        chain_to_box(branched, (1, 2, 3, 4))
    with pytest.raises(ValueError, match="chord present"):
        chain_to_box(ring(4), (1, 2, 3, 4))
    with pytest.raises(ValueError, match="no such vertex"):
        chain_to_box(chain(4), (1, 2, 3, 9))


# -- equivalence searches ----------------------------------------------------


def test_lc_equivalence_classes():
    assert lc_equivalent(chain(4), BOX)
    assert lc_equivalent(chain(3), star(3))
    assert not lc_equivalent(chain(4), star(4))
    assert not lc_equivalent(chain(4), ring(4))  # labels matter
    assert lc_equivalent(chain(4), ring(4), up_to_isomorphism=True)


@given(graphs(max_n=5))
def test_lc_move_stays_in_orbit(g):
    for v in list(g.vertices)[:2]:
        assert lc_equivalent(g, local_complement(g, v))


def test_lc_equivalence_size_cap():
    with pytest.raises(OrbitLimitError, match="orbit search limit exceeded"):
        lc_equivalent(chain(9), chain(9))


def test_isomorphic_finds_and_rejects():
    mapping = isomorphic(chain(4), chain(4, start=10))
    assert mapping is not None
    assert sorted(mapping) == [1, 2, 3, 4]
    relabeled = chain(4).relabel(mapping)
    assert relabeled == chain(4, start=10)
    assert isomorphic(chain(4), star(4)) is None
    assert isomorphic(chain(4), chain(5)) is None


def test_isomorphic_size_cap():
    with pytest.raises(OrbitLimitError, match="orbit search limit exceeded"):
        isomorphic(chain(13), chain(13))


def test_path_vertices():
    assert path_vertices(chain(5)) == [1, 2, 3, 4, 5]
    assert path_vertices(GraphState([7], [])) == [7]
    with pytest.raises(ValueError, match="not a path"):
        path_vertices(star(4))
    with pytest.raises(ValueError, match="not a path"):
        path_vertices(GraphState([1, 2, 3], [(1, 2)]))  # disconnected
    with pytest.raises(ValueError, match="empty graph"):
        path_vertices(GraphState())


# -- the neighbour map rewrites carry ------------------------------------------


def _box_segments(g):
    """Every 4-vertex chain segment chain_to_box accepts, in a fixed order."""
    segments = []
    for q2 in g.sorted_vertices():
        for q3 in sorted(g.neighbors(q2)):
            if g.degree(q2) != 2 or g.degree(q3) != 2:
                continue
            (q1,) = g.neighbors(q2) - {q3}
            (q4,) = g.neighbors(q3) - {q2}
            if len({q1, q2, q3, q4}) == 4 and not (
                g.has_edge(q1, q4) or g.has_edge(q1, q3) or g.has_edge(q2, q4)
            ):
                segments.append((q1, q2, q3, q4))
    return segments


def _fusion_pairs(g, leaves_only):
    return [
        (a, b)
        for a in g.sorted_vertices()
        for b in g.sorted_vertices()
        if a < b and not g.has_edge(a, b)
        and (not leaves_only or (g.degree(a) <= 1 and g.degree(b) <= 1))
    ]


def _rewrite(g, op, i, j, target=None):
    """Apply rewrite ``op`` to target (g by default), with i and j choosing
    where in g; None if it has no target."""
    target = g if target is None else target
    verts = g.sorted_vertices()
    if op == "merge":
        return merge_disjoint(target, chain(1 + i % 5, start=max(verts, default=0) + 1))
    if not verts:
        return None
    v = verts[i % len(verts)]
    if op == "lc":
        return local_complement(target, v)
    if op == "z":
        return measure_z(target, v)
    if op == "y":
        return measure_y(target, v)
    if op == "relabel":
        return target.relabel({u: u + max(verts) + j for u in verts[i % len(verts) :]})
    targets = _box_segments(g) if op == "box" else _fusion_pairs(g, op == "fuse")
    if not targets:
        return None
    if op == "box":
        return chain_to_box(target, targets[i % len(targets)])
    a, b = targets[i % len(targets)]
    return type1_fuse(target, a, b, forced="SF"[j % 2], allow_nonleaf=op == "fuse_nonleaf")[0]


REWRITES = st.tuples(
    st.sampled_from(["lc", "z", "y", "box", "fuse", "fuse_nonleaf", "merge", "relabel"]),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=3),
)


@seed(9)
@given(
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=4, max_value=9),
    st.lists(REWRITES, max_size=14),
)
def test_rewrites_carry_the_neighbour_map_exactly(n1, n2, program):
    first = chain(n1)
    walked = path_vertices(first)
    walked.remove(walked[1])
    assert path_vertices(first) == list(range(1, n1 + 1))
    g = merge_disjoint(first, chain(n2, start=n1 + 1))
    for op, i, j in program:
        g = _rewrite(g, op, i, j) or g
        assert g._adj == GraphState(g.vertices, g.edges)._adj, op
        assert all(u < v for u, v in g.edges), op


@seed(9)
@given(
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=4, max_value=9),
    st.lists(REWRITES.filter(lambda r: r[0] != "relabel"), max_size=14),
)
def test_the_working_graph_is_edited_as_the_immutable_rules_rewrite(n1, n2, program):
    """Every rule applied in place to a working graph gives the graph it
    returns for a GraphState, and the next fused id stays max + 1 when
    the largest vertex is measured away."""
    g = first = merge_disjoint(chain(n1), chain(n2, start=n1 + 1))
    work = _WorkingGraph(g)
    before = (g.vertices, g.edges, dict(g._adj))
    for op, i, j in program:
        out = _rewrite(g, op, i, j, target=work)
        if out is None:
            continue
        assert out is work, op
        g = _rewrite(g, op, i, j)
        assert work.freeze() == g, op
        if g.vertices:
            assert work._fresh() == g._fresh(), op
    frozen = work.freeze()
    assert frozen._adj == GraphState(frozen.vertices, frozen.edges)._adj
    assert (first.vertices, first.edges, first._adj) == before


# -- serialization -----------------------------------------------------------


def decode(text):
    doc = json.loads(text)
    g = graph_from_doc(doc)
    return g, frame_from_doc(g, doc["frame"])


def test_json_round_trip():
    doc = to_json_doc(chain(3), {2: "S"})
    assert json.loads(doc) == {
        "vertices": [1, 2, 3],
        "edges": [[1, 2], [2, 3]],
        "frame": {"2": "S"},
    }
    g, frame = decode(doc)
    assert g == chain(3)
    assert frame == {2: "S"}


@given(graphs())
def test_json_round_trip_property(g):
    g2, frame = decode(to_json_doc(g))
    assert g2 == g
    assert frame == {}


def test_graph_doc_round_trip_and_validation():
    doc = graph_to_doc(BOX)
    assert doc == {"vertices": [1, 2, 3, 4], "edges": [[1, 3], [1, 4], [2, 3], [2, 4]]}
    assert graph_from_doc(doc) == BOX
    with pytest.raises(ValueError, match="dangles"):
        graph_from_doc({"vertices": [1], "edges": [[1, 2]]})
    with pytest.raises(ValueError, match="self loop"):
        graph_from_doc({"vertices": [1], "edges": [[1, 1]]})


def test_json_rejects_bad_frames():
    with pytest.raises(ValueError, match="unknown Clifford label"):
        decode(json.dumps({"vertices": [1], "edges": [], "frame": {"1": "Q"}}))
    with pytest.raises(ValueError, match="no such vertex: frame entry 7"):
        decode(json.dumps({"vertices": [1], "edges": [], "frame": {"7": "S"}}))
    with pytest.raises(ValueError, match="no such vertex: frame entry 9"):
        to_json_doc(chain(2), {9: "S"})


def test_dot_output():
    assert to_dot(chain(3)) == (
        "graph clusterstate {\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        "  1 -- 2;\n"
        "  2 -- 3;\n"
        "}\n"
    )
