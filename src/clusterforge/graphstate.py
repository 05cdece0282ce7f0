"""Graph states and the rewrite moves used to sculpt cluster shapes.

A graph state on vertices V with edge set E is stabilized by
K_v = X_v prod_{u in N(v)} Z_u.  Everything here treats the state purely
combinatorially: local complementation, Pauli-measurement vertex
deletions, and the chain-to-box rewrite (Hadamards on the two middle
qubits of a 4-segment, which in effect exchanges their labels and adds
a bond between the segment ends).  Measurement outputs are normalized
to the +1 branch
so results are canonical graphs; residual single-qubit corrections are
reported separately where they arise (see :func:`y_byproduct_frame`).

Vertices are small non-negative integers.  Edges are stored as (u, v)
tuples with u < v.

Each rewrite rule reads its graph through a few queries and changes it
through one toggle kernel, ``_rewired``: a :class:`GraphState` comes back
as a new graph, while the private working graph a recipe holds is edited
in place in O(degree) and returned.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from . import cliffords

__all__ = [
    "GraphState",
    "chain",
    "ring",
    "star",
    "local_complement",
    "measure_z",
    "measure_y",
    "y_byproduct_frame",
    "chain_to_box",
    "lc_equivalent",
    "isomorphic",
    "path_vertices",
    "graph_to_doc",
    "graph_from_doc",
    "frame_to_doc",
    "frame_from_doc",
    "to_json_doc",
    "to_dot",
    "OrbitLimitError",
]

LC_ORBIT_VERTEX_LIMIT = 8
ISOMORPHISM_VERTEX_LIMIT = 12


class OrbitLimitError(ValueError):
    """Raised when an equivalence search exceeds its size cap."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self loop on vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphState:
    """Immutable graph underlying a stabilizer graph state."""

    vertices: frozenset[int] = field(default_factory=frozenset)
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        verts = frozenset(self.vertices)
        edges = frozenset(_norm_edge(u, v) for u, v in self.edges)
        for u, v in edges:
            if u not in verts or v not in verts:
                raise ValueError(f"no such vertex: edge ({u}, {v}) dangles")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(
        cls, vertices: frozenset[int], edges: frozenset[tuple[int, int]], adj: dict | None = None
    ) -> "GraphState":
        """Skip re-validation for sets that are canonical by construction.

        Internal fast path for rewrite loops; both sets must already be
        normalized frozensets with every edge endpoint present in
        ``vertices``, and ``adj``, when given, their neighbour map.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        if adj is not None:
            object.__setattr__(self, "_adj", adj)
        return self

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    @cached_property
    def _adj(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: frozenset(ns) for v, ns in nbrs.items()}

    @cached_property
    def _path(self) -> tuple[int, ...]:
        if self.n == 0:
            raise ValueError("empty graph is not a path")
        if self.n == 1:
            return tuple(self.vertices)
        ends = sorted(v for v in self.vertices if self.degree(v) == 1)
        if len(ends) != 2 or any(self.degree(v) > 2 for v in self.vertices):
            raise ValueError("graph is not a path")
        order = [ends[0]]
        prev = None
        cur = ends[0]
        while len(order) < self.n:
            nxt = [u for u in self.neighbors(cur) if u != prev]
            if len(nxt) != 1:
                raise ValueError("graph is not a path")
            prev, cur = cur, nxt[0]
            order.append(cur)
        return tuple(order)

    def neighbors(self, v: int) -> frozenset[int]:
        self._require(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def _require(self, *vs: int) -> None:
        for v in vs:
            if v not in self.vertices:
                raise ValueError(f"no such vertex: {v}")

    # -- pure structural edits (no cost semantics) -----------------------

    def _rewired(self, pairs, *, add=None, drop=()) -> "GraphState":
        """:meth:`_WorkingGraph._rewired` on a thawed copy, frozen again."""
        return _WorkingGraph(self)._rewired(pairs, add=add, drop=drop).freeze()

    def _fresh(self) -> int:
        """The id a successful fusion gives its merged vertex."""
        return max(self.vertices) + 1

    def _merged(self, other: "GraphState") -> "GraphState":
        vertices, edges = self.vertices | other.vertices, self.edges | other.edges
        return GraphState._trusted(vertices, edges, {**self._adj, **other._adj})

    def with_edge(self, u: int, v: int) -> "GraphState":
        self._require(u, v)
        return GraphState._trusted(self.vertices, self.edges | {_norm_edge(u, v)})

    def relabel(self, mapping: Mapping[int, int]) -> "GraphState":
        """Rename vertices; ``mapping`` may be partial but must stay injective."""
        full = {v: mapping.get(v, v) for v in self.vertices}
        if len(set(full.values())) != len(full):
            raise ValueError("relabeling is not injective")
        return GraphState._trusted(
            frozenset(full.values()),
            frozenset(_norm_edge(full[u], full[v]) for u, v in self.edges),
        )

    def isolated_vertices(self) -> frozenset[int]:
        touched = {v for e in self.edges for v in e}
        return self.vertices - touched

    def connected_components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for start in self.sorted_vertices():
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for nb in self.neighbors(cur):
                    if nb not in comp:
                        comp.add(nb)
                        queue.append(nb)
            seen |= comp
            comps.append(frozenset(comp))
        return comps


class _WorkingGraph:
    """GraphState's vertices, edges and neighbour map in mutable containers.

    An edit replaces the neighbour frozensets it touches, so none handed
    out ever changes.  Thawing (the constructor) and :meth:`freeze` copy
    the three containers in O(|V| + |E|)."""

    __slots__ = ("vertices", "edges", "_adj", "_tops")

    def __init__(self, g: GraphState):
        self.vertices = set(g.vertices)
        self.edges = set(g.edges)
        self._adj = dict(g._adj)
        self._tops: list[int] | None = None  # see _fresh

    # The queries the rewrite rules read, as GraphState answers them.
    has_edge = GraphState.has_edge
    neighbors = GraphState.neighbors
    degree = GraphState.degree
    _require = GraphState._require

    def freeze(self) -> GraphState:
        return GraphState._trusted(frozenset(self.vertices), frozenset(self.edges), dict(self._adj))

    def _fresh(self) -> int:
        """``max(vertices) + 1`` from a heap of negated ids, built on first
        use; ids dropped since stay in it until they reach the top."""
        tops = self._tops
        if tops is None:
            tops = self._tops = [-v for v in self.vertices]
            heapify(tops)
        while -tops[0] not in self.vertices:
            heappop(tops)
        return 1 - tops[0]

    def _rewired(self, pairs: Iterable[tuple[int, int]], *, add: int | None = None,
                 drop: tuple = ()) -> "_WorkingGraph":
        """Toggle the edge of every pair in place, after adding the vertex
        ``add`` and before removing the vertices ``drop``, which the pairs
        must leave isolated.  Callers check the pairs: distinct edges, each
        joining two vertices of the graph or ``add``.
        """
        adj, edges = self._adj, self.edges
        if add is not None:
            self.vertices.add(add)
            adj[add] = frozenset()
            if self._tops is not None:
                heappush(self._tops, -add)
        for u, v in pairs:
            edges ^= {(u, v) if u < v else (v, u)}
            adj[u] ^= {v}
            adj[v] ^= {u}
        for v in drop:
            del adj[v]
        self.vertices.difference_update(drop)
        return self

    def _merged(self, other: GraphState) -> "_WorkingGraph":
        """Add a graph on disjoint vertices (the caller checks) in place."""
        self.vertices |= other.vertices
        self.edges |= other.edges
        self._adj.update(other._adj)
        if self._tops is not None:
            for v in other.vertices:
                heappush(self._tops, -v)
        return self


# -- constructors ---------------------------------------------------------


def chain(n: int, start: int = 1) -> GraphState:
    """Linear cluster on vertices start..start+n-1."""
    if n < 1:
        raise ValueError("chain needs at least one vertex")
    vs = range(start, start + n)
    return GraphState._trusted(
        frozenset(vs),
        frozenset((i, i + 1) for i in range(start, start + n - 1)),
    )


def ring(n: int, start: int = 1) -> GraphState:
    if n < 3:
        raise ValueError("ring needs at least three vertices")
    g = chain(n, start)
    return g.with_edge(start, start + n - 1)


def star(n: int, center: int = 1) -> GraphState:
    """Star on n vertices: center plus n-1 leaves with consecutive ids."""
    if n < 2:
        raise ValueError("star needs at least two vertices")
    vs = range(center, center + n)
    return GraphState(
        frozenset(vs),
        frozenset((center, v) for v in range(center + 1, center + n)),
    )


# -- rewrite moves --------------------------------------------------------


def local_complement(g: GraphState, v: int) -> GraphState:
    """Toggle every edge between neighbors of v (a local Clifford move)."""
    nbrs = sorted(g.neighbors(v))
    return g._rewired([(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]])


def measure_z(g: GraphState, v: int) -> GraphState:
    """Computational-basis measurement: delete v and its bonds.

    The +1 outcome branch is taken, so no byproduct corrections remain
    on the neighbors.
    """
    return g._rewired([(v, u) for u in g.neighbors(v)], drop=(v,))


def measure_y(g: GraphState, v: int) -> GraphState:
    """Y-basis measurement: locally complement at v, then delete v.

    The +1 branch is taken.  The resulting state carries an S correction
    on every former neighbor of v; callers who need the exact state can
    fetch it from :func:`y_byproduct_frame` before measuring.
    """
    return local_complement(g, v)._rewired([(v, u) for u in g.neighbors(v)], drop=(v,))


def y_byproduct_frame(g: GraphState, v: int) -> dict[int, str]:
    """Corrections left by measure_y(g, v) on the +1 branch.

    The post-measurement state is ``prod_b S_b`` applied to the graph
    state of the rewritten graph, with b ranging over the neighbors of v
    at measurement time.  Checked against the dense oracle in the tests.
    """
    return {b: "S" for b in sorted(g.neighbors(v))}


def chain_to_box(g: GraphState, segment: tuple[int, int, int, int]) -> GraphState:
    """Rewrite an embedded 4-vertex chain segment into a box.

    Hadamards on the two middle qubits map the path q1-q2-q3-q4 exactly
    onto the 4-cycle {q1-q3, q2-q3, q2-q4, q1-q4}, which reads as the
    old chain with q2 and q3 exchanged plus one new bond q1-q4, gained
    for free.  No residual correction remains; the identity is checked
    sign-exactly against both engines in the tests.  The middle qubits
    must have no neighbors outside the segment and no chord may be
    present; q1 and q4 may connect to anything else, which is what lets
    the rewrite run in the middle of a longer chain.
    """
    if len(segment) != 4 or len(set(segment)) != 4:
        raise ValueError("invalid box segment: needs four vertices, which must be distinct")
    q1, q2, q3, q4 = segment
    g._require(q1, q2, q3, q4)
    n2, n3 = g.neighbors(q2), g.neighbors(q3)
    if not (q1 in n2 and q3 in n2 and q4 in n3):
        raise ValueError("invalid box segment: not a path")
    if n2 != {q1, q3} or n3 != {q2, q4}:
        raise ValueError(
            "invalid box segment: middle qubits must have no outside neighbors"
        )
    # The chords q1-q3 and q2-q4 would be outside neighbors of q3 and q2.
    if g.has_edge(q1, q4):
        raise ValueError("invalid box segment: chord present")
    # q2-q3 stays; the other two path bonds go and three new ones come.
    return g._rewired([(q1, q2), (q3, q4), (q1, q3), (q2, q4), (q1, q4)])


# -- equivalence checks ---------------------------------------------------


def lc_equivalent(
    g1: GraphState, g2: GraphState, *, up_to_isomorphism: bool = False
) -> bool:
    """Breadth-first search of the local-complementation orbit of g1.

    With the default labeling-sensitive mode, g2 must appear in the
    orbit with identical vertex names.  With ``up_to_isomorphism`` the
    orbit members are compared to g2 by graph isomorphism instead.
    Capped at 8 vertices to keep the enumeration bounded.
    """
    if g1.n > LC_ORBIT_VERTEX_LIMIT or g2.n > LC_ORBIT_VERTEX_LIMIT:
        raise OrbitLimitError(
            f"orbit search limit exceeded: {LC_ORBIT_VERTEX_LIMIT} vertices"
        )
    if g1.n != g2.n:
        return False
    if not up_to_isomorphism and g1.vertices != g2.vertices:
        return False

    def matches(g: GraphState) -> bool:
        if up_to_isomorphism:
            return isomorphic(g, g2) is not None
        return g.edges == g2.edges

    seen = {g1.edges}
    queue = deque([g1])
    while queue:
        cur = queue.popleft()
        if matches(cur):
            return True
        for v in cur.sorted_vertices():
            nxt = local_complement(cur, v)
            if nxt.edges not in seen:
                seen.add(nxt.edges)
                queue.append(nxt)
    return False


def isomorphic(g1: GraphState, g2: GraphState) -> dict[int, int] | None:
    """Backtracking graph-isomorphism search; returns a bijection or None."""
    if g1.n > ISOMORPHISM_VERTEX_LIMIT or g2.n > ISOMORPHISM_VERTEX_LIMIT:
        raise OrbitLimitError(
            f"orbit search limit exceeded: {ISOMORPHISM_VERTEX_LIMIT} vertices"
        )
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    deg1 = {v: g1.degree(v) for v in g1.vertices}
    deg2 = {v: g2.degree(v) for v in g2.vertices}
    if sorted(deg1.values()) != sorted(deg2.values()):
        return None

    # Assign high-degree vertices first; they constrain the search most.
    order = sorted(g1.vertices, key=lambda v: (-deg1[v], v))
    candidates = {
        v: [w for w in g2.sorted_vertices() if deg2[w] == deg1[v]] for v in order
    }
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u in mapping:
                if g1.has_edge(v, u) != g2.has_edge(w, mapping[u]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(idx + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return dict(mapping) if extend(0) else None


def path_vertices(g: GraphState) -> list[int]:
    """Vertex order of a path graph, walking from its smaller-id endpoint.

    Raises if g is not a single path.  The walk is made once per graph;
    each call returns a fresh list the caller may change.
    """
    return list(g._path)


# -- serialization --------------------------------------------------------


def graph_to_doc(g: GraphState) -> dict:
    """The graph document: ascending vertices, edges sorted with u < v."""
    return {
        "vertices": g.sorted_vertices(),
        "edges": [list(e) for e in g.sorted_edges()],
    }


def graph_from_doc(doc: Mapping) -> GraphState:
    """Inverse of :func:`graph_to_doc`; dangling edges and self loops raise."""
    return GraphState(doc["vertices"], doc["edges"])


def frame_to_doc(g: GraphState, frame: Mapping[int, str]) -> dict[str, str]:
    """Frame document of g: vertex keys as strings, ascending numerically."""
    for v in frame:
        if v not in g.vertices:
            raise ValueError(f"no such vertex: frame entry {v}")
    return {str(v): frame[v] for v in sorted(frame)}


def frame_from_doc(g: GraphState, doc: Mapping[str, str]) -> dict[int, str]:
    """Inverse of :func:`frame_to_doc`; every key must be a vertex of g and
    every label one of the 24 Clifford labels."""
    frame: dict[int, str] = {}
    for key, label in doc.items():
        v = int(key)
        if v not in g.vertices:
            raise ValueError(f"no such vertex: frame entry {v}")
        if label not in cliffords.BY_LABEL:
            raise ValueError(f"unknown Clifford label: {label!r}")
        frame[v] = label
    return frame


def to_json_doc(g: GraphState, frame: Mapping[int, str] | None = None) -> str:
    """Canonical single-line JSON for a graph plus its local frame.

    Byte-stable for a given input.
    """
    doc = graph_to_doc(g)
    doc["frame"] = frame_to_doc(g, frame or {})
    return json.dumps(doc, separators=(",", ":"))


def to_dot(g: GraphState) -> str:
    """Deterministic DOT rendering with vertex ids as node labels."""
    lines = ["graph clusterstate {"]
    for v in g.sorted_vertices():
        lines.append(f"  {v};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
