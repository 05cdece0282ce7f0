"""Edited build documents at the CLI boundary.

``export`` and ``replay`` read documents users may have edited by hand.
Every such document either works or makes the verb exit 1 with one line
on standard error: never a traceback, never a second line.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import recipes
from clusterforge.recipes import replay, result_from_doc
from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
BUILDS = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN.glob("build-*.out"))]


def stored(doc, path: Path) -> str:
    """``doc`` written to ``path``, as the argument a verb reads it from."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


# -- field types the decoders used to coerce -------------------------------------


def _step(doc, op):
    return next(step for step in doc["trace"] if step["op"] == op)


def _float_vertices(doc):
    doc["graph"]["vertices"] = [float(v) for v in doc["graph"]["vertices"]]


def _float_edge_end(doc):
    doc["graph"]["edges"][0][0] += 0.0


def _float_ledger_count(doc):
    doc["ledger"]["fusion_attempts"] += 0.5


def _string_ledger_count(doc):
    doc["ledger"]["bonds_consumed"] = str(doc["ledger"]["bonds_consumed"])


def _string_allow_nonleaf(doc):
    for step in doc["trace"]:
        if step["op"] == "fuse":
            step["allow_nonleaf"] = "x"


def _float_measured_vertex(doc):
    # 3.0 hashes and compares like 3, so every rewrite would accept it.
    _step(doc, "measure_z")["vertex"] += 0.0


def _float_segment_entry(doc):
    _step(doc, "box")["segment"][2] += 0.0


def _float_fuse_target(doc):
    _step(doc, "fuse")["a"] += 0.0


def _float_hadamard(doc):
    _step(doc, "tableau_rewrite")["hadamards"][1] += 0.0


def _float_swap(doc):
    _step(doc, "tableau_rewrite")["swaps"][0][1] += 0.0


def _three_vertex_swap(doc):
    _step(doc, "tableau_rewrite")["swaps"][0].append(2)


def _integer_name(doc):
    doc["name"] = 5


def _list_annotations(doc):
    doc["annotations"] = [1]


def _list_step(doc):
    doc["trace"][0] = list(doc["trace"][0].items())


def _string_trace(doc):
    doc["trace"] = "box"


def _object_trace(doc):
    doc["trace"] = {str(i): step for i, step in enumerate(doc["trace"])}


# (build, edit, the field the one stderr line names)
MISTYPED = [
    ("H-seeded", _float_vertices, "graph vertices"),
    ("H-seeded", _float_edge_end, "graph edges"),
    ("H-seeded", _float_ledger_count, "ledger fusion_attempts"),
    ("H-seeded", _string_ledger_count, "ledger bonds_consumed"),
    ("H-seeded", _string_allow_nonleaf, "fuse allow_nonleaf"),
    ("H-seeded", _float_measured_vertex, "measure_z vertex"),
    ("H-seeded", _float_segment_entry, "box segment"),
    ("H-seeded", _float_fuse_target, "fuse a"),
    ("ring8-forced-S", _float_hadamard, "tableau_rewrite hadamards"),
    ("ring8-forced-S", _float_swap, "tableau_rewrite swaps"),
    ("ring8-forced-S", _three_vertex_swap, "tableau_rewrite swaps"),
    ("H-seeded", _integer_name, "name"),
    ("H-seeded", _list_annotations, "annotations"),
    ("H-seeded", _list_step, "trace"),
    ("H-seeded", _string_trace, "trace"),
    ("H-seeded", _object_trace, "trace"),
]


@pytest.mark.parametrize(
    "verb, build, edit, field",
    [
        pytest.param(verb, build, edit, field, id=f"{verb}-{edit.__name__.lstrip('_')}")
        for build, edit, field in MISTYPED
        for verb in ("export", "replay")
    ],
)
def test_mistyped_field_exits_1_with_one_line(verb, build, edit, field, tmp_path):
    doc = json.loads((GOLDEN / f"build-{build}.out").read_text(encoding="utf-8"))
    edit(doc)
    r = run_cli(verb, stored(doc, tmp_path / "edited.json"))
    err = r.stderr.decode()
    assert r.returncode == 1
    assert len(err.splitlines()) == 1, err
    assert re.match(f"{verb}: {field}( must|:) ", err), err


GRAPH_IDS = [
    {"vertices": [1.0, 2.0], "edges": [[1, 2]]},
    {"vertices": [1, 2], "edges": [[1.0, 2]]},
    {"vertices": [True, 2], "edges": [[1, 2]]},
    {"vertices": [1, 2], "edges": [[1, False]]},
    {"vertices": ["1"], "edges": []},
]


@pytest.mark.parametrize("graph", GRAPH_IDS, ids=[f"doc{i}" for i in range(len(GRAPH_IDS))])
def test_stored_graphs_require_integer_vertex_ids(graph):
    # 1.0 and True hash like 1, so the graph would decode but print
    # vertex names its edges do not use.
    h = json.loads((GOLDEN / "build-H-seeded.out").read_text(encoding="utf-8"))
    ladder = json.loads((GOLDEN / "build-ladder-forced.out").read_text(encoding="utf-8"))
    _step(ladder, "merge").update(graph)
    docs = [{**h, "graph": graph}, {**h, "initial": graph}, ladder]
    for doc, decode in itertools.product(docs, (result_from_doc, replay)):
        with pytest.raises(ValueError, match="vertex ids must be JSON integers"):
            decode(doc)


DUPLICATED = [
    {"vertices": [1, 2, 1], "edges": [[1, 2]]},
    {"vertices": [1, 2, 3], "edges": [[1, 2], [1, 2]]},
    {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3], [2, 1]]},
]


@pytest.mark.parametrize("graph", DUPLICATED, ids=[f"doc{i}" for i in range(len(DUPLICATED))])
def test_stored_graphs_list_each_vertex_and_edge_once(graph):
    # A set would collapse the repeat and print a graph unlike the file.
    h = json.loads((GOLDEN / "build-H-seeded.out").read_text(encoding="utf-8"))
    ladder = json.loads((GOLDEN / "build-ladder-forced.out").read_text(encoding="utf-8"))
    _step(ladder, "merge").update(graph)
    docs = [{**h, "graph": graph}, {**h, "initial": graph}, ladder]
    for doc, decode in itertools.product(docs, (result_from_doc, replay)):
        with pytest.raises(ValueError, match="listed once"):
            decode(doc)


@pytest.mark.parametrize("verb", ["export", "replay"])
@pytest.mark.parametrize("key", ["graph", "initial"])
def test_repeated_vertex_exits_1_naming_the_field(verb, key, tmp_path):
    doc = json.loads((GOLDEN / "build-H-seeded.out").read_text(encoding="utf-8"))
    doc[key]["vertices"].append(doc[key]["vertices"][0])
    r = run_cli(verb, stored(doc, tmp_path / "edited.json"))
    err = r.stderr.decode()
    assert r.returncode == 1
    assert err.startswith(f"{verb}: {key} vertices: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("verb", ["export", "replay"])
def test_deeply_nested_json_exits_1_with_one_line(verb, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    r = run_cli(verb, str(path))
    assert r.returncode == 1
    assert r.stderr == f"{verb}: parse error: JSON nested too deeply\n".encode()


def test_the_document_table_names_every_stored_field():
    for text in BUILDS:
        doc = json.loads(text)
        assert set(doc) == set(recipes._DOCUMENT)
        for step in doc["trace"]:
            assert set(step) == {"op", *recipes._TRACE_OPS[step["op"]][0]}


# -- one-node edits of every golden build ------------------------------------------


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _at(node, path: tuple):
    for step in path:
        node = node[step]
    return node


DOCS = [json.loads(text) for text in BUILDS]
NODES = [(i, path) for i, doc in enumerate(DOCS) for path in _paths(doc)]
KEYS = [(i, path) for i, path in NODES if path and isinstance(path[-1], str)]
LISTS = [(i, path) for i, path in NODES if isinstance(_at(DOCS[i], path), list) and _at(DOCS[i], path)]
DELETE = object()
# Appends a repeat of the list's first entry, a pair reversed as [v, u].
REPEAT = object()
OTHER_TYPES = [None, True, False, 0, 1, 2.5, "", "S", [], [1, 2], {}, {"op": "box"}]
EXTREME_INTS = [-1, -(2**63), 2**64, 10**100]

EDITS = st.one_of(
    st.tuples(st.sampled_from(NODES), st.sampled_from(OTHER_TYPES)),
    st.tuples(st.sampled_from(KEYS), st.just(DELETE)),
    st.tuples(st.sampled_from(NODES), st.sampled_from(EXTREME_INTS)),
    st.tuples(st.sampled_from(LISTS), st.just(REPEAT)),
)


def _edited(i: int, path: tuple, value):
    doc = json.loads(BUILDS[i])
    if not path:
        return value
    parent = _at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    elif value is REPEAT:
        first = parent[path[-1]][0]
        parent[path[-1]].append(first[::-1] if isinstance(first, list) else first)
    else:
        parent[path[-1]] = value
    return doc


@given(edit=EDITS)
@settings(max_examples=200)
def test_one_node_edit_exits_0_or_1_with_at_most_one_line(edit, workdir):
    (i, path), value = edit
    doc = _edited(i, path, value)
    for decode in (result_from_doc, replay):
        try:
            decode(doc)
        except ValueError:
            pass
    for verb in ("export", "replay"):
        r = run_cli(verb, stored(doc, workdir / "edited.json"))
        assert r.returncode in (0, 1), (verb, path, value)
        assert len(r.stderr.splitlines()) <= 1, (verb, path, r.stderr)
