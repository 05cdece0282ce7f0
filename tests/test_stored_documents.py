"""Edited build documents at the CLI boundary.

``export`` and ``replay`` read documents users may have edited by hand.
Every such document either works or makes the verb exit 1 with one line
on standard error: never a traceback, never a second line.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
BUILDS = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN.glob("build-*.out"))]


def run(verb: str, doc, path: Path) -> tuple[int, str]:
    """Exit code and standard error of one in-process ``verb`` on ``doc``."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([verb, str(path)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


# -- field types the decoders used to coerce -------------------------------------


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


@pytest.mark.parametrize(
    "verb, edit",
    [
        (verb, edit)
        for edit in (_float_vertices, _float_edge_end, _float_ledger_count, _string_ledger_count)
        for verb in ("export", "replay")
    ]
    + [("replay", _string_allow_nonleaf)],
    ids=lambda v: v if isinstance(v, str) else v.__name__.lstrip("_"),
)
def test_mistyped_field_exits_1_with_one_line(verb, edit, tmp_path):
    doc = json.loads((GOLDEN / "build-H-seeded.out").read_text(encoding="utf-8"))
    edit(doc)
    code, err = run(verb, doc, tmp_path / "edited.json")
    assert code == 1
    assert len(err.splitlines()) == 1, err


# -- one-node edits of every golden build ------------------------------------------


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


NODES = [(i, path) for i, text in enumerate(BUILDS) for path in _paths(json.loads(text))]
KEYS = [(i, path) for i, path in NODES if path and isinstance(path[-1], str)]
DELETE = object()
OTHER_TYPES = [None, True, False, 0, 1, 2.5, "", "S", [], [1, 2], {}, {"op": "box"}]
EXTREME_INTS = [-1, -(2**63), 2**64, 10**100]

EDITS = st.one_of(
    st.tuples(st.sampled_from(NODES), st.sampled_from(OTHER_TYPES)),
    st.tuples(st.sampled_from(KEYS), st.just(DELETE)),
    st.tuples(st.sampled_from(NODES), st.sampled_from(EXTREME_INTS)),
)


def _edited(i: int, path: tuple, value):
    doc = json.loads(BUILDS[i])
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@given(edit=EDITS)
@settings(max_examples=200)
def test_one_node_edit_exits_0_or_1_with_at_most_one_line(edit, workdir):
    (i, path), value = edit
    doc = _edited(i, path, value)
    for verb in ("export", "replay"):
        code, err = run(verb, doc, workdir / "edited.json")
        assert code in (0, 1), (verb, path, value)
        assert len(err.splitlines()) <= 1, (verb, path, err)
