"""The command-line contract on hostile files, in one process.

Each example takes a valid input of ``check-ses``, ``cech``, ``matrix
hnf``/``snf`` or ``invariants --catalog`` and mutates it: a value of the
wrong type, a huge rank, shape or relation count, deep nesting, truncation
or bytes that are not UTF-8.  Every call returns 0, 1 or 2 with no
exception, prints nothing on stdout when it returns 2, and takes under
``WALL`` seconds.  All calls share the parser that ``main`` builds once per
process.
"""

import contextlib
import io
import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from redinv.catalogio import default_catalog_path
from redinv.cli import main

DATA_DIR = os.path.dirname(default_catalog_path())
WALL = 10.0  # seconds per call


def _shipped(name: str):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# (argv with FILE for the mutated file, a valid JSON value for it)
SEEDS = [
    (["check-ses", "FILE"], _shipped("ses_gm_gl2_pgl2.json")),
    (["check-ses", "FILE"], _shipped("ses_sl3_gl3_gm.json")),
    (["cech", "FILE"], {"fx": {"ambientRank": 2, "relations": [["4", "0"], ["8", "0"]]},
                        "fg": {"ambientRank": 2, "relations": [["6", "0"]]},
                        "phi": [["3", "0"], ["2", "5"]]}),
    (["matrix", "hnf", "FILE"], [["2", "4", "1"], ["6", "8", "0"]]),
    (["matrix", "snf", "FILE"], [["2", "4"], ["6", "8"], ["1", "3"]]),
    (["invariants", "SL(3)", "--catalog", "FILE"], _shipped("catalog.json")),
]

WRONG_TYPES = [{}, "", [], [[]], [{}], 0, -1, 1.5, True, None, "x", "SL(65)",
               "9" * 5000, {"ambientRank": 1, "relations": []}]
HUGE = [65, 257, 10 ** 6, 2 ** 64, -1]
REPEATS = [0, 2, 65, 257, 4096]
DEPTHS = [1, 30, 1000, 5000]  # json's parser recurses once per level
BAD_BYTES = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xfe\xff"]
NESTED = "\x00nested"  # placeholder for a node nested at the text level


def _paths(value, path=()):
    """The path (keys and indices) of every node of a JSON value."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replace(value[path[0]], path[1:], new)
    return copy


def _node(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def hostile_inputs(draw):
    """(argv, the bytes of a mutated input file)."""
    argv, value = draw(st.sampled_from(SEEDS))
    path = draw(st.sampled_from(list(_paths(value))))
    node = _node(value, path)
    kind = draw(st.sampled_from(["type", "huge", "repeat", "widen", "nest", "none"]))
    depth = 0
    if kind == "type":
        value = _replace(value, path, draw(st.sampled_from(WRONG_TYPES)))
    elif kind == "huge":
        value = _replace(value, path, draw(st.sampled_from(HUGE)))
    elif kind == "repeat" and isinstance(node, list):
        value = _replace(value, path, node * draw(st.sampled_from(REPEATS)))
    elif kind == "widen" and isinstance(node, list):
        k = draw(st.sampled_from(REPEATS))
        value = _replace(value, path, [r * k if isinstance(r, list) else r for r in node])
    elif kind == "nest":
        depth = draw(st.sampled_from(DEPTHS))
        value = _replace(value, path, NESTED)
    text = json.dumps(value)
    if depth:
        text = text.replace(json.dumps(NESTED), "[" * depth + json.dumps(node) + "]" * depth)
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return argv, data


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "input.json"


@settings(max_examples=300, deadline=None)
@given(hostile_inputs())
def test_hostile_files_keep_the_contract(input_path, case):
    argv, data = case
    input_path.write_bytes(data)
    argv = [str(input_path) if a == "FILE" else a for a in argv]
    for fmt in ("human", "json"):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", fmt])
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2), (fmt, err.getvalue())
        assert code != 2 or not out.getvalue(), fmt
        assert elapsed < WALL, (fmt, elapsed)
