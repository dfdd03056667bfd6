"""Mutated job documents keep the CLI contract: exit 0-3, and a nonzero
exit prints exactly one stderr line and nothing on stdout.

The documents are the small corpus's fixtures (the ``input`` echoed by
each expected report); a mutant swaps one leaf for junk, deletes a key,
adds an unknown key or wraps a value in a list, and runs through ``main``
in-process.  An exit of 4 here would be a parser that lets malformed
input reach the library.
"""

import copy
import io
import json
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from sftact.cli import main

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "cli-small").glob("*.json"))
DOCUMENTS = [json.loads(path.read_text())["input"] for path in FIXTURES]
JUNK = [None, True, -1, 0, 2, 10**40, 2.5, "", "x", "(1 2)", "Z2", [], [[]], [[1, 2]], {}, {"x": 1}]


def locations(value, path=()):
    """Every (path, value) inside a decoded JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from locations(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from locations(item, path + (k,))


def replace(doc, path, new):
    """``doc`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@st.composite
def mutants(draw):
    """(command, document): a fixture's command and a mutant of its document."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    command = doc["command"]
    places = list(locations(doc))
    kind = draw(st.sampled_from(("junk leaf", "delete key", "unknown key", "wrap")))
    if kind == "junk leaf":
        path, _ = draw(st.sampled_from([p for p in places if not isinstance(p[1], (dict, list)) or not p[1]]))
        return command, replace(doc, path, copy.deepcopy(draw(st.sampled_from(JUNK))))
    if kind == "delete key":
        path, value = draw(st.sampled_from([p for p in places if isinstance(p[1], dict) and p[1]]))
        del value[draw(st.sampled_from(sorted(value)))]
        return command, doc
    if kind == "unknown key":
        path, value = draw(st.sampled_from([p for p in places if isinstance(p[1], dict)]))
        key = draw(st.one_of(st.sampled_from(("extra", "Matrix", "max_n", "", "a\nb")), st.text()))
        value[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        return command, doc
    path, value = draw(st.sampled_from(places))
    return command, replace(doc, path, [value])


def run_main(command, text):
    """main([command]) on ``text`` as stdin: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main([command])
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_documents_keep_the_exit_contract(mutant):
    command, doc = mutant
    code, out, err = run_main(command, json.dumps(doc))
    assert code in (0, 1, 2, 3), err
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1, err
    else:
        assert err == ""
