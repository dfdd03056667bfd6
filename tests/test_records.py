"""Value records: construction, equality, hashing, immutability, repr,
and an import path that never loads ``dataclasses`` or ``inspect``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sftact
from sftact import AbelianGroupInvariants, IntMatrix, IntPolynomial
from sftact.cli import parse_job
from sftact.records import record


@record
class Point:
    x: int
    y: int


@record
class Pair:
    x: int
    y: int


def test_cli_import_loads_no_dataclasses_or_inspect():
    """A fresh interpreter without site packages imports the CLI without
    the modules that generated-source records would pull in."""
    src = str(Path(sftact.__file__).resolve().parent.parent)
    probe = "import sys, sftact.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_equal_fields_equal_values_and_hashes():
    assert IntPolynomial((1, 2)) == IntPolynomial((1, 2))
    assert hash(IntPolynomial((1, 2))) == hash(IntPolynomial((1, 2)))
    assert IntPolynomial((1, 2)) != IntPolynomial((1, 3))
    assert Point(1, 2) == Point(1, 2) and hash(Point(1, 2)) == hash((1, 2))
    assert Point(1, 2) != Point(2, 1)


def test_keyword_and_positional_construction_agree():
    positional = AbelianGroupInvariants((2,), 1)
    assert AbelianGroupInvariants(free_rank=1, torsion=(2,)) == positional
    assert AbelianGroupInvariants((2,), free_rank=1) == positional
    assert Point(y=2, x=1) == Point(1, 2)


def test_classes_with_the_same_fields_differ():
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2).__eq__(Pair(1, 2)) is NotImplemented
    assert IntPolynomial((1,)).__eq__((1,)) is NotImplemented


def test_assignment_and_deletion_raise():
    p = IntPolynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coefficients = (3,)
    with pytest.raises(AttributeError):
        p.extra = 1
    with pytest.raises(AttributeError):
        del p.coefficients
    assert p.coefficients == (1, 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: IntPolynomial(),
        lambda: IntPolynomial((1,), (2,)),
        lambda: IntPolynomial(coeffs=(1,)),
        lambda: AbelianGroupInvariants((2,)),
        lambda: AbelianGroupInvariants((2,), torsion=(2,)),
        lambda: Point(1, 2, z=3),
    ],
    ids=["missing", "extra-positional", "unknown-keyword", "missing-second", "repeated", "extra-keyword"],
)
def test_bad_constructor_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_post_init_is_looked_up_at_call_time():
    calls = []

    @record
    class Checked:
        value: int

        def __post_init__(self):
            calls.append("original")

    original = Checked.__dict__["__post_init__"]

    def wrapped(self):
        calls.append("wrapped")
        original(self)

    Checked.__post_init__ = wrapped
    try:
        Checked(1)
    finally:
        Checked.__post_init__ = original
    Checked(value=2)
    assert calls == ["wrapped", "original", "original"]


def test_int_matrix_keeps_its_constructor_and_cached_entries():
    m = IntMatrix(((1, 0), (0, 2)), ("a", "b"))
    assert m.sparse == (((0, 1),), ((1, 2),)) and m.labels == ("a", "b")
    fresh = IntMatrix.from_sparse((((0, 1),), ((1, 2),)), 2, ("a", "b"))
    assert m.entries is m.entries == ((1, 0), (0, 2))
    assert m == fresh and hash(m) == hash(fresh)
    with pytest.raises(AttributeError):
        m.cols = 3


def test_repr_names_the_fields():
    assert repr(IntPolynomial((1, 2))) == "IntPolynomial(coefficients=(1, 2))"
    assert repr(Point(1, "a")) == "Point(x=1, y='a')"


def test_job_spec_repr_omits_parsed():
    doc = {"command": "invariants", "input": {"matrix": [[1, 1], [1, 0]]}}
    job = parse_job(json.dumps(doc))
    assert job.parsed is not None
    assert repr(job) == (
        "JobSpec(command='invariants', input={'matrix': [[1, 1], [1, 0]]}, parameters={})"
    )
