"""Job documents keep the CLI contract: exit 0-3, and a nonzero exit
prints exactly one stderr line and nothing on stdout; a success prints
nothing on stderr.

Two sources of documents run through ``main`` in-process.  Mutants start
from the small corpus's fixtures (the ``input`` echoed by each expected
report) and swap one leaf for junk, delete a key, add an unknown key or
wrap a value in a list.  Generated documents are drawn whole for every
command: small zero-one matrices, groups given as cycle-notation
generators (cycles may overlap), HNN words, split partitions of each
state's edges and certificates built as products; some carry a parameter
their command does not read.  An exit of 4 here would be a parser that
lets malformed input reach the library, or a library defect on
well-formed input.  A fixed sample of the generated documents also runs
under ``python`` and ``python -O``, which must print the same bytes.
"""

import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import sftact
from sftact.cli import main
from sftact.jobs import COMMANDS

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


def check_exit_contract(command, doc, args=()):
    """Run the document and check the contract; returns (exit code, stderr)."""
    code, out, err = run_main([command, *args], json.dumps(doc))
    assert code in (0, 1, 2, 3), err
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1, err
    else:
        assert err == ""
    return code, err


def run_main(argv, text):
    """main(argv) on ``text`` as stdin: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_documents_keep_the_exit_contract(mutant):
    check_exit_contract(*mutant)


def zero_one_rows(rows, cols):
    return st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def cycle_generators(degree):
    """Up to two generators, each a list of up to two cycles over 1..degree."""
    cycle = st.lists(st.integers(1, degree), min_size=1, max_size=degree, unique=True)
    return st.lists(st.lists(cycle, max_size=2), max_size=2)


def group_document(gens) -> dict:
    """The group document of generators given as lists of cycles."""
    return {"generators": ["".join("(" + " ".join(map(str, c)) + ")" for c in cycles) for cycles in gens]}


def cycle_permutation(cycles, degree):
    """The permutation of 0..degree-1 that the cycles compose to, the
    leftmost applied first."""
    perm = list(range(degree))
    for c in cycles:
        step = {c[k] - 1: c[(k + 1) % len(c)] - 1 for k in range(len(c))}
        perm = [step.get(x, x) for x in perm]
    return perm


def invariant_closure(matrix, perms):
    """The least zero-one matrix above ``matrix`` that every permutation keeps."""
    rows = [row[:] for row in matrix]
    pending = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
    while pending:
        i, j = pending.pop()
        for p in perms:
            if not rows[p[i]][p[j]]:
                rows[p[i]][p[j]] = 1
                pending.append((p[i], p[j]))
    return rows


def group_words(gens):
    """Words of up to three [generator, sign] letters over 1..gens."""
    if not gens:
        return st.just([])
    letter = st.tuples(st.integers(1, gens), st.sampled_from((1, -1))).map(list)
    return st.lists(letter, max_size=3)


def product_rows(r, s):
    return [[sum(x * s[k][j] for k, x in enumerate(row)) for j in range(len(s[0]))] for row in r]


@st.composite
def certificates(draw):
    """An elementary equivalence (R, S) between R S and S R."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    r, s = draw(zero_one_rows(n, k)), draw(zero_one_rows(k, n))
    return {"a": product_rows(r, s), "b": product_rows(s, r), "r": r, "s": s}


@st.composite
def hnn_documents(draw):
    if draw(st.booleans()):
        return {"preset": draw(st.sampled_from(("trefoil", "figure8")))}
    b_gens = draw(st.integers(0, 2))
    u_gens = draw(st.lists(group_words(b_gens), max_size=2))
    v_gens = draw(st.lists(group_words(b_gens), max_size=2))
    return {
        "b_gens": b_gens,
        "b_relators": draw(st.lists(group_words(b_gens), max_size=1)),
        "u_gens": u_gens,
        "u_relators": draw(st.lists(group_words(len(u_gens)), max_size=1)),
        "v_gens": v_gens,
        "v_relators": draw(st.lists(group_words(len(v_gens)), max_size=1)),
        "phi_images": draw(st.lists(group_words(b_gens), min_size=len(u_gens), max_size=len(u_gens))),
    }


@st.composite
def split_fields(draw, matrix):
    """The direction and partition of a split of ``matrix``: each state's
    out- or in-neighbours, 1-based, dealt into up to two blocks; a state
    with none gets an empty block."""
    direction = draw(st.sampled_from(("out", "in")))
    n = len(matrix)
    partition = []
    for i in range(n):
        others = [j + 1 for j in range(n) if (matrix[i][j] if direction == "out" else matrix[j][i])]
        labels = draw(st.lists(st.integers(0, 1), min_size=len(others), max_size=len(others)))
        blocks = [[o for o, label in zip(others, labels) if label == b] for b in (0, 1)]
        partition.append([block for block in blocks if block] or [[]])
    return {"direction": direction, "partition": partition}


# the parameters each command reads; any other is an input error
READS = {
    "witness": ("m",), "burnside": ("max_n",), "quotient-counts": ("max_n",),
    "repshift": ("max_n", "limit"), "tqft": ("limit",), "bundle-counts": ("max_n", "limit"),
}
FLAGS = {"limit": "--limit", "max_n": "--max-n"}


@st.composite
def generated_documents(draw):
    """(command, document, command-line flags, the parameter the command
    does not read or None): a whole job document drawn for a command.  About
    one in six carries a parameter its command does not read, in the
    document or as a flag, and must exit 1 naming it."""
    command = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(1, 4))
    matrix = draw(zero_one_rows(n, n))
    gens = draw(cycle_generators(n))
    if draw(st.booleans()):
        # an irreducible matrix that the generators keep; with self-loops
        # every element with a fixed state fixes a cycle (a nonexpansive quotient)
        loops = draw(st.booleans())
        for i in range(n):
            matrix[i][(i + 1) % n] = 1
            matrix[i][i] |= loops
        matrix = invariant_closure(matrix, [cycle_permutation(g, n) for g in gens])
    group = group_document(gens)
    parameters = {}
    if command in ("verify-sse", "transport"):
        if command == "transport":
            cert = draw(certificates())
            phi = group_document(draw(cycle_generators(len(cert["a"]))))
            psi = group_document(draw(cycle_generators(len(cert["b"]))))
            doc = {"certificate": cert, "phi": phi, "psi": psi}
        elif draw(st.booleans()):
            doc = draw(certificates())
        else:
            doc = {"chain": draw(st.lists(certificates(), min_size=1, max_size=2))}
    elif command == "split":
        doc = {"matrix": matrix, "group": group, **draw(split_fields(matrix))}
    elif command in ("repshift", "tqft", "bundle-counts"):
        # a table whose element name holds a comma, which state labels cannot carry
        comma_names = {"table": [[0, 1], [1, 0]], "names": ["e", "x,y"]}
        groups = ("Z1", "Z2", "Z3", "S3", "D2", "Q8", comma_names)
        doc = {"hnn": draw(hnn_documents()), "group": draw(st.sampled_from(groups))}
    elif command == "invariants" and draw(st.booleans()):
        doc = {"matrix": matrix}
    else:
        doc = {"matrix": matrix, "group": group}
    reads = READS.get(command, ())
    if "m" in reads:
        parameters["m"] = draw(st.integers(1, 3))
    if "max_n" in reads:
        parameters["max_n"] = draw(st.integers(1, 6))
    args, unread = [], None
    where = draw(st.sampled_from((None,) * 7 + ("document", "flag", "flag")))
    if where is not None:
        unread = draw(st.sampled_from([key for key in ("max_n", "limit", "m") if key not in reads]))
        value = draw(st.integers(1, 6))
        if where == "flag" and unread in FLAGS:
            args = [FLAGS[unread], str(value)]
        else:
            parameters[unread] = value
    return command, {"format": "sftact-job/1", "command": command, "input": doc, "parameters": parameters}, args, unread


GENERATED = dict(max_examples=300, derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(**GENERATED)
@given(generated_documents())
def test_generated_documents_keep_the_exit_contract(generated):
    command, doc, args, unread = generated
    code, err = check_exit_contract(command, doc, args)
    if unread is not None:
        assert (code, err) == (1, f"error: $.parameters.{unread}: unknown parameter\n")


# Runs each [argv, stdin text] of a JSON list on stdin through main() and
# prints the list of [exit code, stdout, stderr].
BATCH_CHILD = """
import io, json, sys
from sftact.cli import main
runs, results = json.load(sys.stdin), []
for argv, text in runs:
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    code = main(argv)
    results.append([code, sys.stdout.getvalue(), sys.stderr.getvalue()])
sys.__stdout__.write(json.dumps({"optimize": sys.flags.optimize, "results": results}))
"""


def test_generated_documents_same_under_optimized_interpreter():
    """A fixed sample of the generated documents gives the same exit code,
    stdout and stderr, byte for byte, under ``python`` and ``python -O``."""
    sample = []

    @settings(**dict(GENERATED, max_examples=60, phases=[Phase.generate]))
    @given(generated_documents())
    def collect(generated):
        command, doc, args, _ = generated
        sample.append([[command, *args], json.dumps(doc)])

    collect()
    src = str(Path(sftact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", BATCH_CHILD], input=json.dumps(sample),
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    plain, optimized = outputs
    assert (plain["optimize"], optimized["optimize"]) == (0, 1)
    assert len(plain["results"]) == len(sample) == 60
    for run, a, b in zip(sample, plain["results"], optimized["results"]):
        assert a == b, run
    assert {code for code, _, _ in plain["results"]} >= {0, 1}


# Numerals that int() alone mishandles: it reads underscores, non-ASCII
# decimal digits and surrounding whitespace, and it refuses numerals past
# Python's digit limit (3.11 and later).
NON_ASCII_DIGITS = "\u0663\u0968\uff13\U0001d7d1"  # Arabic-Indic, Devanagari, fullwidth, math bold


@st.composite
def perturbed_numerals(draw, numeral, kinds=("underscore", "digit", "space", "long")):
    """``numeral`` with an underscore or a non-ASCII digit inside, with
    whitespace around it, or replaced by one past Python's digit limit."""
    kind = draw(st.sampled_from(kinds))
    if kind == "long":
        return draw(st.sampled_from("123456789")) * draw(st.integers(4301, 6000))
    at = draw(st.integers(0 if kind == "space" else 1, len(numeral)))
    if kind == "underscore":
        return numeral[:at] + "_" + numeral[at:] if 0 < at < len(numeral) else numeral + "_0"
    if kind == "digit":
        return numeral[:at] + draw(st.sampled_from(NON_ASCII_DIGITS)) + numeral[at:]
    space = draw(st.sampled_from(("\n", " ", "\t", "\r\n", "\u00a0")))
    return numeral[:at] + space + numeral[at:] if at < len(numeral) else numeral + space


@st.composite
def perturbed_documents(draw):
    """(command, document) whose group name or one cycle entry is perturbed:
    each must exit 1."""
    if draw(st.booleans()):
        command = draw(st.sampled_from(("repshift", "tqft", "bundle-counts")))
        kind, numeral = draw(st.sampled_from((("Z", "3"), ("S", "3"), ("D", "2"), ("Z", "12"))))
        name = kind + draw(perturbed_numerals(numeral))
        return command, {"command": command, "input": {"hnn": {"preset": "trefoil"}, "group": name}}
    command = draw(st.sampled_from(("reduce", "classify", "burnside", "invariants")))
    # whitespace separates cycle entries, so it perturbs only names
    entry = draw(perturbed_numerals(draw(st.sampled_from(("1", "2", "3"))), ("underscore", "digit", "long")))
    matrix = [[1, 1, 1]] * 3
    return command, {"command": command, "input": {"matrix": matrix, "group": {"generators": [f"(1 {entry})"]}}}


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_documents())
def test_perturbed_numerals_exit_one(perturbed):
    assert check_exit_contract(*perturbed)[0] == 1
