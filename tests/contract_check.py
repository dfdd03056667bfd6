"""The CLI contract on any interpreter, with the standard library alone.

    PYTHONPATH=src python tests/contract_check.py
    PYTHONPATH=src python -O tests/contract_check.py

Rebuilds every expected report under ``perfbench/expected/`` and every
text report under ``tests/text_goldens/`` in-process, and runs
``sftact.cli.main`` on contract cases that need no oracle: the nesting
bound at 100, 101 and 100000 levels, integers past Python's 4300-digit
conversion limit (3.11 and later), unknown keys, the transport pairing
lines and closure limits of phi and psi, and the exact error lines of
unknown flags and parameters, non-square state matrices, a matrix row
that is not an array, oversized named groups, the zero-one precondition,
a transport certificate that does not verify, split partitions that are
too short, do not partition a state's in-edges or are not
action-compatible, and HNN words, and the text of free Bowen-Franks
ranks.  Prints one line per failure, then ``checked N, failed M``;
exits 1 when anything failed.  It imports nothing outside the standard
library but ``sftact``'s entry points, so it runs where pytest is not
installed.  ``tests/test_cli.py`` runs some cases by name, so each pinned
line is written here alone.
"""

import io
import json
import sys
from pathlib import Path

from sftact.cli import emit_report, main, parse_job, run_job

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected"
TEXT = ROOT / "tests" / "text_goldens"
DEPTH = "malformed JSON document: nested more than 100 deep"
HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")

# phi's generators and their conjugates by (2 3), listed in the same order
PAIRED = {
    "certificate": {"a": [[1, 1, 1]] * 3, "b": [[1, 1, 1]] * 3, "r": [[1, 0, 0], [0, 0, 1], [0, 1, 0]], "s": [[1, 1, 1]] * 3},
    "phi": {"generators": ["(1 2)", "(1 2 3)"]},
    "psi": {"generators": ["(1 3)", "(1 3 2)"]},
}


UNKNOWN_FLAGS = ["--cap", "--bogus"]
UNKNOWN_PARAMETERS = ["maxn", "cap"]
# (command, input, the non-square field)
RECTANGULAR = [
    ("invariants", {"matrix": [[1, 0, 1], [0, 1, 1]]}, "matrix"),
    ("reduce", {"matrix": [[1, 0, 1], [0, 1, 1]], "group": {"generators": []}}, "matrix"),
    ("verify-sse", {"a": [[1, 0, 1], [0, 1, 1]], "b": [[2]], "r": [[1], [1]], "s": [[1, 1]]}, "a"),
]
# (named group, why it is refused)
NAMED_TOO_LARGE = [
    ("Z99999999999999", "cyclic groups are supported for 1 <= n <= 720"),
    ("D361", "dihedral groups are supported for 1 <= n <= 360"),
    ("S7", "symmetric groups are supported for 1 <= n <= 6"),
]


def run_main(text, argv):
    """(exit code, stdout, stderr) of ``main`` reading the document ``text``
    from stdin."""
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams


def nested(depth):
    """A reduce job: the job object and depth - 1 arrays inside it."""
    return '{"command": "reduce", "input": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"


def transport(**groups):
    """A transport job on PAIRED with its phi or psi group replaced."""
    return json.dumps({"command": "transport", "input": dict(PAIRED, **groups)})


def split(matrix, generators, direction, partition):
    """A split job on ``matrix`` with the group of ``generators``."""
    group = {"generators": generators}
    doc = {"matrix": matrix, "group": group, "direction": direction, "partition": partition}
    return json.dumps({"command": "split", "input": doc})


def repshift(group, **hnn):
    return json.dumps({"command": "repshift", "input": {"hnn": hnn, "group": group}})


def contract_cases():
    """(name, document text, argv, expected exit code, expected stderr or
    None for any single line, stdout check or None)."""
    big = 10**4000
    big_matrix = json.dumps({"command": "invariants", "input": {"matrix": [[big, 1], [1, big]]}})
    in_full = "9" * 8000  # 10^8000 - 1, a coefficient of det(I - tA)
    reduce_ones = {"command": "reduce", "input": {"matrix": [[1, 1], [1, 1]], "group": {"generators": ["(1 2)"]}}}
    yield "nesting-100", nested(100), ["reduce"], 1, "error: $.input: expected an object\n", None
    yield "nesting-101", nested(101), ["reduce"], 1, f"error: {DEPTH}\n", None
    yield "nesting-100000", nested(100000), ["reduce"], 1, f"error: {DEPTH}\n", None
    numeral = '{"command": "invariants", "input": {"matrix": [[' + "7" * 5000 + "]]}}"
    if HAS_DIGIT_LIMIT:
        yield "numeral-past-4300-digits", numeral, ["invariants"], 1, None, None
    else:
        yield "numeral-past-4300-digits", numeral, ["invariants"], 0, "", None
    for fmt in ("json", "text"):
        yield f"result-past-4300-digits-{fmt}", big_matrix, ["invariants", "--format", fmt], 0, "", in_full
    unknown_input = dict(reduce_ones, input=dict(reduce_ones["input"], extra=1))
    yield "unknown-field", json.dumps(unknown_input), ["reduce"], 1, "error: $.input.extra: unknown field\n", None
    unknown_parameter = dict(reduce_ones, parameters={"max_n": 3})
    yield "unknown-parameter", json.dumps(unknown_parameter), ["reduce"], 1, "error: $.parameters.max_n: unknown parameter\n", None
    for key in UNKNOWN_PARAMETERS:
        doc = dict(reduce_ones, command="burnside", parameters={key: 3})
        yield f"unknown-parameter {key}", json.dumps(doc), ["burnside"], 1, f"error: $.parameters.{key}: unknown parameter\n", None
    for flag in UNKNOWN_FLAGS:
        yield f"unknown-flag {flag}", json.dumps(reduce_ones), ["reduce", flag, "5"], 1, f"error: unrecognized arguments: {flag} 5\n", None
    for command, input_doc, field in RECTANGULAR:
        doc = json.dumps({"command": command, "input": input_doc})
        yield f"rectangular {command}", doc, [command], 1, f"error: $.input.{field}: matrix must be square, got 2x3\n", None
    row = json.dumps({"command": "invariants", "input": {"matrix": [1, [1]]}})
    yield "matrix-row-not-array", row, ["invariants"], 1, "error: $.input.matrix[0]: expected an array\n", None
    for group, message in NAMED_TOO_LARGE:
        doc = json.dumps({"command": "tqft", "input": {"hnn": {"preset": "trefoil"}, "group": group}})
        yield f"named-group {group}", doc, ["tqft"], 1, f"error: $.input.group: {message}\n", None
    # higher-block recoding refuses such a matrix too, so the line names no recoding
    parallel = json.dumps({"command": "reduce", "input": {"matrix": [[2]], "group": {"generators": []}}})
    yield "zero-one matrix", parallel, ["reduce"], 2, (
        "precondition failed: permutation actions need a zero-one matrix, whose states are its symbols\n"
    ), None
    limited = dict(reduce_ones, input=dict(reduce_ones["input"], group={"generators": ["(1 2)"], "limit": 1}))
    yield "closure-limit", json.dumps(limited), ["reduce"], 3, "budget exhausted: group closure exceeds limit 1\n", None
    pairing = "precondition failed: $.input.psi.generators: "
    for name, gens, line in (
        ("swapped", ["(1 3 2)", "(1 3)"], "the pairing sends phi element () to both () and (1 2 3)"),
        ("fewer", ["(1 3)"], "1 listed, but phi lists 2; generators pair in order"),
        ("not-one-to-one", ["()", "()"], "the pairing sends two phi elements to one psi element"),
    ):
        yield f"pairing-{name}", transport(psi={"generators": gens}), ["transport"], 2, f"{pairing}{line}\n", None
    yield "pairing-conjugate", transport(), ["transport"], 0, "", '"verified": true'
    # S3 closes in layers of 1, 2 and 3 pairs; phi's limit is checked first in each
    for name, limits, bound in (("phi", {"phi": 5}, 5), ("psi", {"psi": 4}, 4), ("both", {"phi": 5, "psi": 4}, 5)):
        doc = transport(**{key: dict(PAIRED[key], limit=n) for key, n in limits.items()})
        line = f"budget exhausted: group closure exceeds limit {bound}\n"
        yield f"transport-limit-{name}", doc, ["transport"], 3, line, None
    ones, identity = [[1, 1], [1, 1]], [[1, 0], [0, 1]]
    unverified = {
        "certificate": {"a": ones, "b": ones, "r": identity, "s": identity},
        "phi": {"generators": ["(1 2)"]},
        "psi": {"generators": ["(1 2)"]},
    }
    yield "transport-unverified", json.dumps({"command": "transport", "input": unverified}), ["transport"], 2, (
        "precondition failed: certificate does not verify; cannot transport\n"
    ), None
    # the partition checks the library makes on a split, in and out alike
    partition = "error: $.input.partition: "
    yield "split-partition-short", split(ones, [], "out", [[[1, 2]]]), ["split"], 1, (
        f"{partition}split data must give a partition for every state\n"
    ), None
    yield "split-partition-in-edges", split([[1, 1], [1, 0]], [], "in", [[[1]], [[1]]]), ["split"], 1, (
        f"{partition}blocks at state 1 do not partition its in-edges\n"
    ), None
    yield "split-in-incompatible", split(ones, ["(1 2)"], "in", [[[1], [2]], [[1, 2]]]), ["split"], 2, (
        "precondition failed: partition is not action-compatible: "
        "element 1 does not carry a block at state 1 onto a block at state 2\n"
    ), None
    # documents number HNN generators from 1, and name relators by their paths
    hnn = "error: $.input.hnn"
    out_of_range = repshift(
        "Z2", b_gens=1, b_relators=[[[2, 1]]], u_gens=[[[1, 1]]], v_gens=[[[1, 1]]], phi_images=[[[1, 1]]]
    )
    yield "hnn-generator-number", out_of_range, ["repshift"], 1, (
        f"{hnn}.b_relators[0][0][0]: uses generator 2, but only 1 exist\n"
    ), None
    inconsistent = repshift(
        "Z3", b_gens=2, u_gens=[[[1, 1]]], u_relators=[[[1, 1], [1, 1]]], v_gens=[[[1, 1]]], phi_images=[[[2, 1]]]
    )
    yield "hnn-relator-path", inconsistent, ["repshift"], 1, (
        f"{hnn}: inconsistent HNN data: the terminal state of an edge violates u_relators[0]; "
        "the amalgamating images do not define a homomorphism on U\n"
    ), None
    for matrix, group in (([[1]], "Z"), ([[1, 0], [0, 1]], "Z^2")):
        doc = json.dumps({"command": "invariants", "input": {"matrix": matrix}})
        yield f"free-rank {group}", doc, ["invariants", "--format", "text"], 0, "", f"BF group: {group}\n"


def case_problems(text, argv, code, err, out_has):
    """What differs from a contract case's expectation, as a list of lines."""
    got_code, out, got_err = run_main(text, argv)
    problems = []
    if got_code != code:
        problems.append(f"exit {got_code}, expected {code}")
    if got_code != 0 and out:
        problems.append(f"exit {got_code} after writing {out[:200]!r} to stdout")
    if err is None:
        if len(got_err.splitlines()) != 1:
            problems.append(f"expected one stderr line, got {got_err[:200]!r}")
    elif got_err != err:
        problems.append(f"stderr {got_err[:200]!r}, expected {err!r}")
    if out_has is not None and out_has not in out:
        problems.append("the report lacks the expected text")
    return problems


def main_check():
    failures, checked = [], 0
    for path in sorted(EXPECTED.glob("*/*.json")):
        checked += 1
        golden = path.read_text(encoding="utf-8")
        try:
            report = run_job(parse_job(json.dumps(json.loads(golden)["input"])))
            same = emit_report(report) == golden
            text = TEXT / f"{path.stem}.txt"
            if path.parent.name == "cli-small":
                checked += 1
                if emit_report(report, "text") != text.read_text(encoding="utf-8"):
                    failures.append(f"{text.relative_to(ROOT)}: text report differs")
        except Exception as err:  # one line per failure, whatever it is
            failures.append(f"{path.relative_to(ROOT)}: {type(err).__name__}: {err}")
            continue
        if not same:
            failures.append(f"{path.relative_to(ROOT)}: report differs")
    for name, *case in contract_cases():
        checked += 1
        problems = case_problems(*case)
        if problems:
            failures.append(f"{name}: " + "; ".join(problems))
    for line in failures:
        print(line)
    print(f"checked {checked}, failed {len(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main_check())
