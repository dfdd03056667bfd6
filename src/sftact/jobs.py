"""JSON job documents: parsing, the command table and the runners.

A job document is ``{"format": "sftact-job/1", "command": ..., "input":
{...}, "parameters": {...}}``.  Permutations are written in 1-based cycle
notation like "(1 2)(3 4 5 6)"; group words are lists of
[generator, sign] pairs with 1-based generators; abstract groups may be
named (Zn, Sn, Dn, Q8) or given as an explicit multiplication table.
A report is the document ``{"format": "sftact-report/1", "version": ...,
"command": ..., "input": <the job document>, "result": {...}}``; it
serializes deterministically: stable key order, exact decimal integers.

Each command has one row in the command table: its input parser, its
runner and the parameters that runner reads; any other parameter is an
input error.  ``parse_job`` is the one function that decodes a job
document, from the command line (with the subcommand and flag overrides)
or not.  It parses the input once into library values (actions, matrices,
certificates, HNN data, groups), rejecting unknown fields and naming the
offending ``$``-rooted path; ``run_job`` computes from those values alone,
passing the parameters to the runner as keyword arguments, and returns the
report document, a plain dict that ``emit_report`` renders.  Both call the
library through its modules (``quotient.burnside_counts``), which the
package loads on first use, so a job executes only the modules its command
needs.  The text renderer ``jobs_text`` is imported only for ``--format
text``.

This is the job layer of the command line: ``sftact.cli`` reads the
arguments and imports this module only when it runs a job, so that
importing the entry point compiles none of it.  Nothing here imports
``sftact.cli``, which ``python -m sftact.cli`` runs as ``__main__``.
Errors carry their exit code in their family (see ``errors``).
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager

from . import __version__, action, matrices, quotient, reduce, repshift, sft, sse
from .errors import InputError, LimitExceededError
from .intmatrix import IntMatrix
from .records import record

JOB_FORMAT = "sftact-job/1"
REPORT_FORMAT = "sftact-report/1"
FORMATS = ("json", "text")  # the renderings of a report
_MAX_N = 6  # default of "max_n", the number of counts a report lists
_MAX_LENGTH = 10000  # bound of "max_n" and "m"; a report grows linearly in both
# Python 3.11 and later limit int-to-str conversion (0 lifts it); 3.10 has no limit
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
_REPSHIFT_STATE_BOUND = 1000  # most states a repshift report prints as a dense matrix


@record
class JobSpec:
    """A validated job: the document fields that reports echo, and the
    input as its command's parser returned it."""

    command: str
    input: dict
    parameters: dict
    parsed: object

    def __repr__(self) -> str:
        # ``parsed`` is left out: it can be a large matrix or group.
        return f"JobSpec(command={self.command!r}, input={self.input!r}, parameters={self.parameters!r})"

    def document(self) -> dict:
        """Canonical job document (used for provenance echoes and round trips)."""
        return {"format": JOB_FORMAT, "command": self.command, "input": self.input, "parameters": self.parameters}


# ---------------------------------------------------------------------------
# document validation helpers; errors always name the offending path

def _expect(cond, path, message):
    if not cond:
        raise InputError(f"{path}: {message}")


@contextmanager
def _at(path):
    """Prefix input errors raised by library constructors with ``path``."""
    try:
        yield
    except InputError as err:
        raise InputError(f"{path}: {err}") from err


def _get_dict(doc, path):
    _expect(isinstance(doc, dict), path, "expected an object")
    return doc


def _key_path(path, key):
    """The path of ``key`` in the object at ``path``.  A key that is not
    printable is written as a JSON string in brackets, so that a message
    naming it stays on one line."""
    text = str(key)
    return f"{path}.{text}" if text.isprintable() else f"{path}[{json.dumps(text)}]"


def _fields(doc, path, known, required=()):
    """``doc`` as an object whose keys all lie in ``known`` and include ``required``."""
    for key in _get_dict(doc, path):
        _expect(key in known, _key_path(path, key), "unknown field")
    for key in required:
        _field(doc, path, key)
    return doc


def _field(doc, path, key):
    _expect(key in doc, path, f"missing field {key!r}")
    return doc[key]


def _get_int(value, path, minimum=None):
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"expected an integer >= {minimum}")
    return value


def parse_matrix(doc, path) -> IntMatrix:
    """A nonempty array of equally long rows of nonnegative integers, of
    any shape (certificate factors)."""
    _expect(isinstance(doc, list) and doc, path, "expected a nonempty array of rows")
    for i, row in enumerate(doc):
        _expect(isinstance(row, list), f"{path}[{i}]", "expected an array")
        for j, x in enumerate(row):
            _get_int(x, f"{path}[{i}][{j}]")
            _expect(x >= 0, f"{path}[{i}][{j}]", f"matrix entries must be nonnegative, got {x}")
    with _at(path):
        return IntMatrix(tuple(tuple(row) for row in doc))


def parse_states(doc, path) -> IntMatrix:
    """A square matrix: the presentation datum of a shift of finite type."""
    matrix = parse_matrix(doc, path)
    with _at(path):
        matrix.dim  # raises the square error on a rectangular matrix
    return matrix


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_ENTRY_RE = re.compile(r"[+-]?[0-9]+")


def parse_cycles(text, degree, path):
    """1-based cycle notation over 1..degree; cycles compose left to right."""
    _expect(isinstance(text, str), path, "expected a cycle-notation string")
    _expect(_CYCLE_RE.sub("", text).strip() == "", path, f"malformed cycle notation {text!r}")
    perm = list(range(degree))
    for cycle_text in _CYCLE_RE.findall(text):
        entries = [tok for tok in re.split(r"[\s,]+", cycle_text.strip()) if tok]
        if not entries:
            continue
        try:
            # no match is a TypeError; int() refuses numerals past Python's digit limit
            points = [int(_ENTRY_RE.fullmatch(tok)[0]) - 1 for tok in entries]
        except (TypeError, ValueError):
            raise InputError(f"{path}: non-integer entry in cycle {cycle_text!r}") from None
        for pt in points:
            _expect(0 <= pt < degree, path, f"cycle entry {pt + 1} out of range 1..{degree}")
        _expect(len(set(points)) == len(points), path, f"repeated entry in cycle {cycle_text!r}")
        cycle_map = {points[k]: points[(k + 1) % len(points)] for k in range(len(points))}
        perm = [cycle_map.get(perm[i], perm[i]) for i in range(degree)]
    return tuple(perm)


def cycles_of(perm) -> str:
    """1-based cycle notation, each cycle from its least point."""
    seen, parts = set(), []
    for i in range(len(perm)):
        if i not in seen and perm[i] != i:
            cycle = [i]
            while perm[cycle[-1]] != i:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            parts.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(parts) or "()"


def parse_perm_group(doc, degree, path) -> action.PermGroup:
    doc = _fields(doc, path, ("generators", "limit"))
    gens_doc = doc.get("generators")
    _expect(isinstance(gens_doc, list), f"{path}.generators", "expected an array of cycle strings")
    limit = _get_int(doc.get("limit", action.CLOSURE_LIMIT), f"{path}.limit", minimum=1)
    gens = [parse_cycles(g, degree, f"{path}.generators[{k}]") for k, g in enumerate(gens_doc)]
    return action.group_from_generators(degree, gens, limit)


_NAMED_GROUP_RE = re.compile(r"([ZSD])([0-9]+)")


def parse_abstract_group(doc, path) -> repshift.FiniteGroupTable:
    if isinstance(doc, str):
        if doc == "Q8":
            return repshift.quaternion_group()
        match = _NAMED_GROUP_RE.fullmatch(doc)
        try:
            kind, n = match[1], int(match[2])
        except (TypeError, ValueError):  # no match, or past Python's int digit limit
            raise InputError(f"{path}: unknown group name {doc!r}") from None
        _expect(n >= 1, path, "group parameter must be positive")
        build = {"Z": repshift.cyclic_group, "S": repshift.symmetric_group, "D": repshift.dihedral_group}[kind]
        with _at(path):
            return build(n)
    if "name" in _get_dict(doc, path):
        return parse_abstract_group(_fields(doc, path, ("name",))["name"], f"{path}.name")
    _fields(doc, path, ("table", "names"))
    _expect("table" in doc, path, "expected a group name or an explicit table")
    table = doc["table"]
    _expect(isinstance(table, list) and table, f"{path}.table", "expected a nonempty array")
    for i, row in enumerate(table):
        _expect(isinstance(row, list), f"{path}.table[{i}]", "expected an array")
        for j, x in enumerate(row):
            _get_int(x, f"{path}.table[{i}][{j}]")
    names = doc.get("names", [str(k) for k in range(len(table))])
    _expect(isinstance(names, list), f"{path}.names", "expected an array of element names")
    for k, name in enumerate(names):
        _expect(isinstance(name, str), f"{path}.names[{k}]", "expected a string")
        # representation-shift state labels join element names with commas
        _expect("," not in name, f"{path}.names[{k}]", "element names must not contain ','")
    _expect(len(set(names)) == len(names), f"{path}.names", "element names must be pairwise distinct")
    _expect(len(names) == len(table), f"{path}.names", "expected one name per table row")
    with _at(f"{path}.table"):
        return repshift.FiniteGroupTable(names=tuple(names), table=tuple(tuple(row) for row in table))


def parse_word(doc, path):
    _expect(isinstance(doc, list), path, "expected an array of [generator, sign] pairs")
    word = []
    for k, pair in enumerate(doc):
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            f"{path}[{k}]",
            "expected a [generator, sign] pair",
        )
        gen = _get_int(pair[0], f"{path}[{k}][0]", minimum=1)
        sign = _get_int(pair[1], f"{path}[{k}][1]")
        _expect(sign in (1, -1), f"{path}[{k}][1]", "sign must be 1 or -1")
        word.append((gen - 1, sign))
    return tuple(word)


_HNN_WORDS = ("b_relators", "u_gens", "u_relators", "v_gens", "v_relators", "phi_images")


def parse_hnn(doc, path) -> repshift.HnnData:
    if "preset" in _get_dict(doc, path):
        name = _fields(doc, path, ("preset",))["preset"]
        _expect(isinstance(name, str), f"{path}.preset", "expected a preset name")
        return repshift.fibered_preset(name)
    _fields(doc, path, ("b_gens",) + _HNN_WORDS, required=("b_gens", "u_gens", "v_gens", "phi_images"))
    words = {}
    for key in _HNN_WORDS:
        value = doc.get(key, [])
        _expect(isinstance(value, list), f"{path}.{key}", "expected an array of words")
        words[key] = tuple(parse_word(w, f"{path}.{key}[{k}]") for k, w in enumerate(value))
    b_gens = _get_int(doc["b_gens"], f"{path}.b_gens", minimum=0)
    with _at(path):
        return repshift.HnnData(b_gens=b_gens, **words)


def parse_certificate(doc, path) -> sse.ElementarySse:
    doc = _fields(doc, path, ("a", "b", "r", "s"), required=("a", "b", "r", "s"))
    a, b = (parse_states(doc[key], f"{path}.{key}") for key in ("a", "b"))
    r, s = (parse_matrix(doc[key], f"{path}.{key}") for key in ("r", "s"))
    with _at(path):
        return sse.ElementarySse(a=a, b=b, r=r, s=s)


# ---------------------------------------------------------------------------
# command inputs: each parser takes the input object and its path "$.input"

def _act(matrix, group_doc, path) -> action.PermutationAction:
    """The action on ``matrix`` of the permutation group at ``path``; the
    presentation is checked before the group is closed."""
    presentation = sft.SftPresentation(matrix)
    return action.PermutationAction(presentation, parse_perm_group(group_doc, matrix.dim, path))


def _parse_action(doc, path, known=("matrix", "group")) -> action.PermutationAction:
    doc = _fields(doc, path, known)
    matrix = parse_states(_field(doc, path, "matrix"), f"{path}.matrix")
    return _act(matrix, _field(doc, path, "group"), f"{path}.group")


def _parse_invariants(doc, path):
    """(matrix, action or None): the group is optional."""
    doc = _fields(doc, path, ("matrix", "group"))
    matrix = parse_states(_field(doc, path, "matrix"), f"{path}.matrix")
    return matrix, _act(matrix, doc["group"], f"{path}.group") if "group" in doc else None


def _parse_links(doc, path):
    """The links of a certificate chain, or of one certificate given inline."""
    if "chain" not in doc:
        return (parse_certificate(doc, path),)
    chain = _fields(doc, path, ("chain",))["chain"]
    _expect(isinstance(chain, list) and chain, f"{path}.chain", "expected a nonempty array")
    links = tuple(parse_certificate(link, f"{path}.chain[{k}]") for k, link in enumerate(chain))
    with _at(f"{path}.chain"):
        return sse.SseChain(links).links


def _parse_transport(doc, path):
    """(certificate, action on its a, action on its b)."""
    doc = _fields(doc, path, ("certificate", "phi", "psi"), required=("certificate", "phi", "psi"))
    cert = parse_certificate(doc["certificate"], f"{path}.certificate")
    return cert, _act(cert.a, doc["phi"], f"{path}.phi"), _act(cert.b, doc["psi"], f"{path}.psi")


def _parse_split(doc, path):
    """(action, SplitData); partitions list 1-based target (out) or source
    (in) states per block."""
    act = _parse_action(doc, path, ("matrix", "group", "direction", "partition"))
    direction = doc.get("direction", "out")
    _expect(direction in ("out", "in"), f"{path}.direction", "expected 'out' or 'in'")
    partition_doc = doc.get("partition")
    _expect(isinstance(partition_doc, list), f"{path}.partition", "expected an array (one entry per state)")
    blocks = []
    for i, state_blocks in enumerate(partition_doc):
        state_path = f"{path}.partition[{i}]"
        _expect(isinstance(state_blocks, list) and state_blocks, state_path, "expected a nonempty array of blocks")
        state_out = []
        for k, block in enumerate(state_blocks):
            block_path = f"{state_path}[{k}]"
            _expect(isinstance(block, list) and block, block_path, "expected a nonempty array of states")
            edges = []
            for t, other in enumerate(block):
                o = _get_int(other, f"{block_path}[{t}]", minimum=1) - 1
                edges.append((i, o, 0) if direction == "out" else (o, i, 0))
            state_out.append(tuple(edges))
        blocks.append(tuple(state_out))
    return act, sse.SplitData(direction, tuple(blocks))


def _parse_repshift(doc, path):
    """(HnnData, FiniteGroupTable)."""
    doc = _fields(doc, path, ("hnn", "group"))
    hnn = parse_hnn(_field(doc, path, "hnn"), f"{path}.hnn")
    return hnn, parse_abstract_group(_field(doc, path, "group"), f"{path}.group")


def parse_job(text: str, command: str = None, overrides=()) -> JobSpec:
    """Decode and validate a job document and parse its input once;
    diagnostics name the offending path.  ``command``, the subcommand of a
    command-line run, is the document's default command and must agree
    with it; ``overrides``, its flags, join the parameters before
    validation, so that they obey the same rules."""
    try:
        doc = json.loads(text)
    except ValueError as err:  # also an integer literal beyond Python's digit limit
        raise InputError(f"malformed JSON document: {err}") from err
    doc = _get_dict(doc, "$")
    fmt = doc.get("format", JOB_FORMAT)
    _expect(fmt == JOB_FORMAT, "$.format", f"unsupported format {fmt!r}")
    _expect("command" in doc or command is not None, "$", "missing command")
    name = doc.get("command", command)
    _expect(name in COMMANDS, "$.command", f"unknown command {name!r}")
    input_doc = _get_dict(doc.get("input", {}), "$.input")
    params = {**_get_dict(doc.get("parameters", {}), "$.parameters"), **dict(overrides)}
    parse_input, _, reads = _COMMAND_TABLE[name]
    for key, value in params.items():
        path = _key_path("$.parameters", key)
        _expect(key in reads, path, "unknown parameter")
        _get_int(value, path, minimum=1)
        _expect(key == "limit" or value <= _MAX_LENGTH, path, f"expected an integer <= {_MAX_LENGTH}")
    parsed = parse_input(input_doc, "$.input")
    _expect(command in (None, name), "$.command", f"document says {name!r} but the subcommand is {command!r}")
    return JobSpec(command=name, input=input_doc, parameters=params, parsed=parsed)


# ---------------------------------------------------------------------------
# command implementations: each runner takes the parsed input and, as
# keyword arguments, the parameters its table row says it reads

def _matrix_doc(m: IntMatrix):
    out = {"entries": [list(row) for row in m.entries]}
    if m.labels is not None:
        out["labels"] = list(m.labels)
    return out


def _poly_doc(p):
    return list(p.coefficients)


def _bf_doc(inv):
    return {"torsion": list(inv.torsion), "free_rank": inv.free_rank}


def _run_reduce(act):
    right = reduce.right_reduce(act)
    left = reduce.left_reduce(act)
    orbits = [[s + 1 for s in orbit] for orbit in act.orbits.orbits]
    return {
        "orbits": orbits,
        "right": _matrix_doc(right.matrix),
        "left": _matrix_doc(left.matrix),
        "u_selector": [list(r) for r in right.u_selector.entries],
        "v_selector": [list(r) for r in right.v_selector.entries],
    }


def _invariants_doc(m, **fields):
    return dict(
        fields,
        char_poly_reciprocal=_poly_doc(matrices.char_poly_reciprocal(m)),
        bowen_franks=_bf_doc(matrices.bowen_franks(m)),
    )


def _run_invariants(parsed):
    matrix, act = parsed
    result = _invariants_doc(matrix)
    if act is not None:
        for side, reduced in (("right", reduce.right_reduce(act)), ("left", reduce.left_reduce(act))):
            result[side] = _invariants_doc(reduced.matrix, matrix=_matrix_doc(reduced.matrix))
    return result


def _run_classify(act):
    verdict = quotient.classify_quotient(act)
    # the elements are distinct permutations: only the identity fixes every state
    result = {"verdict": verdict.verdict, "kernel": ["()"]}
    if verdict.witness is not None:
        g, cycle = verdict.witness
        result["witness"] = {
            "element": cycles_of(act.group.elements[g]),
            "cycle_states": [s + 1 for s in cycle.states],
        }
    return result


def _edge_doc(edges):
    return [[e[0] + 1, e[1] + 1, e[2]] for e in edges]


def _run_witness(act, m=1):
    verdict = quotient.classify_quotient(act)
    witness, x_window, y_window, zero = quotient.nonexpansive_witness(act, verdict, m)
    return {
        "m": m,
        "element": cycles_of(act.group.elements[witness.g]),
        "u": _edge_doc(witness.u),
        "v": _edge_doc(witness.v),
        "w": _edge_doc(witness.w),
        "w_prime": _edge_doc(witness.w_prime),
        "x_window": _edge_doc(x_window),
        "y_window": _edge_doc(y_window),
        "zero_offset": zero,
    }


def _run_burnside(act, max_n=_MAX_N):
    report = quotient.burnside_counts(act, max_n)
    return {
        "counts": list(report.counts),
        "recurrence": _poly_doc(report.recurrence),
        "element_traces": [list(row) for row in report.element_traces],
    }


def _run_quotient_counts(act, max_n=_MAX_N):
    return {"counts": quotient.quotient_period_counts(act, max_n)}


def _run_verify_sse(links):
    results = [sse.verify_elementary_sse(link) for link in links]
    return {"links": results, "valid": all(results)}


def _certificate_doc(cert, **fields):
    """``fields`` with the factors of ``cert`` and whether it verifies."""
    r, s = ([list(row) for row in m.entries] for m in (cert.r, cert.s))
    return dict(fields, r=r, s=s, verified=sse.verify_elementary_sse(cert))


def _run_transport(parsed):
    out = sse.transport_certificate(*parsed)
    return _certificate_doc(out, a_reduced=_matrix_doc(out.a), b_reduced=_matrix_doc(out.b))


def _run_split(parsed):
    act, data = parsed
    split_fn = sse.out_split if data.direction == "out" else sse.in_split
    with _at("$.input.partition"):
        new_action, cert = split_fn(act, data)
    return _certificate_doc(
        cert,
        direction=data.direction,
        matrix=_matrix_doc(new_action.matrix),
        group_generators=[cycles_of(p) for p in new_action.group.elements[1:]],
    )


def _build_repshift(parsed, budget):
    """The representation shift of (HnnData, group) under the hom ``limit``
    in ``budget``, if any; its input errors name the HNN data."""
    with _at("$.input.hnn"):
        return repshift.build_repshift(*parsed, **budget)


def _run_repshift(parsed, max_n=_MAX_N, **budget):
    shift = _build_repshift(parsed, budget)
    states = shift.presentation.num_states
    if states > _REPSHIFT_STATE_BOUND:
        raise LimitExceededError(
            f"the representation shift has {states} states, more than the {_REPSHIFT_STATE_BOUND} "
            f"a repshift report prints as a dense matrix; tqft and bundle-counts report on it"
        )
    return {
        "states": list(shift.presentation.matrix.labels),
        "matrix": _matrix_doc(shift.presentation.matrix),
        "period_counts": matrices.trace_sequence(shift.presentation.matrix, max_n),
        "conjugation_order": shift.action.group.order,
    }


def _run_tqft(parsed, **budget):
    out = repshift.tqft_matrix(_build_repshift(parsed, budget))
    return {
        "basis": list(out.basis),
        "matrix": _matrix_doc(out.reduced.matrix),
    }


def _run_bundle_counts(parsed, max_n=_MAX_N, **budget):
    report = repshift.flat_bundle_counts(_build_repshift(parsed, budget), max_n)
    return {
        "counts": list(report.counts),
        "recurrence": _poly_doc(report.recurrence),
    }


# command -> (input parser, runner, the parameters the runner reads); any
# other parameter is an input error.  The order is the order of the usage text.
_COMMAND_TABLE = {
    "reduce": (_parse_action, _run_reduce, ()),
    "invariants": (_parse_invariants, _run_invariants, ()),
    "classify": (_parse_action, _run_classify, ()),
    "witness": (_parse_action, _run_witness, ("m",)),
    "burnside": (_parse_action, _run_burnside, ("max_n",)),
    "quotient-counts": (_parse_action, _run_quotient_counts, ("max_n",)),
    "verify-sse": (_parse_links, _run_verify_sse, ()),
    "transport": (_parse_transport, _run_transport, ()),
    "split": (_parse_split, _run_split, ()),
    "repshift": (_parse_repshift, _run_repshift, ("max_n", "limit")),
    "tqft": (_parse_repshift, _run_tqft, ("limit",)),
    "bundle-counts": (_parse_repshift, _run_bundle_counts, ("max_n", "limit")),
}
COMMANDS = tuple(_COMMAND_TABLE)


def run_job(job: JobSpec) -> dict:
    _, run, _ = _COMMAND_TABLE[job.command]
    result = run(job.parsed, **job.parameters)
    return {"format": REPORT_FORMAT, "version": __version__, "command": job.command,
            "input": job.document(), "result": result}


def emit_report(report: dict, format: str = "json") -> str:
    """Deterministic rendering of a report document; byte-identical across runs.

    Exact results of any size print in full: Python's limit on converting
    integers to text is lifted while the report renders, then restored.
    """
    if format not in FORMATS:
        raise InputError(f"unknown output format {format!r}")
    previous = _digit_limit()
    _set_digit_limit(0)
    try:
        if format == "json":
            return json.dumps(report, sort_keys=True, indent=2) + "\n"
        from .jobs_text import render_text

        return render_text(report["command"], report["result"])
    finally:
        _set_digit_limit(previous)
