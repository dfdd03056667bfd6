"""JSON job documents and the command-line surface.

A job document is ``{"format": "sftact-job/1", "command": ..., "input":
{...}, "parameters": {...}}``.  Permutations are written in 1-based cycle
notation like "(1 2)(3 4 5 6)"; group words are lists of
[generator, sign] pairs with 1-based generators; abstract groups may be
named (Zn, Sn, Dn, Q8) or given as an explicit multiplication table.
Reports serialize deterministically: stable key order, exact decimal
integers.

Each command has one input parser and one runner.  ``parse_job`` parses
the input once into library values (actions, matrices, certificates,
HNN data, groups), rejecting unknown fields and naming the offending
``$``-rooted path; ``run_job`` computes from those values alone.  Both
call the library through its modules (``quotient.burnside_counts``), which
the package loads on first use, so a job executes only the modules its
command needs.

Exit codes: 0 success, 1 input errors, 2 mathematical precondition
failures, 3 closure or homomorphism limit exhaustion.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager

from . import __version__, action, matrices, quotient, reduce, repshift, sft, sse
from .errors import InputError, LimitExceededError, PreconditionError
from .records import record

JOB_FORMAT = "sftact-job/1"
REPORT_FORMAT = "sftact-report/1"
PARAMETERS = ("max_n", "limit", "m")
_HOM_LIMIT = 1000000  # default "limit" of the representation-shift commands


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
        return (
            f"JobSpec(command={self.command!r}, input={self.input!r}, "
            f"parameters={self.parameters!r})"
        )

    def document(self) -> dict:
        """Canonical job document (used for provenance echoes and round trips)."""
        return {
            "format": JOB_FORMAT,
            "command": self.command,
            "input": self.input,
            "parameters": self.parameters,
        }


@record
class Report:
    command: str
    input: dict
    result: dict

    def document(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": __version__,
            "command": self.command,
            "input": self.input,
            "result": self.result,
        }


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


def _fields(doc, path, known):
    """``doc`` as an object whose keys all lie in ``known``."""
    for key in _get_dict(doc, path):
        _expect(key in known, f"{path}.{key}", "unknown field")
    return doc


def _field(doc, path, key):
    _expect(key in doc, path, f"missing field {key!r}")
    return doc[key]


def _get_int(value, path, minimum=None):
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"expected an integer >= {minimum}")
    return value


def parse_matrix(doc, path) -> matrices.IntMatrix:
    """A nonempty array of equally long rows of nonnegative integers, of
    any shape (certificate factors)."""
    _expect(isinstance(doc, list) and doc, path, "expected a nonempty array of rows")
    for i, row in enumerate(doc):
        _expect(isinstance(row, list), f"{path}[{i}]", "expected an array")
        for j, x in enumerate(row):
            _get_int(x, f"{path}[{i}][{j}]")
            _expect(x >= 0, f"{path}[{i}][{j}]", f"matrix entries must be nonnegative, got {x}")
    with _at(path):
        return matrices.IntMatrix(tuple(tuple(row) for row in doc))


def parse_states(doc, path) -> matrices.IntMatrix:
    """A square matrix: the presentation datum of a shift of finite type."""
    matrix = parse_matrix(doc, path)
    with _at(path):
        matrix.dim  # raises the square error on a rectangular matrix
    return matrix


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree, path):
    """1-based cycle notation over 1..degree; cycles compose left to right."""
    _expect(isinstance(text, str), path, "expected a cycle-notation string")
    stripped = text.replace(" ", "").replace(",", "")
    _expect(
        stripped == "()" or _CYCLE_RE.sub("", text.strip()).strip() == "",
        path,
        f"malformed cycle notation {text!r}",
    )
    perm = list(range(degree))
    for cycle_text in _CYCLE_RE.findall(text):
        entries = [tok for tok in re.split(r"[\s,]+", cycle_text.strip()) if tok]
        if not entries:
            continue
        try:
            points = [int(tok) - 1 for tok in entries]
        except ValueError:
            raise InputError(f"{path}: non-integer entry in cycle {cycle_text!r}") from None
        for pt in points:
            _expect(0 <= pt < degree, path, f"cycle entry {pt + 1} out of range 1..{degree}")
        _expect(len(set(points)) == len(points), path, f"repeated entry in cycle {cycle_text!r}")
        cycle_map = {points[k]: points[(k + 1) % len(points)] for k in range(len(points))}
        perm = [cycle_map.get(perm[i], perm[i]) for i in range(degree)]
    return tuple(perm)


def cycles_of(perm) -> str:
    seen = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cycle = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(parts) if parts else "()"


def parse_perm_group(doc, degree, path) -> action.PermGroup:
    doc = _fields(doc, path, ("generators", "limit"))
    gens_doc = doc.get("generators")
    _expect(isinstance(gens_doc, list), f"{path}.generators", "expected an array of cycle strings")
    limit = _get_int(doc.get("limit", 100000), f"{path}.limit", minimum=1)
    gens = [parse_cycles(g, degree, f"{path}.generators[{k}]") for k, g in enumerate(gens_doc)]
    return action.group_from_generators(degree, gens, limit)


_NAMED_GROUP_RE = re.compile(r"^([ZSD])(\d+)$")


def parse_abstract_group(doc, path) -> repshift.FiniteGroupTable:
    if isinstance(doc, str):
        if doc == "Q8":
            return repshift.quaternion_group()
        match = _NAMED_GROUP_RE.match(doc)
        _expect(match is not None, path, f"unknown group name {doc!r}")
        kind, n = match.group(1), int(match.group(2))
        _expect(n >= 1, path, "group parameter must be positive")
        build = {
            "Z": repshift.cyclic_group,
            "S": repshift.symmetric_group,
            "D": repshift.dihedral_group,
        }[kind]
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
    _fields(doc, path, ("b_gens",) + _HNN_WORDS)
    for key in ("b_gens", "u_gens", "v_gens", "phi_images"):
        _field(doc, path, key)
    words = {}
    for key in _HNN_WORDS:
        value = doc.get(key, [])
        _expect(isinstance(value, list), f"{path}.{key}", "expected an array of words")
        words[key] = tuple(parse_word(w, f"{path}.{key}[{k}]") for k, w in enumerate(value))
    b_gens = _get_int(doc["b_gens"], f"{path}.b_gens", minimum=0)
    with _at(path):
        return repshift.HnnData(b_gens=b_gens, **words)


def parse_certificate(doc, path) -> sse.ElementarySse:
    doc = _fields(doc, path, ("a", "b", "r", "s"))
    for key in ("a", "b", "r", "s"):
        _field(doc, path, key)
    a, b = (parse_states(doc[key], f"{path}.{key}") for key in ("a", "b"))
    r, s = (parse_matrix(doc[key], f"{path}.{key}") for key in ("r", "s"))
    with _at(path):
        return sse.ElementarySse(a=a, b=b, r=r, s=s)


# ---------------------------------------------------------------------------
# command inputs: each parser takes the input object and its path "$.input"

def _act(matrix, group_doc, path) -> action.PermutationAction:
    """The action on ``matrix`` of the permutation group at ``path``; the
    presentation is checked before the group is closed."""
    presentation = sft.SftPresentation.from_matrix(matrix)
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
    doc = _fields(doc, path, ("certificate", "phi", "psi"))
    for key in ("certificate", "phi", "psi"):
        _field(doc, path, key)
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


def parse_job(text: str) -> JobSpec:
    """Decode and validate a job document; diagnostics name the offending path."""
    return job_from_document(_load_document(text))


def _load_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"malformed JSON document: {err}") from err


def job_from_document(doc) -> JobSpec:
    """Validate a decoded job document and parse its input once;
    diagnostics name the offending path."""
    doc = _get_dict(doc, "$")
    fmt = doc.get("format", JOB_FORMAT)
    _expect(fmt == JOB_FORMAT, "$.format", f"unsupported format {fmt!r}")
    _expect("command" in doc, "$", "missing command")
    command = doc["command"]
    _expect(command in COMMANDS, "$.command", f"unknown command {command!r}")
    input_doc = _get_dict(doc.get("input", {}), "$.input")
    params = _get_dict(doc.get("parameters", {}), "$.parameters")
    for key, value in params.items():
        _expect(key in PARAMETERS, f"$.parameters.{key}", "unknown parameter")
        _get_int(value, f"$.parameters.{key}", minimum=1)
    parse_input, _ = _COMMAND_TABLE[command]
    parsed = parse_input(input_doc, "$.input")
    return JobSpec(command=command, input=input_doc, parameters=params, parsed=parsed)


# ---------------------------------------------------------------------------
# command implementations: each runner takes (parsed input, parameters)

def _matrix_doc(m: matrices.IntMatrix):
    out = {"entries": [list(row) for row in m.entries]}
    if m.labels is not None:
        out["labels"] = list(m.labels)
    return out


def _poly_doc(p):
    return list(p.coefficients)


def _bf_doc(inv):
    return {"torsion": list(inv.torsion), "free_rank": inv.free_rank}


def _run_reduce(act, parameters):
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


def _run_invariants(parsed, parameters):
    matrix, act = parsed
    result = {
        "char_poly_reciprocal": _poly_doc(matrices.char_poly_reciprocal(matrix)),
        "bowen_franks": _bf_doc(matrices.bowen_franks(matrix)),
    }
    if act is not None:
        for side, reduced in (("right", reduce.right_reduce(act)), ("left", reduce.left_reduce(act))):
            result[side] = {
                "matrix": _matrix_doc(reduced.matrix),
                "char_poly_reciprocal": _poly_doc(matrices.char_poly_reciprocal(reduced.matrix)),
                "bowen_franks": _bf_doc(matrices.bowen_franks(reduced.matrix)),
            }
    return result


def _run_classify(act, parameters):
    verdict = quotient.classify_quotient(act)
    result = {
        "verdict": verdict.verdict,
        "kernel": [cycles_of(act.group.elements[g]) for g in verdict.kernel],
    }
    if verdict.witness is not None:
        g, cycle = verdict.witness
        result["witness"] = {
            "element": cycles_of(act.group.elements[g]),
            "cycle_states": [s + 1 for s in cycle.states],
        }
    return result


def _edge_doc(edges):
    return [[e[0] + 1, e[1] + 1, e[2]] for e in edges]


def _run_witness(act, parameters):
    m = parameters.get("m", 1)
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


def _run_burnside(act, parameters):
    report = quotient.burnside_counts(act, parameters.get("max_n", 6))
    return {
        "counts": list(report.counts),
        "recurrence": _poly_doc(report.recurrence),
        "element_traces": [list(row) for row in report.element_traces],
    }


def _run_quotient_counts(act, parameters):
    return {"counts": quotient.quotient_period_counts(act, parameters.get("max_n", 6))}


def _run_verify_sse(links, parameters):
    results = [sse.verify_elementary_sse(link) for link in links]
    return {"links": results, "valid": all(results)}


def _run_transport(parsed, parameters):
    out = sse.transport_certificate(*parsed)
    return {
        "a_reduced": _matrix_doc(out.a),
        "b_reduced": _matrix_doc(out.b),
        "r": [list(row) for row in out.r.entries],
        "s": [list(row) for row in out.s.entries],
        "verified": sse.verify_elementary_sse(out),
    }


def _run_split(parsed, parameters):
    act, data = parsed
    split_fn = sse.out_split if data.direction == "out" else sse.in_split
    with _at("$.input.partition"):
        new_action, cert = split_fn(act, data)
    return {
        "direction": data.direction,
        "matrix": _matrix_doc(new_action.matrix),
        "r": [list(row) for row in cert.r.entries],
        "s": [list(row) for row in cert.s.entries],
        "group_generators": [cycles_of(p) for p in new_action.group.elements[1:]],
        "verified": sse.verify_elementary_sse(cert),
    }


def _build_repshift(parsed, parameters):
    """The representation shift of (HnnData, group); its input errors name the HNN data."""
    with _at("$.input.hnn"):
        return repshift.build_repshift(*parsed, parameters.get("limit", _HOM_LIMIT))


def _run_repshift(parsed, parameters):
    shift = _build_repshift(parsed, parameters)
    m = parameters.get("max_n", 6)
    return {
        "states": list(shift.presentation.matrix.labels),
        "matrix": _matrix_doc(shift.presentation.matrix),
        "period_counts": matrices.trace_sequence(shift.presentation.matrix, m),
        "conjugation_order": shift.action.group.order,
    }


def _run_tqft(parsed, parameters):
    out = repshift.tqft_matrix(_build_repshift(parsed, parameters))
    return {
        "basis": list(out.basis),
        "matrix": _matrix_doc(out.reduced.matrix),
    }


def _run_bundle_counts(parsed, parameters):
    report = repshift.flat_bundle_counts(_build_repshift(parsed, parameters), parameters.get("max_n", 6))
    return {
        "counts": list(report.counts),
        "recurrence": _poly_doc(report.recurrence),
    }


# command -> (input parser, runner); the order is the order of the usage text
_COMMAND_TABLE = {
    "reduce": (_parse_action, _run_reduce),
    "invariants": (_parse_invariants, _run_invariants),
    "classify": (_parse_action, _run_classify),
    "witness": (_parse_action, _run_witness),
    "burnside": (_parse_action, _run_burnside),
    "quotient-counts": (_parse_action, _run_quotient_counts),
    "verify-sse": (_parse_links, _run_verify_sse),
    "transport": (_parse_transport, _run_transport),
    "split": (_parse_split, _run_split),
    "repshift": (_parse_repshift, _run_repshift),
    "tqft": (_parse_repshift, _run_tqft),
    "bundle-counts": (_parse_repshift, _run_bundle_counts),
}
COMMANDS = tuple(_COMMAND_TABLE)


def run_job(job: JobSpec) -> Report:
    _, run = _COMMAND_TABLE[job.command]
    result = run(job.parsed, job.parameters)
    return Report(command=job.command, input=job.document(), result=result)


# ---------------------------------------------------------------------------
# rendering

def _render_matrix_lines(doc, indent=""):
    entries = doc["entries"]
    width = max(len(str(x)) for row in entries for x in row)
    lines = []
    labels = doc.get("labels")
    label_w = max((len(l) for l in labels), default=0) if labels else 0
    for i, row in enumerate(entries):
        prefix = f"{labels[i]:>{label_w}} " if labels else ""
        lines.append(indent + prefix + "[" + " ".join(f"{x:>{width}}" for x in row) + "]")
    return lines


def bf_text(doc) -> str:
    parts = [f"Z/{d}" for d in doc["torsion"]]
    free = doc["free_rank"]
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    return " + ".join(parts) if parts else "0"


def poly_text(coeffs) -> str:
    if not coeffs:
        return "0"
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}t^{k}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms)


def _render_value(key, value, lines, indent=""):
    if isinstance(value, dict) and "entries" in value:
        lines.append(f"{indent}{key}:")
        lines.extend(_render_matrix_lines(value, indent + "  "))
    elif isinstance(value, dict) and set(value) == {"torsion", "free_rank"}:
        lines.append(f"{indent}BF group: {bf_text(value)}")
    elif isinstance(value, dict):
        lines.append(f"{indent}{key}:")
        for k in value:
            _render_value(k, value[k], lines, indent + "  ")
    elif key in ("recurrence", "char_poly_reciprocal"):
        lines.append(f"{indent}{key}: {poly_text(value)}")
    elif isinstance(value, list) and value and isinstance(value[0], list) and value and all(
        isinstance(x, int) for row in value for x in row if isinstance(row, list)
    ):
        lines.append(f"{indent}{key}:")
        lines.extend(_render_matrix_lines({"entries": value}, indent + "  "))
    else:
        lines.append(f"{indent}{key}: {value}")
    return lines


def emit_report(report: Report, format: str = "json") -> str:
    """Deterministic rendering of a report; byte-identical across runs."""
    if format == "json":
        return json.dumps(report.document(), sort_keys=True, indent=2) + "\n"
    if format != "text":
        raise InputError(f"unknown output format {format!r}")
    lines = [f"command: {report.command}"]
    for key in sorted(report.result):
        _render_value(key, report.result[key], lines)
    return "\n".join(lines) + "\n"


def emit_job(job: JobSpec) -> str:
    """Canonical serialization of a job document."""
    return json.dumps(job.document(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors: one stderr line and exit 1."""

    def error(self, message):
        raise InputError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="sftact",
        description="exact computations with finite group actions on shifts of finite type",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", default="-", help="job document path, or - for stdin")
    parser.add_argument("--format", default="json", choices=("json", "text"))
    parser.add_argument("--limit", type=int, default=None, help="homomorphism enumeration limit override")
    parser.add_argument("--max-n", type=int, default=None, help="number of counts to compute")
    try:
        args = parser.parse_args(argv)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as err:
        print(f"error: cannot read input: {err}", file=sys.stderr)
        return 1

    overrides = {"limit": args.limit, "max_n": args.max_n}
    try:
        doc = _load_document(text)
        if isinstance(doc, dict):
            doc.setdefault("command", args.command)
            # overrides join the document before validation, so they obey the
            # same parameter rules; validation rejects non-object parameters
            params = doc.setdefault("parameters", {})
            if isinstance(params, dict):
                params.update((k, v) for k, v in overrides.items() if v is not None)
        job = job_from_document(doc)
        if job.command != args.command:
            raise InputError(
                f"$.command: document says {job.command!r} but the subcommand is {args.command!r}"
            )
        report = run_job(job)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except PreconditionError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return 2
    except LimitExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return 3
    sys.stdout.write(emit_report(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
