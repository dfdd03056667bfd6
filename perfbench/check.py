"""Output checks for benchmark reports.

Every check recomputes what it compares with ``plain`` helpers or sympy,
never with sftact.  Fixed jobs are also compared byte for byte with the
expected reports in ``expected/``; seeded jobs are, at the default seed.
For any seed the paper's identities are checked: the element-trace table
sums to |G| times the Burnside counts, quotient counts equal the trace
powers of both reduced matrices, every certificate satisfies RS = A and
SR = B, and reciprocal characteristic polynomials agree with sympy.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path

import plain

EXPECTED = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 0
REPORT_FORMAT = "sftact-report/1"


def expected_path(workload: str, job) -> Path:
    return EXPECTED / workload / f"{job.id}.json"


def check(workload: str, job, seed: int, output: bytes) -> list:
    """Problems found in one report; an empty list means it passed."""
    path = expected_path(workload, job)
    if (not job.seeded or seed == DEFAULT_SEED) and path.is_file() and path.read_bytes() != output:
        return [f"{job.id}: report differs from {path.relative_to(EXPECTED.parent)}"]
    try:
        report = json.loads(output)
        problems = [] if report.get("format") == REPORT_FORMAT else ["wrong report format"]
        if report.get("command") != job.command or report.get("input") != job.doc:
            problems.append("report does not echo the job document")
        problems += _CHECKS[job.command](job.doc["input"], job.doc["parameters"], report["result"])
    except (ValueError, KeyError, TypeError, IndexError) as err:
        problems = [f"malformed report: {type(err).__name__}: {err}"]
    return [f"{job.id}: {p}" for p in problems]


def _gens(group_doc, n):
    return [plain.parse_cycles(text, n) for text in group_doc["generators"]]


def _charpoly(a) -> list:
    """det(I - tA) via sympy: the coefficients of det(lambda I - A), highest first."""
    import sympy

    return plain.strip(int(c) for c in sympy.Matrix(a).charpoly().all_coeffs())


def _poly_problems(a, coeffs, what) -> list:
    return [] if plain.strip(coeffs) == _charpoly(a) else [f"{what}: char poly disagrees with sympy"]


def _bowen_franks_problems(a, coeffs, bf, what) -> list:
    """Free rank is the nullity of I - A; with no free part the torsion
    orders multiply to |det(I - A)|, which is the char poly at t = 1."""
    n = len(a)
    nullity = n - plain.rank([[int(i == j) - a[i][j] for j in range(n)] for i in range(n)])
    torsion = bf["torsion"]
    ok = bf["free_rank"] == nullity and all(t > 1 for t in torsion)
    ok = ok and all(torsion[k + 1] % torsion[k] == 0 for k in range(len(torsion) - 1))
    if nullity == 0:
        ok = ok and prod(torsion) == abs(sum(coeffs))
    return [] if ok else [f"{what}: Bowen-Franks group {bf} is inconsistent with I - A"]


def _recurrence_problems(recurrence, terms) -> list:
    c = plain.strip(recurrence)
    for n in range(len(c) - 1, len(terms)):
        if sum(c[k] * terms[n - k] for k in range(len(c))) != 0:
            return ["recurrence does not annihilate the counts"]
    return []


def _sse_ok(a, b, r, s) -> bool:
    return plain.matmul(r, s) == a and plain.matmul(s, r) == b


def _is_path(a, edges, closed=False) -> bool:
    ok = all(a[i - 1][j - 1] > c for i, j, c in edges)
    ok = ok and all(edges[k][1] == edges[k + 1][0] for k in range(len(edges) - 1))
    return ok and (not closed or not edges or edges[-1][1] == edges[0][0])


def _reduce(inp, params, res) -> list:
    a = inp["matrix"]
    n = len(a)
    orbs = plain.orbits(_gens(inp["group"], n), n)
    problems = []
    if res["orbits"] != [[s + 1 for s in o] for o in orbs]:
        problems.append("orbits disagree")
    if res["right"]["entries"] != plain.right_reduced(a, orbs):
        problems.append("right-reduced matrix disagrees")
    if res["left"]["entries"] != plain.left_reduced(a, orbs):
        problems.append("left-reduced matrix disagrees")
    if res["u_selector"] != [[int(j == o[0]) for j in range(n)] for o in orbs]:
        problems.append("u_selector disagrees")
    if res["v_selector"] != [[int(i in o) for o in orbs] for i in range(n)]:
        problems.append("v_selector disagrees")
    return problems


def _invariants(inp, params, res) -> list:
    a = inp["matrix"]
    problems = _poly_problems(a, res["char_poly_reciprocal"], "matrix")
    problems += _bowen_franks_problems(a, res["char_poly_reciprocal"], res["bowen_franks"], "matrix")
    if "group" in inp:
        orbs = plain.orbits(_gens(inp["group"], len(a)), len(a))
        for side, reduced in (("right", plain.right_reduced(a, orbs)), ("left", plain.left_reduced(a, orbs))):
            part = res[side]
            if part["matrix"]["entries"] != reduced:
                problems.append(f"{side}-reduced matrix disagrees")
            problems += _poly_problems(reduced, part["char_poly_reciprocal"], side)
            problems += _bowen_franks_problems(reduced, part["char_poly_reciprocal"], part["bowen_franks"], side)
    return problems


def _fixed_states(g) -> list:
    return [i for i in range(len(g)) if g[i] == i]


def _classify(inp, params, res) -> list:
    a = inp["matrix"]
    n = len(a)
    identity = tuple(range(n))
    group = plain.closure(_gens(inp["group"], n), n)
    nonexpansive = any(g != identity and plain.has_cycle(a, _fixed_states(g)) for g in group)
    problems = []
    if res["verdict"] != ("nonexpansive" if nonexpansive else "constant-to-one"):
        problems.append(f"verdict {res['verdict']} is wrong")
    if res["kernel"] != ["()"]:
        problems.append("a permutation group acts faithfully; the kernel must be trivial")
    if "witness" in res:
        g = plain.parse_cycles(res["witness"]["element"], n)
        states = [s - 1 for s in res["witness"]["cycle_states"]]
        cycle = all(a[states[k]][states[(k + 1) % len(states)]] for k in range(len(states)))
        if g == identity or g not in group or any(g[s] != s for s in states) or not cycle:
            problems.append("witness is not a cycle fixed by a nontrivial element")
    return problems


def _witness(inp, params, res) -> list:
    a = inp["matrix"]
    n = len(a)
    g = plain.parse_cycles(res["element"], n)
    problems = []
    if res["m"] != params.get("m", 1) or g == tuple(range(n)):
        problems.append("wrong block radius or trivial element")
    if not (_is_path(a, res["u"], closed=True) and _is_path(a, res["v"], closed=True)):
        problems.append("u and v must be cycles")
    if any(g[i - 1] != i - 1 for i, _j, _c in res["u"]):
        problems.append("the element must fix u")
    if not all(_is_path(a, res[k]) for k in ("w", "w_prime", "x_window", "y_window")):
        problems.append("connecting paths or windows are not paths")
    if len(res["x_window"]) != len(res["y_window"]) or not 0 <= res["zero_offset"] < len(res["x_window"]):
        problems.append("window shapes disagree")
    return problems


def _burnside(inp, params, res) -> list:
    a = inp["matrix"]
    n = len(a)
    m = params.get("max_n", 6)
    group = plain.closure(_gens(inp["group"], n), n)
    table, counts = res["element_traces"], res["counts"]
    problems = []
    if len(counts) != m or len(table) != len(group):
        problems.append("table shape disagrees with the group order")
    elif any(sum(row[k] for row in table) != len(group) * counts[k] for k in range(m)):
        problems.append("element traces do not sum to |G| times the counts")
    own = []
    for g in group:
        fixed = _fixed_states(g)
        sub = [[a[i][j] for j in fixed] for i in fixed] or [[0]]
        own.append(plain.traces(sub, m))
    if sorted(table) != sorted(own):
        problems.append("element trace rows disagree with the fixed submatrices")
    return problems + _recurrence_problems(res["recurrence"], counts)


def _quotient_counts(inp, params, res) -> list:
    a = inp["matrix"]
    m = params.get("max_n", 6)
    orbs = plain.orbits(_gens(inp["group"], len(a)), len(a))
    right = plain.traces(plain.right_reduced(a, orbs), m)
    left = plain.traces(plain.left_reduced(a, orbs), m)
    if res["counts"] != right or res["counts"] != left:
        return ["counts differ from the trace powers of the reduced matrices"]
    return []


def _verify_sse(inp, params, res) -> list:
    links = inp["chain"] if "chain" in inp else [inp]
    own = [_sse_ok(k["a"], k["b"], k["r"], k["s"]) for k in links]
    return [] if res == {"links": own, "valid": all(own)} else ["link verdicts disagree"]


def _transport(inp, params, res) -> list:
    cert = inp["certificate"]
    a_red, b_red = res["a_reduced"]["entries"], res["b_reduced"]["entries"]
    problems = [] if _sse_ok(a_red, b_red, res["r"], res["s"]) and res["verified"] is True else [
        "transported certificate fails RS = A, SR = B"
    ]
    for key, side in (("a", "phi"), ("b", "psi")):
        m = cert[key]
        reduced = plain.right_reduced(m, plain.orbits(_gens(inp[side], len(m)), len(m)))
        if res[f"{key}_reduced"]["entries"] != reduced:
            problems.append(f"{key}_reduced disagrees")
    return problems


def _split(inp, params, res) -> list:
    a, b = inp["matrix"], res["matrix"]["entries"]
    problems = [] if _sse_ok(a, b, res["r"], res["s"]) and res["verified"] is True else [
        "split certificate fails RS = A, SR = B"
    ]
    if len(b) != sum(len(blocks) for blocks in inp["partition"]):
        problems.append("one split state per block expected")
    m = len(b)
    for g in (plain.parse_cycles(text, m) for text in res["group_generators"]):
        if any(b[g[i]][g[j]] != b[i][j] for i in range(m) for j in range(m)):
            problems.append("a transported group element does not preserve the split matrix")
            break
    return problems


def _repshift(inp, params, res) -> list:
    m = params.get("max_n", 6)
    if res["period_counts"] != plain.traces(res["matrix"]["entries"], m):
        return ["period counts differ from the trace powers"]
    return []


def _tqft(inp, params, res) -> list:
    entries = res["matrix"]["entries"]
    if len(entries) != len(res["basis"]) or any(len(row) != len(entries) for row in entries):
        return ["transfer matrix is not square on the orbit basis"]
    return []


def _bundle_counts(inp, params, res) -> list:
    if len(res["counts"]) != params.get("max_n", 6):
        return ["wrong number of counts"]
    return _recurrence_problems(res["recurrence"], res["counts"])


_CHECKS = {
    "reduce": _reduce,
    "invariants": _invariants,
    "classify": _classify,
    "witness": _witness,
    "burnside": _burnside,
    "quotient-counts": _quotient_counts,
    "verify-sse": _verify_sse,
    "transport": _transport,
    "split": _split,
    "repshift": _repshift,
    "tqft": _tqft,
    "bundle-counts": _bundle_counts,
}
