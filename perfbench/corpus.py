"""Seeded job corpus of the three benchmark workloads.

``build(workload, seed)`` returns the jobs of one pass, in order.  Fixed
jobs (presets, README examples, test fixtures) are the same for every seed.
Seeded jobs draw a random permutation group as a random relabelling of a
fixed template group, then set each orbit of state pairs to 0 or 1
together, so the matrix is invariant.  Templates and densities are fixed,
which keeps the cost of a seeded job nearly the same from seed to seed
while its input, and hence its report, changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from plain import cycles_text, is_essential, is_irreducible, parse_cycles

WORKLOADS = ("cli-small", "counting", "symmetry")
JOB_FORMAT = "sftact-job/1"


@dataclass(frozen=True)
class Job:
    id: str
    why: str
    doc: dict
    seeded: bool

    @property
    def command(self) -> str:
        return self.doc["command"]


def _job(command, input_doc, **parameters) -> dict:
    return {"format": JOB_FORMAT, "command": command, "input": input_doc, "parameters": parameters}


SIX_STATE = [
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [1, 1, 1, 0, 0, 0],
    [1, 1, 0, 1, 0, 0],
    [1, 1, 0, 0, 1, 0],
    [1, 1, 0, 0, 0, 1],
]
SIX_GROUP = {"generators": ["(1 2)(3 4 5 6)"]}
SWAP_TWO_SHIFT = {"matrix": [[1, 1], [1, 1]], "group": {"generators": ["(1 2)"]}}
IDENTITY_6 = [[int(i == j) for j in range(6)] for i in range(6)]

# D4 (order 8) on 20 states: r rotates three squares, s reflects them.
D4_ON_20 = ("(1 2 3 4)(5 6 7 8)(9 10 11 12)", "(1 3)(5 6)(7 8)(9 11)")
S6_ON_6 = ("(1 2)", "(1 2 3 4 5 6)")


def complete_partition(a, direction: str) -> list:
    """One singleton block per edge: targets (out) or sources (in) of each state."""
    n = len(a)
    if direction == "out":
        return [[[j + 1] for j in range(n) if a[i][j]] for i in range(n)]
    return [[[j + 1] for j in range(n) if a[j][i]] for i in range(n)]


def random_group(rng, n: int, template) -> list:
    """Generators of a random relabelling of the template group."""
    sigma = list(range(n))
    rng.shuffle(sigma)
    gens = []
    for text in template:
        g = parse_cycles(text, n)
        relabelled = [0] * n
        for i in range(n):
            relabelled[sigma[i]] = sigma[g[i]]
        gens.append(tuple(relabelled))
    return gens


def invariant_matrix(rng, n: int, gens, density: float, irreducible: bool = False) -> list:
    """Random zero-one matrix constant on each orbit of state pairs,
    redrawn until it is essential (and irreducible, when asked)."""
    pair_orbits, seen = [], set()
    for start in ((i, j) for i in range(n) for j in range(n)):
        if start in seen:
            continue
        orbit, stack = [start], [start]
        seen.add(start)
        while stack:
            i, j = stack.pop()
            for g in gens:
                image = (g[i], g[j])
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
                    stack.append(image)
        pair_orbits.append(orbit)
    while True:
        a = [[0] * n for _ in range(n)]
        for orbit in pair_orbits:
            if rng.random() < density:
                for i, j in orbit:
                    a[i][j] = 1
        if is_essential(a) and (not irreducible or is_irreducible(a)):
            return a


def _group_doc(gens) -> dict:
    return {"generators": [cycles_text(g) for g in gens]}


def _cli_small(seed: int) -> list:
    six = {"matrix": SIX_STATE, "group": SIX_GROUP}
    rng = random.Random(f"{seed}/cli-small")
    gens = random_group(rng, 6, SIX_GROUP["generators"])
    rand = {"matrix": invariant_matrix(rng, 6, gens, 0.5, irreducible=True), "group": _group_doc(gens)}
    chain = [
        {"a": [[2]], "b": [[1, 1], [1, 1]], "r": [[1, 1]], "s": [[1], [1]]},
        {"a": [[1, 1], [1, 1]], "b": [[1, 1], [1, 1]], "r": [[1, 0], [0, 1]], "s": [[1, 1], [1, 1]]},
    ]
    fixed = [
        ("six-reduce", "the README reduce example", _job("reduce", six)),
        ("six-invariants", "README invariants: BF groups Z/2+Z/2 and Z/4 on the two sides",
         _job("invariants", six)),
        ("six-classify", "classify the six-state action (nonexpansive)", _job("classify", six)),
        ("six-witness", "shadowing witness windows at block radius 2", _job("witness", six, m=2)),
        ("six-burnside", "Burnside counts at the default max_n", _job("burnside", six, max_n=6)),
        ("six-split-out", "complete out-split of the six-state example",
         _job("split", dict(six, direction="out", partition=complete_partition(SIX_STATE, "out")))),
        ("six-split-in", "complete in-split of the six-state example",
         _job("split", dict(six, direction="in", partition=complete_partition(SIX_STATE, "in")))),
        ("swap-quotient-counts", "quotient-counts small enough to stay under the cap",
         _job("quotient-counts", SWAP_TWO_SHIFT, max_n=4)),
        ("swap-classify", "a constant-to-one verdict", _job("classify", SWAP_TWO_SHIFT)),
        ("three-reduce", "three-state swap fixture from the tests",
         _job("reduce", {"matrix": [[1, 1, 1], [1, 1, 0], [1, 0, 1]], "group": {"generators": ["(2 3)"]}})),
        ("triangle-burnside", "triangle fixture: a fixed state without a self-loop",
         _job("burnside", {"matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "group": {"generators": ["(2 3)"]}},
              max_n=6)),
        ("golden-invariants", "invariants without a group",
         _job("invariants", {"matrix": [[1, 1], [1, 0]]})),
        ("sse-single", "verify-sse on one certificate",
         _job("verify-sse", chain[0])),
        ("sse-chain", "verify-sse on the two-link chain fixture", _job("verify-sse", {"chain": chain})),
        ("six-transport", "transport fixture: R = A, S = I between two copies of the action",
         _job("transport", {"certificate": {"a": SIX_STATE, "b": SIX_STATE, "r": SIX_STATE, "s": IDENTITY_6},
                            "phi": SIX_GROUP, "psi": SIX_GROUP})),
        ("trefoil-z2-bundle", "the README bundle-counts example",
         _job("bundle-counts", {"hnn": {"preset": "trefoil"}, "group": "Z2"}, max_n=6)),
        ("trefoil-z3-repshift", "repshift of the trefoil over Z3",
         _job("repshift", {"hnn": {"preset": "trefoil"}, "group": "Z3"}, max_n=6)),
        ("trefoil-s3-tqft", "tqft of the trefoil over S3 (11 basis orbits)",
         _job("tqft", {"hnn": {"preset": "trefoil"}, "group": "S3"})),
        ("figure8-z2-repshift", "repshift of the other preset knot",
         _job("repshift", {"hnn": {"preset": "figure8"}, "group": "Z2"}, max_n=6)),
    ]
    seeded = [
        ("rand6-reduce", "reduce on a seeded six-state invariant matrix", _job("reduce", rand)),
        ("rand6-invariants", "invariants of a seeded six-state action", _job("invariants", rand)),
        ("rand6-burnside", "Burnside counts of a seeded six-state action", _job("burnside", rand, max_n=6)),
        ("rand6-classify", "classify a seeded irreducible six-state action", _job("classify", rand)),
    ]
    return [Job(i, w, d, False) for i, w, d in fixed] + [Job(i, w, d, True) for i, w, d in seeded]


def _counting(seed: int) -> list:
    rng = random.Random(f"{seed}/counting")
    dense = [[int(rng.random() < 0.3) for _ in range(40)] for _ in range(40)]
    gens = random_group(rng, 20, D4_ON_20)
    d4 = {"matrix": invariant_matrix(rng, 20, gens, 0.3), "group": _group_doc(gens)}
    return [
        Job("trefoil-d4-bundle", "64-state permutation matrix, 12 powers per element",
            _job("bundle-counts", {"hnn": {"preset": "trefoil"}, "group": "D4"}, max_n=12), False),
        Job("figure8-s3-bundle", "bundle counts over a non-abelian group, 12 powers",
            _job("bundle-counts", {"hnn": {"preset": "figure8"}, "group": "S3"}, max_n=12), False),
        Job("rand40-invariants", "char poly and Smith form of a seeded dense 40-state matrix",
            _job("invariants", {"matrix": dense}), True),
        Job("figure8-q8-repshift", "repshift trace powers over Q8, 8 powers",
            _job("repshift", {"hnn": {"preset": "figure8"}, "group": "Q8"}, max_n=8), False),
        Job("rand20-d4-burnside", "Burnside counts of a seeded 20-state D4-invariant matrix",
            _job("burnside", d4, max_n=12), True),
        Job("readme-quotient-counts", "the README quotient-counts job; exits 3 when the cap is hit",
            _job("quotient-counts", {"matrix": SIX_STATE, "group": SIX_GROUP}), False),
    ]


def induced_on_pairs(p) -> tuple:
    """Action on the 36 edges (i, j) of the full 6-shift, indexed 6i + j."""
    return tuple(6 * p[i] + p[j] for i in range(6) for j in range(6))


def _symmetry(seed: int) -> list:
    rng = random.Random(f"{seed}/symmetry")
    gens = random_group(rng, 6, S6_ON_6)
    full = [[1] * 6 for _ in range(6)]
    act = {"matrix": full, "group": _group_doc(gens)}
    # complete out-split of the full 6-shift: states (i, j) for edges i -> j
    b = [[int(j == k) for k in range(6) for _ in range(6)] for _ in range(6) for j in range(6)]
    r = [[int(i == k) for k in range(6) for _ in range(6)] for i in range(6)]
    s = [[int(j == k) for k in range(6)] for _ in range(6) for j in range(6)]
    certificate = {"a": full, "b": b, "r": r, "s": s}
    psi = {"generators": [cycles_text(induced_on_pairs(g)) for g in gens]}
    return [
        Job("s6-reduce", "720-element closure and Cayley table, per-element validation",
            _job("reduce", act), True),
        Job("s6-burnside", "720 fixed submatrices, 8 powers each", _job("burnside", act, max_n=8), True),
        Job("s6-classify", "closure and validation again, then fixed-subgraph cycle search",
            _job("classify", act), True),
        Job("s6-split-out", "complete out-split: S6 transported to 36 states",
            _job("split", dict(act, direction="out", partition=complete_partition(full, "out"))), True),
        Job("s6-split-in", "complete in-split: the mirror recoding",
            _job("split", dict(act, direction="in", partition=complete_partition(full, "in"))), True),
        Job("s6-transport", "transport the out-split certificate: 4 dense products per element",
            _job("transport", {"certificate": certificate, "phi": act["group"], "psi": psi}), True),
        Job("trefoil-s4-tqft", "576 homomorphism states, conjugation by S4",
            _job("tqft", {"hnn": {"preset": "trefoil"}, "group": "S4"}), False),
    ]


_BUILDERS = {"cli-small": _cli_small, "counting": _counting, "symmetry": _symmetry}


def build(workload: str, seed: int) -> list:
    return _BUILDERS[workload](seed)
