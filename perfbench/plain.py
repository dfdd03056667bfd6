"""Plain integer and permutation helpers for the benchmark.

They share no code with ``sftact``, so the output checks built on them are
independent oracles.  Permutations are tuples over 0..n-1; cycle strings
are 1-based and compose left to right, as in the job documents.
"""

from __future__ import annotations

import re

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> tuple:
    perm = list(range(n))
    for body in _CYCLE.findall(text):
        points = [int(tok) - 1 for tok in re.split(r"[\s,]+", body.strip()) if tok]
        step = {points[k]: points[(k + 1) % len(points)] for k in range(len(points))}
        perm = [step.get(perm[i], perm[i]) for i in range(n)]
    return tuple(perm)


def cycles_text(perm) -> str:
    seen, parts = set(), []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cycle, j = [i], perm[i]
        seen.add(i)
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(parts) or "()"


def then(p, q) -> tuple:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def closure(gens, n: int) -> list:
    """Every element of the group the permutations generate."""
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = then(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def orbits(gens, n: int) -> list:
    """State orbits, each sorted, ordered by least member."""
    orbit_of = [-1] * n
    out = []
    for s in range(n):
        if orbit_of[s] >= 0:
            continue
        members, stack = {s}, [s]
        while stack:
            i = stack.pop()
            for g in gens:
                if g[i] not in members:
                    members.add(g[i])
                    stack.append(g[i])
        for m in members:
            orbit_of[m] = len(out)
        out.append(sorted(members))
    return out


def right_reduced(a, orbs) -> list:
    """Edges from each orbit's least member into every orbit."""
    return [[sum(a[o[0]][k] for k in p) for p in orbs] for o in orbs]


def left_reduced(a, orbs) -> list:
    """Edges from every orbit into each orbit's least member."""
    return [[sum(a[k][p[0]] for k in o) for p in orbs] for o in orbs]


def matmul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def traces(a, m: int) -> list:
    """trace(a^n) for n = 1..m by repeated multiplication."""
    out, power = [], a
    for n in range(1, m + 1):
        if n > 1:
            power = matmul(power, a)
        out.append(sum(power[i][i] for i in range(len(a))))
    return out


def rank(m) -> int:
    """Exact rank by fraction-free (Bareiss) elimination; each division is exact."""
    a = [list(row) for row in m]
    r, previous = 0, 1
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            for j in range(c + 1, len(a[0])):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // previous
            a[i][c] = 0
        previous = a[r][c]
        r += 1
    return r


def reachable(a, start: int, backward: bool = False) -> set:
    seen, stack = {start}, [start]
    while stack:
        i = stack.pop()
        for j in range(len(a)):
            if (a[j][i] if backward else a[i][j]) and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def is_essential(a) -> bool:
    n = len(a)
    return all(any(a[i]) and any(a[j][i] for j in range(n)) for i in range(n))


def is_irreducible(a) -> bool:
    n = len(a)
    return len(reachable(a, 0)) == n and len(reachable(a, 0, backward=True)) == n


def has_cycle(a, states) -> bool:
    """Whether the subgraph of a on the given states contains a cycle."""
    alive = set(states)
    while True:
        keep = {i for i in alive if any(a[i][j] for j in alive) and any(a[j][i] for j in alive)}
        if keep == alive:
            return bool(alive)
        alive = keep


def strip(coeffs) -> list:
    """Drop trailing zero coefficients."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out
