"""Shift-of-finite-type presentations from nonnegative integer matrices.

A presentation is a finite directed graph given by its adjacency matrix.
Edges are triples (i, j, c) with 0 <= c < A(i, j), so parallel edges are
first class while zero-one matrices give the familiar states-as-symbols
picture.  Presentations are kept in essential form: every state has at
least one outgoing and one incoming edge.  A matrix with no essential
part, such as a fixed-point subgraph that dies under trimming, has no
presentation: ``trim_essential`` returns ``None`` for it.
"""

from __future__ import annotations

from functools import cached_property

from .errors import CapExceededError, InputError, PreconditionError
from .records import record
from .intmatrix import IntMatrix, _check_int, _components

Edge = tuple  # (initial state, terminal state, multiplicity index)


@record
class SftPresentation:
    """Essential presentation of a shift of finite type.

    Construction insists on essential form; ``trim_essential`` finds the
    essential part of a matrix.
    """

    matrix: IntMatrix

    def __post_init__(self):
        n = self.matrix.dim
        sparse = self.matrix.sparse
        entered = {j for row in sparse for j, _ in row}
        for i in range(n):
            if not sparse[i]:
                raise PreconditionError(
                    f"state {self.matrix.label(i)} has no outgoing edge; trim_essential first"
                )
            if i not in entered:
                raise PreconditionError(
                    f"state {self.matrix.label(i)} has no incoming edge; trim_essential first"
                )

    @property
    def num_states(self) -> int:
        return self.matrix.dim

    def label(self, i: int) -> str:
        return self.matrix.label(i)

    @cached_property
    def edges(self) -> tuple:
        """All edge triples in lexicographic order."""
        return tuple(
            (i, j, c)
            for i, row in enumerate(self.matrix.sparse)
            for j, x in row
            for c in range(x)
        )

    @cached_property
    def out_edges(self) -> tuple:
        """out_edges[i]: edges leaving state i, lexicographic."""
        table = [[] for _ in range(self.num_states)]
        for e in self.edges:
            table[e[0]].append(e)
        return tuple(tuple(es) for es in table)

    @cached_property
    def in_edges(self) -> tuple:
        table = [[] for _ in range(self.num_states)]
        for e in self.edges:
            table[e[1]].append(e)
        return tuple(tuple(es) for es in table)

    def has_edge(self, e) -> bool:
        i, j, c = e
        return 0 <= i < self.matrix.dim and 0 <= c < dict(self.matrix.sparse[i]).get(j, 0)

    def is_zero_one(self) -> bool:
        return self.matrix.is_zero_one()


@record
class CycleWord:
    """Closed edge path with a distinguished starting phase.

    Distinct rotations of the same cycle are distinct values; they present
    distinct periodic points.
    """

    edges: tuple

    def __post_init__(self):
        edges = tuple(tuple(e) for e in self.edges)
        if not edges:
            raise InputError("a cycle needs at least one edge")
        for e, f in zip(edges, edges[1:]):
            if e[1] != f[0]:
                raise InputError(f"edges {e} and {f} do not compose")
        if edges[-1][1] != edges[0][0]:
            raise InputError("cycle does not close up")
        object.__setattr__(self, "edges", edges)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def states(self) -> tuple:
        """States visited, one per edge (the initial states)."""
        return tuple(e[0] for e in self.edges)


def trim_essential(matrix: IntMatrix):
    """Largest essential sub-presentation of ``matrix``.

    Deletes states with no outgoing or no incoming edge until none is
    left, keeping out- and in-degree counts and a queue of the states
    whose count reached zero.  Returns (presentation, kept) where ``kept``
    maps the surviving state indices back to the original ones, in
    ascending order; (None, ()) when no state survives.
    """
    n = matrix.dim
    succ = [[j for j, _ in row] for row in matrix.sparse]
    pred = [[] for _ in range(n)]
    for i, targets in enumerate(succ):
        for j in targets:
            pred[j].append(i)
    out_degree = [len(targets) for targets in succ]
    in_degree = [len(sources) for sources in pred]
    alive = [True] * n
    queue = [i for i in range(n) if not out_degree[i] or not in_degree[i]]
    for i in queue:
        alive[i] = False
    for i in queue:
        for j in pred[i]:
            out_degree[j] -= 1
            if alive[j] and not out_degree[j]:
                alive[j] = False
                queue.append(j)
        for j in succ[i]:
            in_degree[j] -= 1
            if alive[j] and not in_degree[j]:
                alive[j] = False
                queue.append(j)
    kept = [i for i in range(n) if alive[i]]
    if not kept:
        return None, ()
    if len(kept) == n:
        return SftPresentation(matrix), tuple(kept)
    return SftPresentation(matrix.principal(kept)), tuple(kept)


def is_irreducible(p: SftPresentation) -> bool:
    """True iff the underlying digraph is strongly connected: one
    strongly connected component covers every state."""
    return len(_components(p.matrix.sparse)) == 1


def higher_block(p: SftPresentation, n: int):
    """The n-block presentation of a zero-one presentation.

    States of the result are the allowed words of n states of ``p``, with
    an edge from b to b' exactly when they overlap progressively.  Returns
    (presentation, blocks) where ``blocks`` maps each new state index to
    its underlying word of original states.
    """
    _check_int(n, "block length")
    if n < 2:
        raise InputError("block length must be at least 2")
    if not p.is_zero_one():
        raise PreconditionError("higher-block recoding needs a zero-one matrix")
    sparse = p.matrix.sparse
    # extending every word by one state keeps the list in lexicographic order
    blocks = [(s,) for s in range(p.num_states)]
    for _ in range(n - 1):
        blocks = [b + (j,) for b in blocks for j, _ in sparse[b[-1]]]
    # b is followed by the blocks whose first n - 1 states are its last ones
    by_prefix = {}
    for k, b in enumerate(blocks):
        by_prefix.setdefault(b[:-1], []).append(k)
    rows = [tuple((k2, 1) for k2 in by_prefix.get(b[1:], ())) for b in blocks]
    labels = tuple(".".join(p.label(s) for s in b) for b in blocks)
    out = SftPresentation(IntMatrix.from_sparse(rows, len(blocks), labels=labels))
    return out, dict(enumerate(blocks))


def enumerate_cycles(p: SftPresentation, length: int, cap: int):
    """All closed edge paths of exactly the given length.

    Each starting phase is a distinct entry (rotations are not identified),
    so the count equals trace(A^length).  Results come out in lexicographic
    order.  Raises CapExceededError as soon as the running count passes
    ``cap``; callers should shrink the instance.
    """
    _check_int(length, "cycle length")
    _check_int(cap, "cap")
    if length < 1:
        raise InputError("cycle length must be at least 1")
    if cap < 1:
        raise InputError("cap must be at least 1")
    results = []
    n = p.num_states
    out_edges = p.out_edges
    for s0 in range(n):
        # back[k][j]: some path of length k runs from j to s0
        back = [[False] * n for _ in range(length + 1)]
        back[0][s0] = True
        for k in range(1, length + 1):
            prev = back[k - 1]
            cur = back[k]
            for j in range(n):
                cur[j] = any(prev[e[1]] for e in out_edges[j])
        if not back[length][s0]:
            continue
        # depth-first walk with an explicit stack: pending[k] iterates the
        # out-edges of the state reached by the first k edges of the path
        path = []
        pending = [iter(out_edges[s0])]
        while pending:
            remaining = length - len(path) - 1
            e = next((e for e in pending[-1] if back[remaining][e[1]]), None)
            if e is None:
                pending.pop()
                if path:
                    path.pop()
                continue
            path.append(e)
            if len(path) < length:
                pending.append(iter(out_edges[e[1]]))
                continue
            results.append(CycleWord(tuple(path)))
            if len(results) > cap:
                raise CapExceededError(
                    f"more than {cap} cycles of length {length}; raise the cap or shrink the instance"
                )
            path.pop()
    return results


def shortest_path(p: SftPresentation, src: int, dst: int):
    """Deterministic shortest edge path src -> dst, () if src == dst,
    None if unreachable."""
    if src == dst:
        return ()
    prev = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for i in frontier:
            for e in p.out_edges[i]:
                if e[1] not in prev:
                    prev[e[1]] = e
                    nxt.append(e[1])
        if dst in prev:
            break
        frontier = nxt
    if dst not in prev:
        return None
    edges = []
    cur = dst
    while prev[cur] is not None:
        e = prev[cur]
        edges.append(e)
        cur = e[0]
    return tuple(reversed(edges))
