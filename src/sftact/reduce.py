"""Left and right reduced shifts of a permutation action.

The right-reduced shift has one state per orbit of states and matrix
entries A_red(Gi, Gj) = sum over k in Gj of A(i0, k), taken at the orbit
representative i0; the left-reduced shift sums over the source orbit
instead.  The left form is not computed on its own: it is the transpose
of the right reduction of the transposed matrix over the same orbits.
Both are conjugacy invariants of the action.  The right reduction also
factors through selector matrices, A_red = U A V, and carries a canonical
right-resolving one-block factor map from the edge alphabet of the action
onto the reduced edge alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .matrices import IntMatrix
from .action import OrbitStructure, PermutationAction
from .sft import SftPresentation


@dataclass(frozen=True)
class ReducedShift:
    """Reduced presentation together with its selector matrices.

    ``u_selector`` (orbits x states) picks orbit representatives and
    ``v_selector`` (states x orbits) records orbit membership, so that
    u_selector @ v_selector is the identity and, on the right side,
    matrix = u_selector @ A @ v_selector.
    """

    side: str
    matrix: IntMatrix
    u_selector: IntMatrix
    v_selector: IntMatrix

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise PreconditionError(f"unknown reduction side {self.side!r}")

    @property
    def presentation(self) -> SftPresentation:
        return SftPresentation(self.matrix)


def _selectors(os_: OrbitStructure, n: int):
    """U picks the representative of each orbit, V marks the orbit of each state."""
    u = IntMatrix.from_sparse([((rep, 1),) for rep in os_.representatives], n)
    v = IntMatrix.from_sparse([((o, 1),) for o in os_.orbit_of], os_.num_orbits)
    return u, v


def _orbit_sums(row, orbit_of) -> tuple:
    """The sparse row of edge counts from one sparse row into each orbit."""
    acc = {}
    for j, x in row:
        acc[orbit_of[j]] = acc.get(orbit_of[j], 0) + x
    return tuple(sorted(acc.items()))


def _reduce_rows(matrix: IntMatrix, os_: OrbitStructure):
    """Right reduction of ``matrix`` over the state orbits ``os_``: entry
    (Gi, Gj) counts edges from a representative of Gi into the orbit Gj.

    Returns (reduced matrix, U, V), with U A V = A_red.  Independence of
    the representative is re-verified from every orbit member; a failure
    would mean the action was never valid.
    """
    sums = [_orbit_sums(row, os_.orbit_of) for row in matrix.sparse]
    for rep, *others in os_.orbits:
        for other in others:
            if sums[other] != sums[rep]:
                raise PreconditionError(
                    f"reduction not representative-independent at states {rep + 1}, {other + 1}"
                )
    reps = os_.representatives
    reduced = IntMatrix.from_sparse(
        [sums[i] for i in reps], os_.num_orbits, labels=tuple(f"G{i + 1}" for i in reps)
    )
    return (reduced, *_selectors(os_, matrix.dim))


def right_reduce(a: PermutationAction) -> ReducedShift:
    """Right-reduced shift: entry (Gi, Gj) counts edges from a
    representative of Gi into the orbit Gj."""
    return ReducedShift("right", *_reduce_rows(a.matrix, a.orbits))


def left_reduce(a: PermutationAction) -> ReducedShift:
    """Left-reduced shift: entry (Gi, Gj) counts edges from the orbit Gi
    into a representative of Gj.

    It is the transpose of the right reduction of A^t over the same
    orbits, so its selector identity reads V^t A U^t = A_red.
    """
    reduced, u, v = _reduce_rows(a.matrix.transpose(), a.orbits)
    return ReducedShift("left", reduced.transpose(), u, v)


@dataclass(frozen=True)
class OneBlockCode:
    """One-block map on edge alphabets between two presentations.

    The edge map is total and respects endpoints: it induces a well
    defined map on states, so composable paths go to composable paths.
    """

    source: SftPresentation
    target: SftPresentation
    edge_map: dict

    def __post_init__(self):
        src_edges = set(self.source.edges)
        if set(self.edge_map) != src_edges:
            raise PreconditionError("edge map must be total on the source edge alphabet")
        state_map = {}
        for e, f in self.edge_map.items():
            if not self.target.has_edge(f):
                raise PreconditionError(f"image {f} of edge {e} is not a target edge")
            for src_state, dst_state in ((e[0], f[0]), (e[1], f[1])):
                seen = state_map.setdefault(src_state, dst_state)
                if seen != dst_state:
                    raise PreconditionError(
                        f"edge map does not induce a state map (state {src_state} goes to both {seen} and {dst_state})"
                    )

    def apply_path(self, edges):
        return tuple(self.edge_map[tuple(e)] for e in edges)

    def is_right_resolving(self) -> bool:
        for es in self.source.out_edges:
            images = [self.edge_map[e] for e in es]
            if len(set(images)) != len(images):
                return False
        return True


def build_eta(a: PermutationAction) -> OneBlockCode:
    """Canonical right-resolving factor map onto the right-reduced shift.

    For each state i and each target orbit Gj, the edges from i into Gj
    are ordered by target state and assigned multiplicity indices
    0, 1, 2, ... in that order.  Any choice of bijections would do; this
    one is a convention, fixed so results are reproducible.
    """
    reduced = right_reduce(a)
    target = reduced.presentation
    orbit_of = a.orbits.orbit_of
    edge_map = {}
    for i, row in enumerate(a.matrix.sparse):
        # the next multiplicity index of the edges from i into each orbit
        index = {}
        for j, _ in row:
            c = index[orbit_of[j]] = index.get(orbit_of[j], -1) + 1
            edge_map[(i, j, 0)] = (orbit_of[i], orbit_of[j], c)
    code = OneBlockCode(a.presentation, target, edge_map)
    assert code.is_right_resolving(), "the canonical ordering is right-resolving by construction"
    return code
