"""Left and right reduced shifts of a permutation action.

The right-reduced shift has one state per orbit of states and matrix
entries A_red(Gi, Gj) = sum over k in Gj of A(i0, k), taken at the orbit
representative i0; the left-reduced shift sums over the source orbit
instead.  The left form is not computed on its own: it is the transpose
of the right reduction of the transposed matrix over the same orbits.
Both are conjugacy invariants of the action.  One routine, ``_reduce``,
forms the orbit sums for both and for certificate transport; the
selectors of A_red = U A V are derived only when read.  Both read only
an action's ``matrix`` and ``orbits``, so a ``RepShift`` reduces as a
``PermutationAction`` does.  The right reduction carries a canonical
right-resolving one-block factor map from the edge alphabet of the
action onto the reduced edge alphabet.
"""

from __future__ import annotations

from functools import cached_property

from .errors import PreconditionError
from .records import record
from .intmatrix import IntMatrix
from .action import OrbitStructure, PermutationAction
from .sft import SftPresentation


@record
class ReducedShift:
    """Reduced matrix together with the orbits it was reduced over.

    The selectors are derived when read: ``u_selector`` (orbits x
    states) picks orbit representatives and ``v_selector`` (states x
    orbits) records orbit membership, so that u_selector @ v_selector is
    the identity; the right reduction is u_selector @ A @ v_selector and
    the left one v_selector^t @ A @ u_selector^t.
    """

    matrix: IntMatrix
    orbits: OrbitStructure

    @property
    def presentation(self) -> SftPresentation:
        return SftPresentation(self.matrix)

    @cached_property
    def u_selector(self) -> IntMatrix:
        n = len(self.orbits.orbit_of)
        return IntMatrix.from_sparse([((rep, 1),) for rep in self.orbits.representatives], n)

    @cached_property
    def v_selector(self) -> IntMatrix:
        return IntMatrix.from_sparse([((o, 1),) for o in self.orbits.orbit_of], self.orbits.num_orbits)


def _orbit_sums(row, orbit_of) -> tuple:
    """The sparse row of edge counts from one sparse row into each orbit."""
    acc = {}
    for j, x in row:
        acc[orbit_of[j]] = acc.get(orbit_of[j], 0) + x
    return tuple(sorted(acc.items()))


def _reduce(matrix: IntMatrix, rows_by: OrbitStructure, cols_by: OrbitStructure, labels=None) -> IntMatrix:
    """The rows of ``matrix`` at the representatives of ``rows_by``, each
    summed over the orbits of ``cols_by``: U M V with U the representative
    selector of ``rows_by`` and V the membership selector of ``cols_by``.

    When the matrix intertwines the two actions, every member of an orbit
    of ``rows_by`` has its representative's orbit sums.
    """
    orbit_of = cols_by.orbit_of
    rows = [_orbit_sums(matrix.sparse[i], orbit_of) for i in rows_by.representatives]
    return IntMatrix.from_sparse(rows, cols_by.num_orbits, labels=labels)


def _labels(os_: OrbitStructure) -> tuple:
    return tuple(f"G{i + 1}" for i in os_.representatives)


def right_reduce(a) -> ReducedShift:
    """Right-reduced shift: entry (Gi, Gj) counts edges from a
    representative of Gi into the orbit Gj."""
    os_ = a.orbits
    return ReducedShift(_reduce(a.matrix, os_, os_, _labels(os_)), os_)


def left_reduce(a) -> ReducedShift:
    """Left-reduced shift: entry (Gi, Gj) counts edges from the orbit Gi
    into a representative of Gj.

    It is the transpose of the right reduction of A^t over the same
    orbits, so its selector identity reads V^t A U^t = A_red.
    """
    os_ = a.orbits
    return ReducedShift(_reduce(a.matrix.transpose(), os_, os_, _labels(os_)).transpose(), os_)


@record
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


def build_eta(a: PermutationAction) -> OneBlockCode:
    """Canonical right-resolving factor map onto the right-reduced shift.

    For each state i and each target orbit Gj, the edges from i into Gj
    are ordered by target state and assigned multiplicity indices
    0, 1, 2, ... in that order.  Any choice of bijections would do; this
    one is a convention, fixed so results are reproducible.  Edges from one
    state into one orbit get distinct indices, so the map is right-resolving.
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
    return OneBlockCode(a.presentation, target, edge_map)
