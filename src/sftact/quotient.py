"""Orbit counting of periodic points and expansivity of the quotient.

The number of group orbits of period-n points averages the fixed-point
counts trace(A_g^n) over the group (Cauchy-Frobenius), and the counts
satisfy the linear recurrence given by the least common multiple of the
polynomials det(I - t A_g).  Elements with the same fixed states have the
same A_g, so both come from one pass of the counting engine of
``matrices`` per fixed-state set; an empty set needs no matrix (zero
traces, determinant 1).  ``burnside_counts`` reads only the action's
matrix and ``fixed_sets``, so it counts the orbits of a permutation action
and the flat bundles of a representation shift alike.  The
quotient dynamical system has the zeta function of the left-reduced shift
(Fiebig), so its period-n counts are trace(A_left^n); the tests check
them against enumerated cycles.

For irreducible presentations the quotient is either again a shift of
finite type (when the quotient map is constant-to-one) or fails to be
expansive.  The decision procedure used here: the quotient is
nonexpansive exactly when some element other than the identity fixes a
cycle, since such a cycle and a cycle through all states present periodic
points with different stabilizers, and a witness pair of points that
shadow each other's central blocks at every shift can then be produced
for any block radius.  Each nonempty fixed-state set is tried once.
The counting engine and the reductions are imported inside the two
counting functions, so a classification compiles neither.
"""

from __future__ import annotations

from .errors import InputError, InternalError, PreconditionError
from .records import record
from .intmatrix import _check_int
from .action import PermutationAction
from .sft import CycleWord, SftPresentation, is_irreducible, shortest_path, trim_essential


@record
class OrbitCountReport:
    """Orbit counts N_1..N_m, the annihilating recurrence polynomial and
    the per-element trace table behind them."""

    counts: tuple
    recurrence: IntPolynomial
    element_traces: tuple


def burnside_counts(a, m: int) -> OrbitCountReport:
    """Orbit counts of period-n points for n = 1..m by fixed-point
    averaging, with their recurrence, for a ``PermutationAction`` or a
    ``RepShift``: any action with a ``matrix`` and ``fixed_sets``, the
    ascending fixed states of each group element.

    Elements with the same fixed states have the same fixed submatrix, so
    its traces and det(I - t A_g) are computed once per fixed-state set, by
    one pass over its components (zero traces and 1 for an empty set).  The
    recurrence, the lcm of those polynomials, annihilates the Burnside sums.
    """
    from .matrices import IntPolynomial, _zeta, poly_lcm

    _check_int(m, "number of counts")
    if m < 1:
        raise InputError("need at least one count")
    fixed_sets = a.fixed_sets
    order = len(fixed_sets)
    # fixed-state set -> (traces of its submatrix, det(I - t A_g))
    by_fixed = {}
    traces = []
    for fixed in fixed_sets:
        if fixed not in by_fixed:
            by_fixed[fixed] = _zeta(a.matrix.principal(fixed), m, True) if fixed else ([0] * m, IntPolynomial((1,)))
        traces.append(by_fixed[fixed][0])
    counts = []
    for n in range(m):
        total = sum(row[n] for row in traces)
        if total % order:
            raise InternalError(f"the period-{n + 1} Burnside sum is not divisible by |G| = {order}")
        counts.append(total // order)
    recurrence = poly_lcm(dict.fromkeys(poly for _, poly in by_fixed.values()))
    return OrbitCountReport(
        counts=tuple(counts), recurrence=recurrence, element_traces=tuple(map(tuple, traces))
    )


def quotient_period_counts(a: PermutationAction, m: int):
    """Period-n point counts of the quotient dynamical system, n = 1..m.

    A quotient point [x] has period n when the shift of x returns to the
    orbit of x.  The quotient has the zeta function of the left-reduced
    shift, so these counts are the traces of the powers of its matrix.
    """
    from .matrices import trace_sequence
    from .reduce import left_reduce

    return trace_sequence(left_reduce(a).matrix, m)


@record
class QuotientClassification:
    """Verdict for the quotient of an irreducible action, held as its witness.

    ``witness`` is None for the constant-to-one verdict.  Otherwise the
    verdict is nonexpansive and the witness is a pair (g, cycle) with g not
    the identity and the cycle inside the fixed-state subgraph of g.
    """

    witness: tuple | None

    @property
    def verdict(self) -> str:
        return "constant-to-one" if self.witness is None else "nonexpansive"


def _find_cycle(p: SftPresentation):
    """Some cycle of an essential presentation: follow least
    out-edges from state 0 until a state repeats."""
    seen_at = {0: 0}
    edges = []
    cur = 0
    while True:
        e = p.out_edges[cur][0]
        edges.append(e)
        cur = e[1]
        if cur in seen_at:
            return tuple(edges[seen_at[cur]:])
        seen_at[cur] = len(edges)


def _cycle_in_fixed_subgraph(a: PermutationAction, fixed: tuple):
    """A cycle of the presentation inside the nonempty ascending states ``fixed``, or None."""
    trimmed, kept = trim_essential(a.matrix.principal(fixed))
    if trimmed is None:
        return None
    return CycleWord(tuple((fixed[kept[i]], fixed[kept[j]], c) for (i, j, c) in _find_cycle(trimmed)))


def classify_quotient(a: PermutationAction) -> QuotientClassification:
    """Constant-to-one or nonexpansive, for an irreducible presentation.

    Nonexpansive exactly when some element other than the identity keeps
    a cycle inside its fixed-state subgraph; the first such element and a
    cycle are the witness.  Each nonempty fixed-state set is trimmed once.
    """
    if not is_irreducible(a.presentation):
        raise PreconditionError("classification needs an irreducible presentation")
    tried = {()}  # an empty subgraph holds no cycle
    for g in range(1, a.group.order):
        fixed = a.group.fixed(g)
        if fixed in tried:
            continue
        tried.add(fixed)
        cycle = _cycle_in_fixed_subgraph(a, fixed)
        if cycle is not None:
            return QuotientClassification((g, cycle))
    return QuotientClassification(None)


@record
class NonexpansiveWitness:
    """Data producing arbitrarily long shadowing pairs in the quotient.

    u is a cycle fixed by g, v a cycle through every state (so g moves
    v), and w, w_prime connect u to v and back.  For every m the pair
    x(m) = v^inf w_prime . u^(2m+1) w v^inf
    y(m) = v^inf w_prime . u^(2m+1) (gw) (gv)^inf
    lies in distinct orbits while every central (2m+1)-block of y(m)
    matches the corresponding block of x(m) or of g x(m).
    """

    action: PermutationAction
    u: tuple
    v: tuple
    w: tuple
    w_prime: tuple
    g: int

    def point_windows(self, m: int):
        """Finite central windows of x(m) and y(m).

        Returns (x_window, y_window, zero_offset); index ``zero_offset``
        of each window is coordinate 0 of the points.
        """
        _check_int(m, "block radius m")
        if m < 1:
            raise InputError("block radius m must be at least 1")
        act = self.action
        u, v, w, wp = self.u, self.v, self.w, self.w_prime
        gw = act.apply_word(self.g, w)
        gv = act.apply_word(self.g, v)
        left_len = len(wp) + 2 * len(v)
        right_len = (2 * m + 1) * len(u) + len(w) + 2 * len(v)
        reps = -(-left_len // len(v)) + 1
        left = (v * reps + wp)[-left_len:]
        x_right = (u * (2 * m + 1) + w + v * (-(-right_len // len(v))))[:right_len]
        y_right = (u * (2 * m + 1) + gw + gv * (-(-right_len // len(v))))[:right_len]
        x_window = tuple(left) + tuple(x_right)
        y_window = tuple(left) + tuple(y_right)
        return x_window, y_window, left_len


def nonexpansive_witness(
    a: PermutationAction, c: QuotientClassification, m: int
) -> tuple:
    """Build a witness for a nonexpansive verdict and its window pair.

    Returns (witness, x_window, y_window, zero_offset) for the given block
    radius m.  The two points lie in distinct orbits: only the identity
    fixes the left tail, which runs through every state, and g moves a
    state of v on the right.  Yet at every offset inside the window the
    central (2m+1)-block of y agrees with that of x or of g x: g fixes u,
    and a block that reaches past u^(2m+1) starts inside it.
    """
    if c.witness is None:
        raise PreconditionError("witness construction needs a nonexpansive verdict")
    if not is_irreducible(a.presentation):
        raise PreconditionError("witness construction needs an irreducible presentation")
    g, u_cycle = c.witness
    _check_int(g, "witness element")
    if not 0 < g < a.group.order:
        raise InputError(f"witness element {g} is not a non-identity element of the group")
    u = u_cycle.edges
    # v visits every state, so g, which is not the identity, moves one of them
    v = _cycle_through_all_states(a.presentation)
    # the presentation is irreducible, so both paths exist
    w = shortest_path(a.presentation, u[0][0], v[0][0])
    wp = shortest_path(a.presentation, v[0][0], u[0][0])
    witness = NonexpansiveWitness(action=a, u=u, v=tuple(v), w=w, w_prime=wp, g=g)
    return (witness, *witness.point_windows(m))


def _cycle_through_all_states(p: SftPresentation):
    """Closed edge path visiting every state of an irreducible
    presentation of two or more states, built from shortest hops."""
    n = p.num_states
    edges = []
    visited = {0}
    cur = 0
    while len(visited) < n:
        target = min(s for s in range(n) if s not in visited)
        hop = shortest_path(p, cur, target)
        edges.extend(hop)
        visited.update(e[1] for e in hop)
        cur = target
    edges.extend(shortest_path(p, cur, 0))
    return tuple(edges)
