"""Finite permutation groups acting on zero-one presentations by symbol
permutations.

An action is valid when every group element g satisfies the invariance law
A(gi, gj) = A(i, j), so that g induces a one-block automorphism of the
shift.  Its orbits, searched along the generators, and its submatrices on
the states an element fixes, which ``PermGroup.fixed`` alone finds, drive
the reduced-shift and orbit-counting machinery.

Groups are element lists without a multiplication table, closed once by
the code that builds them: ``group_from_generators`` closes a generating
set breadth first and hands ``PermGroup`` the indices of the generators
it started from.  Laws kept under products, like invariance, are checked
on those generators.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InputError, LimitExceededError, PreconditionError
from .records import record
from .intmatrix import IntMatrix
from .sft import CycleWord, SftPresentation

CLOSURE_LIMIT = 100000  # default budget of group closure, in elements


def _check_perm(perm, degree: int):
    p = tuple(perm)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InputError(f"{perm!r} is not a permutation of 0..{degree - 1}")
    return p


def compose(p, q):
    """Permutation product: apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def _layers(seen: set, frontier, gens, product):
    """Close ``seen`` under right products by ``gens``, breadth first from
    ``frontier``, yielding each sorted layer of new elements."""
    while frontier:
        frontier = sorted({product(p, g) for p in frontier for g in gens} - seen)
        seen.update(frontier)
        yield frontier


def greedy_generators(items, start, product) -> tuple:
    """Indices of the items that right products of the earlier items,
    starting at ``start``, do not reach."""
    seen, gens, indices = {start}, [], []
    for k, x in enumerate(items):
        if x not in seen:
            gens.append(x)
            indices.append(k)
            for _ in _layers(seen, list(seen), gens, product):
                pass
    return tuple(indices)


@record
class PermGroup:
    """A finite group of permutations of 0..degree-1, as its builder closed it.

    Element 0 is the identity; the element order is part of the value (it
    pins down selector matrices and transported actions), so construction
    preserves the order it is given.  Construction checks only that much:
    build a group with ``group_from_generators``, which closes it.

    ``generators`` are indices into ``elements`` in increasing order, and
    they contain every element that the elements before it do not
    generate.  So a law kept under products holds for the group once it
    holds for the generators, and the first element that breaks it is a
    generator.
    """

    degree: int
    elements: tuple
    generators: tuple

    def __post_init__(self):
        if not self.elements:
            raise InputError("a permutation group needs at least the identity")
        if self.elements[0] != tuple(range(self.degree)):
            raise InputError("element 0 must be the identity permutation")

    @property
    def order(self) -> int:
        return len(self.elements)

    def apply(self, g: int, state: int) -> int:
        return self.elements[g][state]

    def fixed(self, g: int) -> tuple:
        """The states element g fixes, in ascending order."""
        return tuple(i for i, image in enumerate(self.elements[g]) if image == i)

    def stabilizer(self, states) -> tuple:
        """Indices of the elements that fix every state in ``states``."""
        states = set(states)
        return tuple(k for k in range(self.order) if states.issubset(self.fixed(k)))


def group_from_generators(degree: int, gens, limit: int = CLOSURE_LIMIT) -> PermGroup:
    """Close a generating set of permutations under composition.

    Breadth-first over products: the identity first, then each layer of
    new elements sorted lexicographically, which makes element indices
    reproducible.  Raises LimitExceededError past ``limit`` elements.

    The first layer holds the distinct non-identity generators, and they
    are the group's ``generators``: every later element is p s with p in
    the layer before and s in the first, both earlier in the order.
    """
    gens = [_check_perm(g, degree) for g in gens]
    identity = tuple(range(degree))
    ordered = [identity]
    for layer in _layers({identity}, [identity], gens, compose):
        ordered += layer
        if len(ordered) > limit:
            raise LimitExceededError(f"group closure exceeds limit {limit}")
    first = len(set(gens) - {identity})
    return PermGroup(degree, tuple(ordered), tuple(range(1, 1 + first)))


@record
class PermutationAction:
    """A PermGroup acting on a zero-one presentation by symbol permutations.

    Construction checks the invariance law on the group generators, which
    implies it for every element: a value is always a valid action.
    """

    presentation: SftPresentation
    group: PermGroup

    def __post_init__(self):
        p, g = self.presentation, self.group
        if not p.is_zero_one():
            raise PreconditionError(
                "permutation actions need a zero-one matrix; recode with higher_block first"
            )
        if g.degree != p.num_states:
            raise InputError(
                f"group degree {g.degree} does not match state count {p.num_states}"
            )
        sparse = p.matrix.sparse
        for k in g.generators:
            perm = g.elements[k]
            for i, row in enumerate(sparse):
                # row i is kept when its nonzero entries move onto those of row perm[i]
                if sorted((perm[j], x) for j, x in row) == list(sparse[perm[i]]):
                    continue
                rows = p.matrix.entries
                j = next(j for j, x in enumerate(rows[i]) if rows[perm[i]][perm[j]] != x)
                raise PreconditionError(
                    f"invariance violated: element {k} sends entry ({i + 1},{j + 1})="
                    f"{rows[i][j]} to ({perm[i] + 1},{perm[j] + 1})={rows[perm[i]][perm[j]]}"
                )

    @property
    def matrix(self) -> IntMatrix:
        return self.presentation.matrix

    def apply_edge(self, g: int, edge):
        i, j, c = edge
        return (self.group.apply(g, i), self.group.apply(g, j), c)

    def apply_word(self, g: int, edges):
        return tuple(self.apply_edge(g, e) for e in edges)

    @cached_property
    def orbits(self) -> "OrbitStructure":
        return _orbit_structure(self)


@record
class OrbitStructure:
    """Orbits and representatives of an action.

    Orbits list members in increasing index and are ordered by least
    member; the representative of an orbit is its least member.
    """

    orbits: tuple
    representatives: tuple
    orbit_of: tuple

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)


def _orbit_structure(a: PermutationAction) -> OrbitStructure:
    """Orbits by breadth-first search along the generators: in a finite
    group every inverse is a power, so forward images reach the orbit."""
    g = a.group
    gens = [g.elements[k] for k in g.generators]
    orbit_of = [-1] * g.degree
    orbits = []
    for i in range(g.degree):
        if orbit_of[i] >= 0:
            continue
        orbit_of[i] = len(orbits)
        members = [i]
        for s in members:
            for perm in gens:
                if orbit_of[perm[s]] < 0:
                    orbit_of[perm[s]] = len(orbits)
                    members.append(perm[s])
        orbits.append(tuple(sorted(members)))
    return OrbitStructure(
        orbits=tuple(orbits),
        representatives=tuple(members[0] for members in orbits),
        orbit_of=tuple(orbit_of),
    )


def fixed_submatrix(a: PermutationAction, g: int) -> IntMatrix:
    """Principal submatrix on the states fixed by element g.

    When g fixes every state (the identity) this is the action's matrix
    itself; when g fixes no state the 1x1 zero matrix stands in for the
    empty subshift.
    """
    if not 0 <= g < a.group.order:
        raise InputError(f"element index {g} out of range")
    return _submatrix_on(a.matrix, a.group.fixed(g))


def _submatrix_on(matrix: IntMatrix, states: tuple) -> IntMatrix:
    """``fixed_submatrix`` on a fixed-state set already at hand."""
    if len(states) == matrix.dim:
        return matrix
    if not states:
        return IntMatrix(((0,),))
    return matrix.principal(states)


def word_stabilizer(a: PermutationAction, w: CycleWord):
    """Intersection of the state stabilizers along a cycle; equals the
    stabilizer of the periodic point the cycle presents."""
    for e in w.edges:
        if not a.presentation.has_edge(e):
            raise PreconditionError(f"edge {e} does not belong to the presentation")
    return a.group.stabilizer(set(w.states))
