"""Finite permutation groups acting on zero-one presentations by symbol
permutations.

An action is valid when every group element g satisfies the invariance law
A(gi, gj) = A(i, j), so that g induces a one-block automorphism of the
shift.  Orbits, stabilizers and fixed-state submatrices of a valid action
drive the reduced-shift and orbit-counting machinery.

Groups are element lists without a multiplication table: a list is a
group when the closure of its greedy generating set stays inside it, and
laws kept under products, like invariance, are checked on the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import InputError, LimitExceededError, PreconditionError
from .matrices import IntMatrix
from .sft import CycleWord, SftPresentation


def _check_perm(perm, degree: int):
    p = tuple(perm)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InputError(f"{perm!r} is not a permutation of 0..{degree - 1}")
    return p


def compose(p, q):
    """Permutation product: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def _close(seen: set, frontier, gens, product, admit) -> None:
    """Close ``seen`` under right products by ``gens``, breadth first from
    ``frontier``, passing each sorted layer of new elements to ``admit``."""
    while frontier:
        frontier = sorted({product(p, g) for p in frontier for g in gens} - seen)
        seen.update(frontier)
        for q in frontier:
            admit(q)


def greedy_generators(items, start, product, admit) -> tuple:
    """Indices of the items that right products of the earlier items,
    starting at ``start``, do not reach; ``admit`` sees each new product."""
    seen, gens, indices = {start}, [], []
    for k, x in enumerate(items):
        if x not in seen:
            gens.append(x)
            indices.append(k)
            _close(seen, list(seen), gens, product, admit)
    return tuple(indices)


@dataclass(frozen=True)
class PermGroup:
    """A finite group of permutations of 0..degree-1.

    Element 0 is the identity; the element order is part of the value (it
    pins down selector matrices and transported actions), so construction
    preserves the order it is given.

    ``generators`` is the greedy generating set of that order: a law kept
    under products holds for the group once it holds for the generators,
    and the first element that breaks it is a generator.
    """

    degree: int
    elements: tuple

    def __post_init__(self):
        elements = tuple(_check_perm(p, self.degree) for p in self.elements)
        if not elements:
            raise InputError("a permutation group needs at least the identity")
        if elements[0] != tuple(range(self.degree)):
            raise InputError("element 0 must be the identity permutation")
        index = {p: k for k, p in enumerate(elements)}
        if len(index) != len(elements):
            raise InputError("group elements must be pairwise distinct")

        def admit(q):
            if q not in index:
                raise InputError("element list is not closed under composition")

        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", greedy_generators(elements, elements[0], compose, admit))

    @property
    def order(self) -> int:
        return len(self.elements)

    def apply(self, g: int, state: int) -> int:
        return self.elements[g][state]

    def element_order(self, g: int) -> int:
        """The lcm of the cycle lengths of element g."""
        perm, seen, order = self.elements[g], set(), 1
        for i in range(self.degree):
            k = 0
            while i not in seen:
                seen.add(i)
                i, k = perm[i], k + 1
            order = lcm(order, max(k, 1))
        return order

    def exponent(self) -> int:
        return lcm(*[self.element_order(g) for g in range(self.order)])

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, (tuple(range(degree)),))


def group_from_generators(degree: int, gens, limit: int = 100000) -> PermGroup:
    """Close a generating set of permutations under composition.

    Breadth-first over products: the identity first, then each layer of
    new elements sorted lexicographically, which makes element indices
    reproducible.  Raises LimitExceededError past ``limit`` elements.
    """
    gens = [_check_perm(g, degree) for g in gens]
    identity = tuple(range(degree))
    ordered = [identity]

    def admit(q):
        ordered.append(q)
        if len(ordered) > limit:
            raise LimitExceededError(f"group closure exceeds limit {limit}")

    _close({identity}, [identity], gens, compose, admit)
    return PermGroup(degree, tuple(ordered))


@dataclass(frozen=True)
class PermutationAction:
    """A PermGroup acting on a zero-one presentation by symbol permutations.

    Construction checks the invariance law on the group generators, which
    implies it for every element: a value is always a valid action.
    """

    presentation: SftPresentation
    group: PermGroup

    def __post_init__(self):
        p, g = self.presentation, self.group
        if p.is_empty:
            raise PreconditionError("cannot act on the empty presentation")
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


def validate_action(p: SftPresentation, g: PermGroup) -> PermutationAction:
    """Check the invariance law A(gi, gj) = A(i, j) and return the action."""
    return PermutationAction(p, g)


@dataclass(frozen=True)
class OrbitStructure:
    """Orbits, representatives, state stabilizers and kernel of an action.

    Orbits list members in increasing index and are ordered by least
    member; the representative of an orbit is its least member.
    Stabilizers and the kernel are sorted tuples of element indices.
    """

    orbits: tuple
    representatives: tuple
    orbit_of: tuple
    stabilizers: tuple
    kernel: tuple

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)


def _orbit_structure(a: PermutationAction) -> OrbitStructure:
    g = a.group
    n = g.degree
    orbit_of = [-1] * n
    orbits = []
    for i in range(n):
        if orbit_of[i] >= 0:
            continue
        members = sorted({g.apply(k, i) for k in range(g.order)})
        idx = len(orbits)
        for m in members:
            orbit_of[m] = idx
        orbits.append(tuple(members))
    stabilizers = tuple(
        tuple(k for k in range(g.order) if g.apply(k, i) == i) for i in range(n)
    )
    structure = OrbitStructure(
        orbits=tuple(orbits),
        representatives=tuple(members[0] for members in orbits),
        orbit_of=tuple(orbit_of),
        stabilizers=stabilizers,
        # elements are pairwise distinct permutations of the states, so
        # only the identity, element 0, fixes every state
        kernel=(0,),
    )
    for i in range(n):
        orb = structure.orbits[structure.orbit_of[i]]
        assert len(orb) * len(structure.stabilizers[i]) == g.order, "orbit-stabilizer identity"
    return structure


def orbit_structure(a: PermutationAction) -> OrbitStructure:
    return a.orbits


def fixed_submatrix(a: PermutationAction, g: int) -> IntMatrix:
    """Principal submatrix on the states fixed by element g.

    When g fixes every state (the identity) this is the action's matrix
    itself; when g fixes no state the 1x1 zero matrix stands in for the
    empty subshift.
    """
    if not 0 <= g < a.group.order:
        raise InputError(f"element index {g} out of range")
    perm = a.group.elements[g]
    fixed = [i for i in range(a.group.degree) if perm[i] == i]
    if len(fixed) == a.group.degree:
        return a.matrix
    if not fixed:
        return IntMatrix(((0,),))
    return a.matrix.principal(fixed)


def word_stabilizer(a: PermutationAction, w: CycleWord):
    """Intersection of the state stabilizers along a cycle; equals the
    stabilizer of the periodic point the cycle presents."""
    for e in w.edges:
        if not a.presentation.has_edge(e):
            raise PreconditionError(f"edge {e} does not belong to the presentation")
    stab = set(range(a.group.order))
    for s in w.states:
        stab &= set(a.orbits.stabilizers[s])
    return tuple(sorted(stab))
