"""Finite permutation groups acting on zero-one presentations by symbol
permutations.

An action is valid when every group element g satisfies the invariance law
A(gi, gj) = A(i, j), so that g induces a one-block automorphism of the
shift.  Its orbits, searched along the generator permutations alone (so
a representation shift needs no group), and its submatrices on the
states an element fixes, which ``PermGroup.fixed`` alone finds, drive
the reduced-shift and orbit-counting machinery; an element that fixes no
state has none.

Groups are element lists without a multiplication table, closed once by
the code that builds them: ``group_from_generators`` closes a generating
set breadth first and hands ``PermGroup`` the indices of the generators
it started from.  Laws kept under products, like invariance, are checked
on those generators.

``paired_group`` lists a second group along a first by their listed
generators, and ``_check_paired`` checks laws between elements paired by
index, such as a certificate's intertwining, at generator indices alone.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InputError, LimitExceededError, PreconditionError
from .records import record
from .intmatrix import IntMatrix, _check_int
from .sft import CycleWord, SftPresentation

CLOSURE_LIMIT = 100000  # default budget of group closure, in elements


def _check_perm(perm, degree: int):
    p = tuple(perm)
    if set(map(type, p)) - {int}:
        for x in p:
            _check_int(x, "permutation entry")
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InputError(f"{perm!r} is not a permutation of 0..{degree - 1}")
    return p


def compose(p, q):
    """Permutation product: apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def cycles_of(perm) -> str:
    """1-based cycle notation, each cycle from its least point, walked once."""
    seen, parts = set(), []
    for i, j in enumerate(perm):
        if j != i and i not in seen:
            cycle = [str(i + 1)]
            while j != i:
                seen.add(j)
                cycle.append(str(j + 1))
                j = perm[j]
            parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) or "()"


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


def _moved_row(rows, p, q):
    """The first row i not moved exactly onto row p[i] at columns q[j], or
    None, which means M(p i, q j) = M(i, j) for all i, j; ``rows`` map each
    row's columns to its nonzero entries."""
    for i, row in enumerate(rows):
        target = rows[p[i]]
        if len(target) != len(row):
            return i
        for j, x in row.items():
            if target.get(q[j]) != x:
                return i
    return None


def _check_paired(phi: PermGroup, psi: PermGroup, laws):
    """Check the (name, rows, mirrored) ``laws`` M(g i, h j) = M(i, j),
    or M(h i, g j) = M(i, j) when mirrored, for the elements g of phi and
    h of psi at each generator index of either group, raising
    PreconditionError at the first that fails; ``rows`` are as for
    ``_moved_row``.

    These pairs suffice: they generate a group K of pairs (g, h), on all
    of which a law holds, being kept under products (M(g g' i, h h' j) =
    M(g' i, h' j) = M(i, j)).  K projects onto both groups, as its
    generating pairs hold both groups' generators.  So every g has a
    partner h, and every h a partner g, which is all that sums over the
    orbits of the two actions need: the index pairing itself need not be
    a homomorphism.
    """
    if phi.order != psi.order:
        raise PreconditionError("the two actions must be actions of the same group")
    for k in sorted(set(phi.generators) | set(psi.generators)):
        g, h = phi.elements[k], psi.elements[k]
        for name, rows, mirrored in laws:
            if _moved_row(rows, *((h, g) if mirrored else (g, h))) is not None:
                raise PreconditionError(f"{name} does not intertwine the actions at element {k}")


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
    _check_int(degree, "degree")
    _check_int(limit, "closure limit")
    if degree < 0:
        raise InputError("degree must be nonnegative")
    gens = [_check_perm(g, degree) for g in gens]
    identity = tuple(range(degree))
    ordered = [identity]
    for layer in _layers({identity}, [identity], gens, compose):
        ordered += layer
        if len(ordered) > limit:
            raise LimitExceededError(f"group closure exceeds limit {limit}")
    first = len(set(gens) - {identity})
    return PermGroup(degree, tuple(ordered), tuple(range(1, 1 + first)))


def paired_group(phi: PermGroup, phi_gens, gens, degree: int, limit: int = CLOSURE_LIMIT) -> PermGroup:
    """The group ``gens`` generate on 0..degree-1, listed so that its
    element k is the image of phi's element k under the map that sends
    the k-th of ``phi_gens``, which generate phi, to the k-th of ``gens``.

    The pairs are closed together breadth first, and each layer is
    searched for a phi element with two images before the next is built.
    PreconditionError, in cycle notation, when the lists differ in length,
    a phi element has two images or two share one; LimitExceededError past
    ``limit`` pairs.  The map is an isomorphism, so phi's generator
    indices are the group's.
    """
    _check_int(degree, "degree")
    _check_int(limit, "closure limit")
    phi_gens = [_check_perm(g, phi.degree) for g in phi_gens]
    gens = [_check_perm(h, degree) for h in gens]
    if len(gens) != len(phi_gens):
        raise PreconditionError(
            f"{len(gens)} listed, but phi lists {len(phi_gens)}; generators pair in order"
        )

    def pair_product(x, y):
        return compose(x[0], y[0]), compose(x[1], y[1])

    identity = (phi.elements[0], tuple(range(degree)))
    image = dict([identity])
    for layer in _layers({identity}, [identity], list(zip(phi_gens, gens)), pair_product):
        for g, h in layer:
            if image.setdefault(g, h) != h:
                raise PreconditionError(
                    f"the pairing sends phi element {cycles_of(g)} to both "
                    f"{cycles_of(image[g])} and {cycles_of(h)}"
                )
        if len(image) > limit:
            raise LimitExceededError(f"group closure exceeds limit {limit}")
    if image.keys() != set(phi.elements):
        raise InputError("the listed phi generators do not generate phi's group")
    elements = tuple(image[g] for g in phi.elements)
    if len(set(elements)) != len(elements):
        raise PreconditionError("the pairing sends two phi elements to one psi element")
    return PermGroup(degree, elements, phi.generators)


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
                "permutation actions need a zero-one matrix, whose states are its symbols"
            )
        if g.degree != p.num_states:
            raise InputError(
                f"group degree {g.degree} does not match state count {p.num_states}"
            )
        rows = [dict(row) for row in p.matrix.sparse]
        for k in g.generators:
            perm = g.elements[k]
            i = _moved_row(rows, perm, perm)
            if i is not None:
                dense = p.matrix.entries
                j = next(j for j, x in enumerate(dense[i]) if dense[perm[i]][perm[j]] != x)
                raise PreconditionError(
                    f"invariance violated: element {k} sends entry ({i + 1},{j + 1})="
                    f"{dense[i][j]} to ({perm[i] + 1},{perm[j] + 1})={dense[perm[i]][perm[j]]}"
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
        return _orbit_structure(self.group.degree, [self.group.elements[k] for k in self.group.generators])

    @property
    def fixed_sets(self) -> tuple:
        """The states each element fixes, in ascending order, by element index."""
        return tuple(map(self.group.fixed, range(self.group.order)))


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


def _orbit_structure(degree: int, gens) -> OrbitStructure:
    """Orbits on 0..degree-1 of the group the permutations ``gens``
    generate, by breadth-first search along them: in a finite group every
    inverse is a power, so forward images reach the orbit."""
    orbit_of = [-1] * degree
    orbits = []
    for i in range(degree):
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


def fixed_submatrix(a: PermutationAction, g: int) -> IntMatrix | None:
    """Principal submatrix on the states fixed by element g: the action's
    matrix itself for the identity, None when g fixes no state."""
    _check_int(g, "element index")
    if not 0 <= g < a.group.order:
        raise InputError(f"element index {g} out of range")
    fixed = a.group.fixed(g)
    if len(fixed) == a.matrix.dim:
        return a.matrix
    return a.matrix.principal(fixed) if fixed else None


def word_stabilizer(a: PermutationAction, w: CycleWord):
    """Intersection of the state stabilizers along a cycle; equals the
    stabilizer of the periodic point the cycle presents."""
    for e in w.edges:
        if not a.presentation.has_edge(e):
            raise PreconditionError(f"edge {e} does not belong to the presentation")
    return a.group.stabilizer(set(w.states))
