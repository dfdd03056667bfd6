"""Representation shifts of HNN data and their conjugation reductions.

A finitely presented group with an epimorphism onto the integers can be
written with a base group B, subgroups U, V of B and an amalgamating
isomorphism U -> V.  The homomorphisms of the fibered kernel into a fixed
finite group G then form a shift of finite type: states are Hom(U, G),
and each rho in Hom(B, G) is an edge from its restriction to U to its
pullback along the amalgamating map.  The finite group acts on this shift
by conjugating values; the right-reduced shift of that action is the
transfer matrix on the orbit basis Hom(U, G)/G, and Burnside orbit counts
of period-n points count flat G-bundles over the n-fold cyclic branched
cover when the data comes from a knot.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import InputError, LimitExceededError, PreconditionError
from .matrices import IntMatrix, IntPolynomial
from .action import PermGroup, PermutationAction, _close, compose, greedy_generators
from .quotient import OrbitCountReport, burnside_counts
from .reduce import ReducedShift, right_reduce
from .sft import SftPresentation, trim_essential

# A group word is a tuple of (generator index, sign) pairs with sign +-1.
GroupWord = tuple


def check_word(w, gens: int, what: str = "word") -> GroupWord:
    word = tuple((i, s) for i, s in w)
    for i, s in word:
        if type(i) is not int or type(s) is not int:
            raise InputError(f"{what} has a non-integer letter ({i!r}, {s!r})")
        if not 0 <= i < gens:
            raise InputError(f"{what} uses generator {i}, but only {gens} exist")
        if s not in (1, -1):
            raise InputError(f"{what} has sign {s}, expected 1 or -1")
    return word


@dataclass(frozen=True)
class FiniteGroupTable:
    """Finite group as an explicit multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.
    Identity and inverses are located during validation.  Associativity
    is checked exactly by Light's test: the elements a with (x a) y =
    x (a y) for all x, y are closed under products, so it suffices to
    test the ``generators``, the greedy generating set of the element order.
    """

    names: tuple
    table: tuple

    def __post_init__(self):
        names = tuple(str(s) for s in self.names)
        n = len(names)
        if n == 0:
            raise InputError("a group needs at least the identity")
        if len(set(names)) != n:
            raise InputError("element names must be pairwise distinct")
        table = tuple(tuple(row) for row in self.table)
        if len(table) != n or any(len(row) != n for row in table):
            raise InputError("multiplication table must be square of the group order")
        if any(type(x) is not int or not 0 <= x < n for row in table for x in row):
            raise InputError("multiplication table entries must be element indices")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)

        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise InputError("multiplication table has no identity element")
        inverse = []
        for x in range(n):
            inv = [y for y in range(n) if table[x][y] == identity and table[y][x] == identity]
            if len(inv) != 1:
                raise InputError(f"element {names[x]} has no unique inverse")
            inverse.append(inv[0])
        generators = greedy_generators(range(n), identity, lambda x, y: table[x][y], lambda q: None)
        for a in generators:
            ta = table[a]
            for x in range(n):
                tx, txa = table[x], table[table[x][a]]
                if txa != tuple(map(tx.__getitem__, ta)):
                    y = next(y for y in range(n) if txa[y] != tx[ta[y]])
                    raise InputError(
                        f"multiplication table is not associative at ({names[x]},{names[a]},{names[y]})"
                    )
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "generators", generators)

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def conjugate(self, x: int, c: int) -> int:
        """c^-1 x c."""
        return self.mul(self.mul(self.inverse[c], x), c)


def trivial_group() -> FiniteGroupTable:
    return FiniteGroupTable(names=("e",), table=((0,),))


# named groups are bounded by the order of S6, the largest symmetric group
_MAX_NAMED_ORDER = 720


def cyclic_group(n: int) -> FiniteGroupTable:
    if not 1 <= n <= _MAX_NAMED_ORDER:
        raise InputError(f"cyclic groups are supported for 1 <= n <= {_MAX_NAMED_ORDER}")
    return FiniteGroupTable(
        names=tuple(str(k) for k in range(n)),
        table=tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
    )


def symmetric_group(n: int) -> FiniteGroupTable:
    if not 1 <= n <= 6:
        raise InputError("symmetric groups are supported for 1 <= n <= 6")
    perms = list(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    return FiniteGroupTable(
        names=tuple("".join(str(i + 1) for i in p) for p in perms),
        table=tuple(tuple(index[compose(p, q)] for q in perms) for p in perms),
    )


def dihedral_group(n: int) -> FiniteGroupTable:
    """Symmetries of a regular n-gon, order 2n.

    Element a is the rotation r^a and element n + a the reflection
    s_a = s_0 r^a, multiplied in closed form with exponents mod n:
    r^a r^b = r^(a+b), r^a s_b = s_(b-a), s_a r^b = s_(a+b), s_a s_b = r^(b-a).
    """
    if not 1 <= n <= _MAX_NAMED_ORDER // 2:
        raise InputError(f"dihedral groups are supported for 1 <= n <= {_MAX_NAMED_ORDER // 2}")
    rotations = [
        tuple((a + b) % n for b in range(n)) + tuple(n + (b - a) % n for b in range(n))
        for a in range(n)
    ]
    reflections = [
        tuple(n + (a + b) % n for b in range(n)) + tuple((b - a) % n for b in range(n))
        for a in range(n)
    ]
    names = tuple(f"r{a}" for a in range(n)) + tuple(f"s{a}" for a in range(n))
    return FiniteGroupTable(names=names, table=tuple(rotations + reflections))


def quaternion_group() -> FiniteGroupTable:
    """The eight unit quaternions."""
    units = {
        "1": (1, 0, 0, 0), "-1": (-1, 0, 0, 0),
        "i": (0, 1, 0, 0), "-i": (0, -1, 0, 0),
        "j": (0, 0, 1, 0), "-j": (0, 0, -1, 0),
        "k": (0, 0, 0, 1), "-k": (0, 0, 0, -1),
    }
    names = tuple(units)
    values = {v: name for name, v in units.items()}

    def qmul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    order = {name: k for k, name in enumerate(names)}
    table = tuple(
        tuple(order[values[qmul(units[a], units[b])]] for b in names) for a in names
    )
    return FiniteGroupTable(names=names, table=table)


def evaluate_word(w, images, g: FiniteGroupTable) -> int:
    """Product of generator images and inverses along a word."""
    acc = g.identity
    for i, s in w:
        if not 0 <= i < len(images):
            raise InputError(f"word uses generator {i}, but only {len(images)} images given")
        x = images[i] if s == 1 else g.inverse[images[i]]
        acc = g.mul(acc, x)
    return acc


def enumerate_homs(gens: int, relators, g: FiniteGroupTable, limit: int = 1000000):
    """All homomorphisms from a finite presentation into g, as image tuples.

    Prefixes are extended one generator at a time, in lexicographic order
    over (generator, element), with per-prefix pruning: a relator is tested
    as soon as all generators it mentions are assigned.
    """
    if gens < 0:
        raise InputError("generator count must be nonnegative")
    relators = [check_word(w, gens, "relator") for w in relators]
    if g.order ** gens > limit:
        raise LimitExceededError(
            f"{g.order}^{gens} assignments exceed the limit {limit}"
        )
    by_depth = [[] for _ in range(gens + 1)]
    for w in relators:
        depth = max((i for i, _ in w), default=-1) + 1
        by_depth[depth].append(w)
    if not all(evaluate_word(w, (), g) == g.identity for w in by_depth[0]):
        return []
    out = [()]
    for depth in range(gens):
        out = [
            images
            for prefix in out
            for images in (prefix + (x,) for x in range(g.order))
            if all(evaluate_word(w, images, g) == g.identity for w in by_depth[depth + 1])
        ]
    return out


@dataclass(frozen=True)
class HnnData:
    """Presentation data for a fibered kernel.

    The base group B has ``b_gens`` generators and ``b_relators``; the
    subgroups U and V are given by words over B (``u_gens``, ``v_gens``)
    with their own abstract relators; ``phi_images`` sends each U
    generator to a word over B describing its image in V.
    """

    b_gens: int
    b_relators: tuple
    u_gens: tuple
    u_relators: tuple
    v_gens: tuple
    v_relators: tuple
    phi_images: tuple

    def __post_init__(self):
        if self.b_gens < 0:
            raise InputError("generator count must be nonnegative")
        object.__setattr__(
            self, "b_relators", tuple(check_word(w, self.b_gens, "base relator") for w in self.b_relators)
        )
        object.__setattr__(
            self, "u_gens", tuple(check_word(w, self.b_gens, "U generator") for w in self.u_gens)
        )
        object.__setattr__(
            self, "v_gens", tuple(check_word(w, self.b_gens, "V generator") for w in self.v_gens)
        )
        object.__setattr__(
            self, "u_relators", tuple(check_word(w, len(self.u_gens), "U relator") for w in self.u_relators)
        )
        object.__setattr__(
            self, "v_relators", tuple(check_word(w, len(self.v_gens), "V relator") for w in self.v_relators)
        )
        phi = tuple(check_word(w, self.b_gens, "amalgamating image") for w in self.phi_images)
        if len(phi) != len(self.u_gens):
            raise InputError("need exactly one amalgamating image per U generator")
        object.__setattr__(self, "phi_images", phi)

    def abelianized_matrix(self):
        """Exponent-sum matrix of the amalgamating images: entry (i, k) is
        the exponent sum of base generator i in the image of U generator k."""
        cols = [[0] * len(self.phi_images) for _ in range(self.b_gens)]
        for k, w in enumerate(self.phi_images):
            for i, s in w:
                cols[i][k] += s
        return cols


@dataclass(frozen=True)
class RepShift:
    """Shift of finite type on Hom(U, G) with its conjugation action.

    ``states`` lists the surviving homomorphisms as image tuples;
    ``edge_homs`` maps each presentation edge to the base-group
    homomorphism it came from.
    """

    presentation: SftPresentation
    action: PermutationAction
    states: tuple
    edge_homs: dict
    group: FiniteGroupTable
    hnn: HnnData


def _failing_relator(images, relators, g: FiniteGroupTable):
    for k, w in enumerate(relators):
        if evaluate_word(w, images, g) != g.identity:
            return k, w
    return None


def build_repshift(h: HnnData, g: FiniteGroupTable, limit: int = 1000000) -> RepShift:
    """Enumerate the representation shift of HNN data over a finite group.

    States are Hom(U, G); each element of Hom(B, G) contributes an edge
    from its restriction to U to its composition with the amalgamating
    map.  The state matrix is built from its sparse rows.  Inessential
    states are trimmed, and the conjugation action (state maps
    rho -> c^-1 rho c, deduplicated to the inner automorphism image) is
    installed and validated.  The trivial homomorphism is a state with a
    loop, so the trimmed shift is never empty.
    """
    u_states = enumerate_homs(len(h.u_gens), h.u_relators, g, limit)
    state_index = {s: k for k, s in enumerate(u_states)}
    b_homs = enumerate_homs(h.b_gens, h.b_relators, g, limit)

    attached = {}
    for rho in b_homs:
        init = tuple(evaluate_word(w, rho, g) for w in h.u_gens)
        term = tuple(evaluate_word(w, rho, g) for w in h.phi_images)
        for name, tup in (("initial", init), ("terminal", term)):
            if tup not in state_index:
                bad = _failing_relator(tup, h.u_relators, g)
                assert bad is not None, "tuples outside the state set must fail a relator"
                raise InputError(
                    f"inconsistent HNN data: the {name} state of an edge violates "
                    f"U relator {bad[0]} {bad[1]}; the amalgamating images do not "
                    "define a homomorphism on U"
                )
        attached.setdefault((state_index[init], state_index[term]), []).append(rho)

    rows = [[] for _ in u_states]
    for (i, j), homs in sorted(attached.items()):
        rows[i].append((j, len(homs)))
    trimmed, kept = trim_essential(IntMatrix.from_sparse(rows, len(u_states)))
    kept_states = tuple(u_states[k] for k in kept)
    labels = tuple(",".join(g.names[x] for x in s) if s else "()" for s in kept_states)
    matrix = IntMatrix.from_sparse(trimmed.matrix.sparse, len(kept), labels=labels)
    if not matrix.is_zero_one():
        raise PreconditionError(
            "representation shift has parallel edges (distinct base homomorphisms "
            "share endpoints); the conjugation action is not a symbol permutation "
            "on this presentation"
        )
    presentation = SftPresentation(matrix)

    # conjugation by the generators of g, closed under composition
    kept_index = {s: k for k, s in enumerate(kept_states)}
    gens = []
    for c in g.generators:
        conj = [g.conjugate(x, c) for x in range(g.order)]
        gens.append(tuple(kept_index[tuple(map(conj.__getitem__, s))] for s in kept_states))
    identity = tuple(range(len(kept_states)))
    perms = {identity}
    _close(perms, [identity], gens, compose, lambda q: None)
    distinct = [identity] + sorted(perms - {identity})
    action = PermutationAction(presentation, PermGroup(len(kept_states), tuple(distinct)))

    kept_pos = {orig: local for local, orig in enumerate(kept)}
    edge_homs = {}
    for (i, j), homs in attached.items():
        if i in kept_pos and j in kept_pos:
            edge_homs[(kept_pos[i], kept_pos[j], 0)] = tuple(homs[0])
    return RepShift(
        presentation=presentation,
        action=action,
        states=kept_states,
        edge_homs=edge_homs,
        group=g,
        hnn=h,
    )


_PRESETS = {
    # monodromies of the two fibered genus-one knots, as substitutions on
    # the free group of rank two; the stored polynomial is the knot's
    # Alexander polynomial, which the abelianized substitution must match
    "trefoil": (
        (((1, 1),), ((0, -1), (1, 1))),
        IntPolynomial((1, -1, 1)),
    ),
    "figure8": (
        (((0, 1), (1, 1), (0, 1)), ((1, 1), (0, 1))),
        IntPolynomial((1, -3, 1)),
    ),
}


def fibered_preset(name: str) -> HnnData:
    """HNN data of a fibered genus-one knot: base, U and V all free of rank
    two, with the knot's monodromy as amalgamating map.

    Each preset self-checks: the characteristic polynomial of the
    abelianized monodromy must equal the stored Alexander polynomial.
    """
    if name not in _PRESETS:
        raise InputError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    phi_images, alexander = _PRESETS[name]
    data = HnnData(
        b_gens=2,
        b_relators=(),
        u_gens=(((0, 1),), ((1, 1),)),
        u_relators=(),
        v_gens=(((0, 1),), ((1, 1),)),
        v_relators=(),
        phi_images=phi_images,
    )
    cols = data.abelianized_matrix()
    trace = cols[0][0] + cols[1][1]
    det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    char = IntPolynomial((det, -trace, 1))
    assert char == alexander, f"preset {name} fails its Alexander polynomial self-check"
    return data


def preset_alexander_polynomial(name: str) -> IntPolynomial:
    if name not in _PRESETS:
        raise InputError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    return _PRESETS[name][1]


@dataclass(frozen=True)
class TqftMatrix:
    """Transfer matrix on the conjugation-orbit basis of the state set."""

    reduced: ReducedShift
    basis: tuple


def tqft_matrix(r: RepShift) -> TqftMatrix:
    """Right-reduced shift of the conjugation action, with orbit labels."""
    reduced = right_reduce(r.action)
    orbit_labels = tuple(
        r.presentation.label(rep) for rep in r.action.orbits.representatives
    )
    return TqftMatrix(reduced=reduced, basis=orbit_labels)


def flat_bundle_counts(r: RepShift, m: int) -> OrbitCountReport:
    """Flat-bundle counts over the cyclic branched covers: Burnside orbit
    counts of period-n points of the conjugation action, with the
    annihilating recurrence of the count sequence."""
    return burnside_counts(r.action, m)
