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
cover when the data comes from a knot.  G acts through its table, never
as a permutation group on the states: ``RepShift.orbits`` follow the
state maps of G's generators, and ``RepShift.fixed_sets`` lists, for each
element c, the states whose values all commute with c.  So
``tqft_matrix`` is ``right_reduce`` of the representation shift and
``flat_bundle_counts`` its ``burnside_counts``, imported inside them.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

from .errors import InputError, LimitExceededError, PreconditionError
from .records import record
from .intmatrix import IntMatrix, _check_int
from .action import OrbitStructure, _orbit_structure, compose, greedy_generators
from .sft import SftPresentation, trim_essential

HOM_LIMIT = 1000000  # default budget of homomorphism enumeration

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


@record
class FiniteGroupTable:
    """Finite group as an explicit multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.
    Identity and inverses are located during validation.  Associativity
    is checked exactly by Light's test: the elements a with (x a) y =
    x (a y) for all x, y are closed under products, so it suffices to
    test the ``generators``, the greedy generating set of the element order.
    Every table gets every check, the named groups below included.
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
        if any("," in s for s in names):
            # representation-shift state labels join element names with commas
            raise InputError("element names must not contain ','")
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
        for x, row in enumerate(table):
            # a two-sided inverse; it is unique once the table is associative
            inv = row.index(identity) if identity in row else None
            if inv is None or table[inv][x] != identity:
                raise InputError(f"element {names[x]} has no unique inverse")
            inverse.append(inv)
        generators = greedy_generators(range(n), identity, lambda x, y: table[x][y])
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "generators", generators)
        for a in generators:
            ta = table[a]
            for x in range(n):
                tx, txa = table[x], table[table[x][a]]
                if txa != tuple(map(tx.__getitem__, ta)):
                    y = next(y for y in range(n) if txa[y] != tx[ta[y]])
                    raise InputError(
                        f"multiplication table is not associative at ({names[x]},{names[a]},{names[y]})"
                    )

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def conjugate(self, x: int, c: int) -> int:
        """c^-1 x c."""
        return self.mul(self.mul(self.inverse[c], x), c)


def trivial_group() -> FiniteGroupTable:
    return FiniteGroupTable(("e",), ((0,),))


# named groups are bounded by the order of S6, the largest symmetric group
_MAX_NAMED_ORDER = 720


def cyclic_group(n: int) -> FiniteGroupTable:
    _check_int(n, "cyclic group order")
    if not 1 <= n <= _MAX_NAMED_ORDER:
        raise InputError(f"cyclic groups are supported for 1 <= n <= {_MAX_NAMED_ORDER}")
    return FiniteGroupTable(
        tuple(str(k) for k in range(n)),
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
    )


def symmetric_group(n: int) -> FiniteGroupTable:
    """The permutations of 1..n in lexicographic order; p q applies q first.
    Row p lists p q over all q, so row(p s) is row(p) composed with row(s):
    each row is built from an earlier one along (1 2) or the n-cycle."""
    _check_int(n, "symmetric group degree")
    if not 1 <= n <= 6:
        raise InputError("symmetric groups are supported for 1 <= n <= 6")
    perms = list(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    gens = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    gen_rows = [(index[s], tuple(index[compose(s, q)] for q in perms)) for s in gens]
    rows = [tuple(range(len(perms)))] + [None] * (len(perms) - 1)
    order = [0]  # breadth first from the identity: the loop visits what it appends
    for p in order:
        for s, row_s in gen_rows:
            ps = rows[p][s]
            if rows[ps] is None:
                rows[ps] = compose(rows[p], row_s)
                order.append(ps)
    return FiniteGroupTable(tuple("".join(str(i + 1) for i in p) for p in perms), tuple(rows))


def dihedral_group(n: int) -> FiniteGroupTable:
    """Symmetries of a regular n-gon, order 2n.

    Element a is the rotation r^a and element n + a the reflection
    s_a = s_0 r^a, multiplied in closed form with exponents mod n:
    r^a r^b = r^(a+b), r^a s_b = s_(b-a), s_a r^b = s_(a+b), s_a s_b = r^(b-a).
    """
    _check_int(n, "dihedral group size n")
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
    return FiniteGroupTable(names, tuple(rotations + reflections))


def quaternion_group() -> FiniteGroupTable:
    """The eight unit quaternions: element 2a + s is (-1)^s times unit a of
    1, i, j, k.  Units a and b multiply to unit a XOR b, negated where
    neg[a][b] is 1: i j = k but j i = -k, and i i = -1."""
    neg = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))
    names = tuple(sign + unit for unit in "1ijk" for sign in ("", "-"))
    table = tuple(
        tuple(2 * (a ^ b) + (s ^ t ^ neg[a][b]) for b in range(4) for t in range(2))
        for a in range(4) for s in range(2)
    )
    return FiniteGroupTable(names, table)


def evaluate_word(w, images, g: FiniteGroupTable) -> int:
    """Product of generator images and inverses along a word."""
    acc = g.identity
    for i, s in w:
        if not 0 <= i < len(images):
            raise InputError(f"word uses generator {i}, but only {len(images)} images given")
        x = images[i] if s == 1 else g.inverse[images[i]]
        acc = g.mul(acc, x)
    return acc


def enumerate_homs(gens: int, relators, g: FiniteGroupTable, limit: int = HOM_LIMIT):
    """All homomorphisms from a finite presentation into g, as image tuples.

    Prefixes are extended one generator at a time, in lexicographic order
    over (generator, element), with per-prefix pruning: a relator is tested
    as soon as all generators it mentions are assigned.
    """
    _check_int(gens, "generator count")
    _check_int(limit, "homomorphism limit")
    if gens < 0:
        raise InputError("generator count must be nonnegative")
    relators = [check_word(w, gens, "relator") for w in relators]
    # exact without forming order ** gens: bit_length(limit) factors >= 2 exceed limit
    if gens > limit or g.order ** min(gens, limit.bit_length()) > limit:
        # over the trivial group there is one assignment; the work grows with gens
        what = f"{g.order}^{gens} assignments" if g.order > 1 else f"{gens} generators"
        raise LimitExceededError(f"{what} exceed the limit {limit}")
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


@record
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
        _check_int(self.b_gens, "generator count")
        if self.b_gens < 0:
            raise InputError("generator count must be nonnegative")
        # each word list, the generator list its words are over (None: B's), its name in messages
        for name, over, what in (
            ("b_relators", None, "base relator"), ("u_gens", None, "U generator"),
            ("v_gens", None, "V generator"), ("u_relators", "u_gens", "U relator"),
            ("v_relators", "v_gens", "V relator"), ("phi_images", None, "amalgamating image"),
        ):
            gens = len(getattr(self, over)) if over else self.b_gens
            object.__setattr__(self, name, tuple(check_word(w, gens, what) for w in getattr(self, name)))
        if len(self.phi_images) != len(self.u_gens):
            raise InputError("need exactly one amalgamating image per U generator")


@record
class RepShift:
    """Shift of finite type on Hom(U, G) with G's conjugation action.

    ``states`` lists the surviving homomorphisms as image tuples.  G acts
    through its table; no permutation group on the states is closed.
    """

    presentation: SftPresentation
    states: tuple
    group: FiniteGroupTable

    @cached_property
    def conjugations(self) -> tuple:
        """The state maps rho -> c^-1 rho c of the generators c of the group."""
        g, states = self.group, self.states
        index = {s: k for k, s in enumerate(states)}
        gens = []
        for c in g.generators:
            conj = [g.conjugate(x, c) for x in range(g.order)]
            gens.append(tuple(index[tuple(map(conj.__getitem__, s))] for s in states))
        return tuple(gens)

    @property
    def matrix(self) -> IntMatrix:
        return self.presentation.matrix

    @cached_property
    def orbits(self) -> OrbitStructure:
        """The orbits of the conjugation action, searched along ``conjugations``."""
        return _orbit_structure(len(self.states), self.conjugations)

    @cached_property
    def fixed_sets(self) -> tuple:
        """The states each element c fixes, in ascending order, by element
        index: those whose values all lie in the centralizer of c.  Elements
        sharing a centralizer (c and c^-1, say) share one scan of the states."""
        table = self.group.table
        centralizers = [frozenset(x for x, row in enumerate(table) if row[c] == tc[x]) for c, tc in enumerate(table)]
        scans = {z: tuple(k for k, s in enumerate(self.states) if z.issuperset(s)) for z in dict.fromkeys(centralizers)}
        return tuple(map(scans.__getitem__, centralizers))


def _failing_relator(images, relators, g: FiniteGroupTable):
    for k, w in enumerate(relators):
        if evaluate_word(w, images, g) != g.identity:
            return k, w
    return None


def build_repshift(h: HnnData, g: FiniteGroupTable, limit: int = HOM_LIMIT) -> RepShift:
    """Enumerate the representation shift of HNN data over a finite group.

    States are Hom(U, G); each element of Hom(B, G) contributes an edge
    from its restriction to U to its composition with the amalgamating
    map.  The state matrix is built from its sparse rows.  Inessential
    states are trimmed; the conjugation maps are formed when
    ``RepShift.conjugations`` is first read, so a caller can refuse an
    oversized shift before them.  The trivial homomorphism is a state with
    a loop, so the trimmed shift is never empty.
    """
    u_states = enumerate_homs(len(h.u_gens), h.u_relators, g, limit)
    state_index = {s: k for k, s in enumerate(u_states)}
    b_homs = enumerate_homs(h.b_gens, h.b_relators, g, limit)

    edges = {}  # (initial, terminal) -> the number of base homomorphisms
    for rho in b_homs:
        init = tuple(evaluate_word(w, rho, g) for w in h.u_gens)
        term = tuple(evaluate_word(w, rho, g) for w in h.phi_images)
        for name, tup in (("initial", init), ("terminal", term)):
            if tup not in state_index:
                # Hom(U, G) holds every tuple that satisfies the relators
                bad = _failing_relator(tup, h.u_relators, g)
                raise InputError(
                    f"inconsistent HNN data: the {name} state of an edge violates "
                    f"U relator {bad[0]} {bad[1]}; the amalgamating images do not "
                    "define a homomorphism on U"
                )
        key = (state_index[init], state_index[term])
        edges[key] = edges.get(key, 0) + 1

    rows = [[] for _ in u_states]
    for (i, j), count in sorted(edges.items()):
        rows[i].append((j, count))
    labels = tuple(",".join(g.names[x] for x in s) if s else "()" for s in u_states)
    presentation, kept = trim_essential(IntMatrix.from_sparse(rows, len(u_states), labels=labels))
    if not presentation.is_zero_one():
        raise PreconditionError(
            "representation shift has parallel edges (distinct base homomorphisms "
            "share endpoints); the conjugation action is not a symbol permutation "
            "on this presentation"
        )
    return RepShift(presentation=presentation, states=tuple(u_states[k] for k in kept), group=g)


# monodromies of the two fibered genus-one knots, as substitutions on the
# free group of rank two
_PRESETS = {
    "trefoil": (((1, 1),), ((0, -1), (1, 1))),
    "figure8": (((0, 1), (1, 1), (0, 1)), ((1, 1), (0, 1))),
}


def fibered_preset(name: str) -> HnnData:
    """HNN data of a fibered genus-one knot: base, U and V all free of rank
    two, with the knot's monodromy as amalgamating map."""
    if name not in _PRESETS:
        raise InputError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    return HnnData(
        b_gens=2,
        b_relators=(),
        u_gens=(((0, 1),), ((1, 1),)),
        u_relators=(),
        v_gens=(((0, 1),), ((1, 1),)),
        v_relators=(),
        phi_images=_PRESETS[name],
    )


@record
class TqftMatrix:
    """Transfer matrix on the conjugation-orbit basis of the state set."""

    reduced: ReducedShift
    basis: tuple


def tqft_matrix(r: RepShift) -> TqftMatrix:
    """Right-reduced shift of the conjugation action, with orbit labels."""
    from .reduce import right_reduce

    reduced = right_reduce(r)
    return TqftMatrix(reduced=reduced, basis=tuple(map(r.presentation.label, reduced.orbits.representatives)))


def flat_bundle_counts(r: RepShift, m: int) -> OrbitCountReport:
    """Flat-bundle counts over the cyclic branched covers: Burnside orbit
    counts of period-n points of the conjugation action, averaged over G
    (each image element has equally many preimages), with the annihilating
    recurrence of the count sequence."""
    from .quotient import burnside_counts

    return burnside_counts(r, m)
