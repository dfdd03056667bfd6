"""Shared fixtures, randomized generators and oracles for the test suite."""

import json
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

from sftact import (
    ElementarySse,
    IntMatrix,
    PermGroup,
    PermutationAction,
    PreconditionError,
    SftPresentation,
    bowen_franks,
    char_poly_reciprocal,
    classify_quotient,
    enumerate_cycles,
    group_from_generators,
    is_irreducible,
    left_reduce,
    right_reduce,
    trim_essential,
)

# Six-state matrix with the order-four action generated by (1 2)(3 4 5 6).
SIX_STATE_A = IntMatrix((
    (1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1),
    (1, 1, 1, 0, 0, 0),
    (1, 1, 0, 1, 0, 0),
    (1, 1, 0, 0, 1, 0),
    (1, 1, 0, 0, 0, 1),
))
SIX_STATE_GEN = (1, 0, 3, 4, 5, 2)

# Five-state factor of the six-state fixture (first two states identified),
# with the induced order-four action cycling the last four states.
FIVE_STATE_B = IntMatrix((
    (1, 1, 1, 1, 1),
    (1, 1, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0),
    (1, 0, 0, 0, 1),
))
FIVE_STATE_GEN = (0, 2, 3, 4, 1)

# Reducible three-state companion with the swap of the first two states.
REDUCIBLE_A = IntMatrix(((1, 0, 1), (0, 1, 1), (0, 0, 1)))

# Three-state matrix whose order-two action swaps the last two states.
THREE_STATE_A = IntMatrix(((1, 1, 1), (1, 1, 0), (1, 0, 1)))

GOLDEN_MEAN = IntMatrix(((1, 1), (1, 0)))
FULL_TWO_SHIFT = IntMatrix(((1, 1), (1, 1)))

# Triangle graph without self-loop at state 1; swapping states 2 and 3 fixes
# state 1, whose stabilizer then acts transitively on its two in-edges.
TRIANGLE_A = IntMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))


def six_state_action() -> PermutationAction:
    return PermutationAction(
        SftPresentation(SIX_STATE_A),
        group_from_generators(6, [SIX_STATE_GEN]),
    )


def five_state_action() -> PermutationAction:
    return PermutationAction(
        SftPresentation(FIVE_STATE_B),
        group_from_generators(5, [FIVE_STATE_GEN]),
    )


def reducible_action() -> PermutationAction:
    return PermutationAction(
        SftPresentation(REDUCIBLE_A),
        group_from_generators(3, [(1, 0, 2)]),
    )


def three_state_action() -> PermutationAction:
    return PermutationAction(
        SftPresentation(THREE_STATE_A),
        group_from_generators(3, [(0, 2, 1)]),
    )


def swapped_two_shift() -> PermutationAction:
    return PermutationAction(
        SftPresentation(FULL_TWO_SHIFT),
        group_from_generators(2, [(1, 0)]),
    )


def triangle_action() -> PermutationAction:
    return PermutationAction(
        SftPresentation(TRIANGLE_A),
        group_from_generators(3, [(0, 2, 1)]),
    )


def s3_conjugation_action() -> PermutationAction:
    """Full shift on the six elements of the order-six symmetric group,
    acted on by conjugation."""
    elems = list(permutations(range(3)))
    index = {e: k for k, e in enumerate(elems)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    def invert(p):
        out = [0] * 3
        for i, j in enumerate(p):
            out[j] = i
        return tuple(out)

    def conj_perm(h):
        return tuple(index[compose(compose(invert(h), elems[v]), h)] for v in range(6))

    full = IntMatrix(tuple(tuple(1 for _ in elems) for _ in elems))
    group = group_from_generators(6, [conj_perm(elems[1]), conj_perm(elems[3])])
    return PermutationAction(SftPresentation(full), group)


def conjugation_action(shift) -> PermutationAction:
    """The conjugation action of a representation shift, closed as a
    permutation group on its states: the oracle for the library, which
    acts through the group's table instead."""
    return PermutationAction(shift.presentation, group_from_generators(len(shift.states), shift.conjugations))


def brute_conjugation(shift, c: int) -> tuple:
    """The permutation rho -> c^-1 rho c of a representation shift's
    states, with the identity, c^-1 and every product read off the table."""
    table = shift.group.table
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    inverse = next(y for y in range(n) if table[c][y] == identity)
    index = {s: k for k, s in enumerate(shift.states)}
    return tuple(index[tuple(table[table[inverse][x]][c] for x in s)] for s in shift.states)


def standard_actions():
    return [
        six_state_action(),
        five_state_action(),
        reducible_action(),
        three_state_action(),
        swapped_two_shift(),
        triangle_action(),
        s3_conjugation_action(),
    ]


def perm_order(perm) -> int:
    order = 1
    current = perm
    identity = tuple(range(len(perm)))
    while current != identity:
        current = tuple(perm[i] for i in current)
        order += 1
    return order


def random_action(rng, max_states=5, max_order=4, density=None, require_irreducible=False):
    """A valid action on an essential zero-one presentation: draw a
    permutation of bounded order, fill its entry orbits with random bits,
    trim, and restrict the permutation to the surviving states."""
    while True:
        n = rng.randint(2, max_states)
        perm = tuple(rng.sample(range(n), n))
        if perm_order(perm) > max_order:
            continue
        d = density if density is not None else rng.uniform(0.3, 0.55)
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if entries[i][j] is not None:
                    continue
                bit = 1 if rng.random() < d else 0
                a, b = i, j
                while entries[a][b] is None:
                    entries[a][b] = bit
                    a, b = perm[a], perm[b]
        matrix = IntMatrix(tuple(tuple(row) for row in entries))
        trimmed, kept = trim_essential(matrix)
        if len(kept) < 2:
            continue
        if any(perm[k] not in kept for k in kept):
            continue
        pos = {orig: local for local, orig in enumerate(kept)}
        sub_perm = tuple(pos[perm[orig]] for orig in kept)
        presentation = SftPresentation(IntMatrix(trimmed.matrix.entries))
        if require_irreducible and not is_irreducible(presentation):
            continue
        group = group_from_generators(len(kept), [sub_perm])
        if group.order > max_order:
            continue
        return PermutationAction(presentation, group)


def neighbour_states(p: SftPresentation, direction: str) -> list:
    """The successors (out) or predecessors (in) of each state, ascending;
    predecessors are the successors in the transpose."""
    m = p.matrix if direction == "out" else p.matrix.transpose()
    return [[j for j, _ in row] for row in m.sparse]


def random_compatible_split(rng, act: PermutationAction, direction: str) -> tuple:
    """Random action-compatible split partitions: blocks at each orbit
    representative are unions of stabilizer orbits of its successor (out)
    or predecessor (in) states, pushed to the other orbit members by the
    action."""
    p = act.presentation
    table = neighbour_states(p, direction)
    os_ = act.orbits
    elements = act.group.elements
    partitions = [None] * p.num_states
    for orbit in os_.orbits:
        rep = orbit[0]
        stab = act.group.stabilizer((rep,))
        remaining = set(table[rep])
        classes = []
        while remaining:
            j = min(remaining)
            cls = tuple(sorted({elements[g][j] for g in stab}))
            classes.append(cls)
            remaining -= set(cls)
        rng.shuffle(classes)
        blocks = []
        for cls in classes:
            if blocks and rng.random() < 0.5:
                k = rng.randrange(len(blocks))
                blocks[k] = tuple(sorted(blocks[k] + cls))
            else:
                blocks.append(cls)
        for s in orbit:
            perm = next(perm for perm in elements if perm[rep] == s)
            partitions[s] = tuple(tuple(sorted(perm[j] for j in block)) for block in blocks)
    return tuple(partitions)


def orbit_preserving_in_split(act: PermutationAction):
    """In-split partitions whose transported action keeps the orbit count:
    when a representative's stabilizer is transitive on its predecessors,
    split them into singletons; otherwise keep one block.  Returns
    (partitions, nontrivial)."""
    p = act.presentation
    predecessors = neighbour_states(p, "in")
    elements = act.group.elements
    partitions = [None] * p.num_states
    nontrivial = False
    for orbit in act.orbits.orbits:
        rep = orbit[0]
        stab = act.group.stabilizer((rep,))
        preds = predecessors[rep]
        stab_orbit = {elements[g][preds[0]] for g in stab}
        if len(preds) > 1 and stab_orbit == set(preds):
            blocks = tuple((j,) for j in preds)
            nontrivial = True
        else:
            blocks = (tuple(preds),)
        for s in orbit:
            perm = next(perm for perm in elements if perm[rep] == s)
            partitions[s] = tuple(tuple(sorted(perm[j] for j in block)) for block in blocks)
    return tuple(partitions), nontrivial


def amalgamation_state_map(split_action: PermutationAction):
    """Recover the (i, block) -> i state map from split-state labels."""
    return tuple(
        int(label.rsplit(".", 1)[0]) - 1
        for label in split_action.presentation.matrix.labels
    )


def is_right_resolving(code) -> bool:
    """True when a one-block code sends the out-edges of each source state
    to pairwise distinct edges."""
    for es in code.source.out_edges:
        images = [code.edge_map[e] for e in es]
        if len(set(images)) != len(images):
            return False
    return True


def identity_certificate(a: IntMatrix) -> ElementarySse:
    """The elementary equivalence (A, I) from A to itself."""
    identity = IntMatrix.from_sparse([((i, 1),) for i in range(a.dim)], a.dim)
    return ElementarySse(a=a, b=a, r=IntMatrix.from_sparse(a.sparse, a.cols), s=identity)


def trivial_split(p: SftPresentation, direction: str) -> tuple:
    """One block per state: the splitting that splits nothing."""
    return tuple((tuple(ns),) for ns in neighbour_states(p, direction))


def complete_split(p: SftPresentation, direction: str) -> tuple:
    """One singleton block per neighbour state: the full splitting."""
    return tuple(tuple((j,) for j in ns) for ns in neighbour_states(p, direction))


def square_commute_failures(square):
    """The source 2-blocks (e, f) on which theta2 o eta and eta_bar o theta1
    differ, composing the four edge maps as plain dictionaries over the
    edges read off the source matrix."""
    entries = square.eta.source.matrix.entries
    edges = [(i, j, 0) for i, row in enumerate(entries) for j, x in enumerate(row) if x]

    def via_eta(e):
        return square.theta2.edge_map[square.eta.edge_map[e]]

    def via_theta1(e):
        return square.eta_bar.edge_map[square.theta1.edge_map[e]]

    return [
        (e, f)
        for e in edges
        for f in edges
        if e[1] == f[0] and (via_eta(e), via_eta(f)) != (via_theta1(e), via_theta1(f))
    ]


def plain_orbits(n: int, gens):
    """Orbits of the states 0..n-1 under the group generated by ``gens``,
    each sorted, ordered by least member."""
    orbits, seen = [], set()
    for i in range(n):
        if i in seen:
            continue
        orbit, frontier = {i}, [i]
        while frontier:
            k = frontier.pop()
            for perm in gens:
                if perm[k] not in orbit:
                    orbit.add(perm[k])
                    frontier.append(perm[k])
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def all_paths(p: SftPresentation, length: int):
    """Every edge path of the given length, lexicographic."""
    out = []
    path = []

    def walk(cur, depth):
        if depth == length:
            out.append(tuple(path))
            return
        for e in p.out_edges[cur]:
            path.append(e)
            walk(e[1], depth + 1)
            path.pop()

    for s in range(p.num_states):
        walk(s, 0)
    return out


def brute_orbit_counts(a: PermutationAction, m: int, cap: int):
    """Oracle for burnside_counts: enumerate period-n points and count
    their orbits under the edgewise action."""
    out = []
    for n in range(1, m + 1):
        words = enumerate_cycles(a.presentation, n, cap)
        seen = set()
        for w in words:
            canonical = min(a.apply_word(g, w.edges) for g in range(a.group.order))
            seen.add(canonical)
        out.append(len(seen))
    return out


def brute_quotient_counts(a: PermutationAction, m: int, cap: int):
    """Oracle for quotient_period_counts: period-n points of the quotient.

    A quotient point [x] has period n when the shift of x returns to the
    orbit of x.  Any such x satisfies sigma^n x = g x, so its shift period
    divides n * exponent(G); enumerating cycles of that length with their
    phases captures every witness, and the survivors are grouped into
    orbits.
    """
    exponent = brute_exponent(a.group.elements)
    order = a.group.order
    out = []
    for n in range(1, m + 1):
        length = n * exponent
        words = enumerate_cycles(a.presentation, length, cap)
        orbit_reps = set()
        for w in words:
            shifted = w.edges[n % length:] + w.edges[: n % length]
            if any(a.apply_word(g, w.edges) == shifted for g in range(order)):
                orbit_reps.add(min(a.apply_word(g, w.edges) for g in range(order)))
        out.append(len(orbit_reps))
    return out


def constant_to_one_check(a: PermutationAction, cap: int = 100000) -> bool:
    """Operational consequences of the constant-to-one verdict.

    Both reduced matrices must share their reciprocal characteristic
    polynomial and Bowen-Franks invariants, and the quotient period counts
    must equal the trace powers of both reduced matrices for n <= 8.
    Refuses to run on a nonexpansive action.
    """
    verdict = classify_quotient(a)
    if verdict.verdict != "constant-to-one":
        raise PreconditionError("check applies only to constant-to-one quotients")
    right = right_reduce(a).matrix
    left = left_reduce(a).matrix
    if char_poly_reciprocal(right) != char_poly_reciprocal(left):
        return False
    if bowen_franks(right) != bowen_franks(left):
        return False
    counts = brute_quotient_counts(a, 8, cap)
    for n in range(1, 9):
        expected = counts[n - 1]
        if dense_trace_of_power(right, n) != expected or dense_trace_of_power(left, n) != expected:
            return False
    return True


def direct_left_reduce(act: PermutationAction):
    """Oracle for left_reduce: entry (Gi, Gj) sums the column of the
    representative of Gj over the source orbit Gi, on plain lists."""
    rows = act.matrix.entries
    orbits = act.orbits.orbits
    return [[sum(rows[k][oj[0]] for k in oi) for oj in orbits] for oi in orbits]


def direct_in_split(act: PermutationAction, partitions):
    """Oracle for in_split, built on the blocks of predecessor states
    themselves.

    Split state (i, p) is the p-th block at state i, blocks sorted by least
    state.  Returns (matrix, labels, R, S, elements) as plain lists: the
    split matrix has an edge (i, p) -> (j, q) when i lies in block (j, q);
    R (states x split states) marks the blocks each state lies in; S sends
    (i, p) to i; elements are the group permutations transported blockwise.
    """
    n = act.presentation.num_states
    blocks = [sorted(bs, key=min) for bs in partitions]
    new_states = [(i, p) for i, bs in enumerate(blocks) for p in range(len(bs))]
    index = {sp: k for k, sp in enumerate(new_states)}
    labels = [f"{act.presentation.label(i)}.{p + 1}" for i, p in new_states]
    matrix = [
        [1 if i in blocks[j][q] else 0 for (j, q) in new_states]
        for (i, p) in new_states
    ]
    r = [[1 if l in blocks[i][p] else 0 for (i, p) in new_states] for l in range(n)]
    s = [[1 if i == l else 0 for l in range(n)] for (i, p) in new_states]
    elements = []
    for perm in act.group.elements:
        moved = []
        for i, p in new_states:
            image = {perm[j] for j in blocks[i][p]}
            q = next(q for q, blk in enumerate(blocks[perm[i]]) if set(blk) == image)
            moved.append(index[(perm[i], q)])
        elements.append(tuple(moved))
    return matrix, labels, r, s, elements


def brute_power(perm, m: int):
    """perm composed with itself m times, by repeated composition."""
    out = tuple(range(len(perm)))
    for _ in range(m):
        out = tuple(perm[i] for i in out)
    return out


def brute_element_order(perm) -> int:
    """Least m >= 1 with perm^m the identity, trying every m in turn."""
    identity = tuple(range(len(perm)))
    m = 1
    while brute_power(perm, m) != identity:
        m += 1
    return m


def brute_greedy_generators(elements) -> tuple:
    """Indices of the elements that products of the earlier ones do not
    reach, each subgroup closed by a depth-first search over left products
    with the generators found so far."""
    reached, generators = {elements[0]}, []
    for k, perm in enumerate(elements):
        if perm in reached:
            continue
        generators.append(k)
        gens = [elements[i] for i in generators]
        stack = list(reached)
        while stack:
            p = stack.pop()
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in reached:
                    reached.add(q)
                    stack.append(q)
    return tuple(generators)


def reordered_group(degree: int, elements) -> PermGroup:
    """The group of ``elements`` (a whole group, identity first) listed in
    the given order, with its greedy generating set found independently
    of the library's closure."""
    elements = tuple(map(tuple, elements))
    return PermGroup(degree, elements, brute_greedy_generators(elements))


def check_built_group(group: PermGroup, combinatorics) -> None:
    """Closure oracle for a group the library built, with sympy's
    ``combinatorics`` module: the identity comes first, the elements are
    distinct and are exactly the group sympy generates from them, and
    ``generators`` (increasing) holds the greedy generating set and
    generates the whole group."""
    identity = tuple(range(group.degree))
    elements = group.elements

    def generated(perms):
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p)) for p in (identity, *perms)]
        )
        return {tuple(p.array_form) for p in oracle.generate()}

    assert elements[0] == identity
    assert len(set(elements)) == len(elements)
    assert generated(elements) == set(elements)
    assert list(group.generators) == sorted(set(group.generators))
    assert set(brute_greedy_generators(elements)) <= set(group.generators)
    assert generated([elements[k] for k in group.generators]) == set(elements)


def brute_exponent(elements) -> int:
    """Least m >= 1 that sends every element to the identity."""
    identity = tuple(range(len(elements[0])))
    m = 1
    while any(brute_power(p, m) != identity for p in elements):
        m += 1
    return m


def all_element_invariance_error(p: SftPresentation, elements):
    """Reference for the invariance check of PermutationAction: the first
    violation over every element in list order, worded as the library
    words it, or None."""
    rows = p.matrix.entries
    n = p.num_states
    for k, perm in enumerate(elements):
        for i in range(n):
            for j in range(n):
                if rows[perm[i]][perm[j]] != rows[i][j]:
                    return (
                        f"invariance violated: element {k} sends entry ({i + 1},{j + 1})="
                        f"{rows[i][j]} to ({perm[i] + 1},{perm[j] + 1})={rows[perm[i]][perm[j]]}"
                    )
    return None


def all_element_split_error(act: PermutationAction, partitions):
    """Reference for the action-compatibility check of a split: the first
    element, in list order, that does not carry a block at some state onto
    a block at its image state, worded as the library words it, or None.
    Blocks of successors and of predecessors move alike."""
    for g, perm in enumerate(act.group.elements):
        for i, blocks in enumerate(partitions):
            gi = perm[i]
            targets = {frozenset(b) for b in partitions[gi]}
            for block in blocks:
                image = frozenset(perm[j] for j in block)
                if image not in targets:
                    return (
                        f"partition is not action-compatible: element {g} does not carry "
                        f"a block at state {i + 1} onto a block at state {gi + 1}"
                    )
    return None


def frozenset_split_elements(act: PermutationAction, partitions):
    """Reference for the group a split transports: split state (i, p) is
    the p-th block at state i, blocks ordered by least state, and every
    element, in list order, sends it to the state at perm[i] whose block is
    the image of its states, looked up as a frozenset for each element and
    block."""
    blocks = [sorted(bs, key=min) for bs in partitions]
    states = [(i, p) for i, bs in enumerate(blocks) for p in range(len(bs))]
    state_of = {(i, frozenset(blocks[i][p])): k for k, (i, p) in enumerate(states)}
    return [
        tuple(state_of[perm[i], frozenset(perm[j] for j in blocks[i][p])] for i, p in states)
        for perm in act.group.elements
    ]


def _dense_permutation_matrix(perm):
    """P with P(i, perm(i)) = 1."""
    return [[1 if j == perm[i] else 0 for j in range(len(perm))] for i in range(len(perm))]


def dense_intertwining_error(e, phi: PermutationAction, psi: PermutationAction, indices):
    """Reference for the intertwining check of transport_certificate: the
    matrix laws R P(h) = P(g) R and S P(g) = P(h) S on dense permutation
    matrices, for the elements g of phi and h of psi at each of
    ``indices`` in turn, worded as the library words them, or None when
    every pair there intertwines.  The library checks the generator
    indices of either group (``generator_indices``)."""
    r, s = e.r.entries, e.s.entries
    for g in indices:
        pa, pb = phi.group.elements[g], psi.group.elements[g]
        p_phi, p_psi = _dense_permutation_matrix(pa), _dense_permutation_matrix(pb)
        if _dense_product(r, p_psi) != _dense_product(p_phi, r):
            return f"R does not intertwine the actions at element {g}"
        if _dense_product(s, p_phi) != _dense_product(p_psi, s):
            return f"S does not intertwine the actions at element {g}"
    return None


def generator_indices(phi: PermutationAction, psi: PermutationAction) -> list:
    """The indices at which the library checks paired laws: every
    generator index of either group, in increasing order."""
    return sorted({*phi.group.generators, *psi.group.generators})


def random_group_action(rng, max_states=5, max_gens=2):
    """A valid action of a random permutation group on a zero-one matrix
    whose entries are constant on the orbits of state pairs and which has
    no zero row or column, with the group
    elements in a random order (identity first).  Returns the action and
    the generating permutations drawn."""
    while True:
        n = rng.randint(2, max_states)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, max_gens))]
        elements = list(group_from_generators(n, gens).elements)
        d = rng.uniform(0.3, 0.7)
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if entries[i][j] is None:
                    bit = 1 if rng.random() < d else 0
                    for perm in elements:
                        entries[perm[i]][perm[j]] = bit
        if all(any(row) for row in entries) and all(any(col) for col in zip(*entries)):
            break
    rest = elements[1:]
    rng.shuffle(rest)
    matrix = IntMatrix(tuple(tuple(row) for row in entries))
    group = reordered_group(n, elements[:1] + rest)
    return PermutationAction(SftPresentation(matrix), group), gens


def random_split(rng, p: SftPresentation, direction: str) -> tuple:
    """Split partitions with the successors (out) or predecessors (in) of
    each state shuffled into random blocks, compatible with an action or
    not."""
    partitions = []
    for states in neighbour_states(p, direction):
        rng.shuffle(states)
        cuts = sorted(rng.sample(range(1, len(states)), rng.randint(0, len(states) - 1)))
        bounds = [0] + cuts + [len(states)]
        partitions.append(tuple(tuple(states[a:b]) for a, b in zip(bounds, bounds[1:])))
    return tuple(partitions)


def brute_is_group(table) -> bool:
    """Group axioms of a multiplication table checked on every element,
    pair and triple."""
    n = len(table)
    idents = [e for e in range(n) if all(table[e][x] == x and table[x][e] == x for x in range(n))]
    if not idents:
        return False
    e = idents[0]
    if any(sum(1 for y in range(n) if table[x][y] == e and table[y][x] == e) != 1 for x in range(n)):
        return False
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )


def z48_with_swapped_products():
    """The addition table of Z/48 with 1+3 and 1+5 exchanged: identity and
    inverses survive, associativity fails on 370 triples."""
    table = [[(i + j) % 48 for j in range(48)] for i in range(48)]
    table[1][3], table[1][5] = 6, 4
    return table


def _dense_product(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def dense_product(*factors):
    """The product of dense matrices (sequences of rows), left to right."""
    out = factors[0]
    for b in factors[1:]:
        out = _dense_product(out, b)
    return out


def dense_selectors(n: int, orbits):
    """Reference selectors of ``orbits`` (sorted lists of the states
    0..n-1): U (orbits x states) picks each orbit's least member and V
    (states x orbits) marks the orbit of each state."""
    u = tuple(tuple(int(j == orbit[0]) for j in range(n)) for orbit in orbits)
    v = tuple(tuple(int(i in orbit) for orbit in orbits) for i in range(n))
    return u, v


def dense_trace_of_power(m: IntMatrix, n: int) -> int:
    """Oracle for trace_sequence and trace_of_power: trace(m^n) from dense
    repeated squaring of the whole matrix."""
    size = m.dim
    result = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    base = m.entries
    while n:
        if n & 1:
            result = _dense_product(result, base)
        base = _dense_product(base, base) if n > 1 else base
        n >>= 1
    return sum(result[i][i] for i in range(size))


def _times_sparse(p, sparse):
    """The dense product p @ a, with a given by its sparse rows, one scalar
    multiply-add per entry of p and nonzero entry of a."""
    n = len(sparse)
    out = []
    for row in p:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                for j, w in sparse[k]:
                    acc[j] += x * w
        out.append(acc)
    return out


def scalar_trace_sequence(m: IntMatrix, length: int) -> list:
    """Oracle for trace_sequence: the powers of the whole matrix carried
    forward as dense rows of scalars, with no split into components."""
    size = m.dim
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    out = []
    for _ in range(length):
        power = _times_sparse(power, m.sparse)
        out.append(sum(power[i][i] for i in range(size)))
    return out


def scalar_char_poly_reciprocal(m: IntMatrix) -> tuple:
    """Oracle for char_poly_reciprocal: the coefficients of det(I - t m),
    constant first, by the Faddeev-LeVerrier recursion on dense rows of
    scalars over the whole matrix, with no split into components."""
    n = m.dim
    # char poly of m: x^n + c[n-1] x^(n-1) + ... + c[0], with c[n] = 1
    c = [0] * (n + 1)
    c[n] = 1
    # am holds m @ M_(k-1), with M_0 = 0 and M_k = m @ M_(k-1) + c[n-k+1] I
    am = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += c[n - k + 1]
        am = _times_sparse(am, m.sparse)
        t = sum(am[i][i] for i in range(n))
        assert t % k == 0, "Faddeev-LeVerrier division must be exact"
        c[n - k] = -(t // k)
    return tuple(c[n - j] for j in range(n + 1))


def all_pairs_higher_block(p: SftPresentation, n: int):
    """Oracle for higher_block on a zero-one presentation: every allowed
    word of n states in lexicographic order, and the matrix linking each
    pair of words that overlap progressively.  Returns (entries, blocks)."""
    rows = p.matrix.entries
    blocks = [
        b
        for b in product(range(p.num_states), repeat=n)
        if all(rows[i][j] for i, j in zip(b, b[1:]))
    ]
    entries = tuple(
        tuple(1 if b[1:] == b2[:-1] else 0 for b2 in blocks) for b in blocks
    )
    return entries, blocks


def primitive_form(coeffs):
    """Content-1 integer coefficients, lowest nonzero coefficient positive."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    content = 0
    for x in coeffs:
        content = gcd(content, x)
    sign = -1 if next(x for x in coeffs if x) < 0 else 1
    return tuple(sign * x // content for x in coeffs)


def _frac_divmod(num, den):
    """Polynomial division over the rationals; lists of Fractions, constant first."""
    num = list(num)
    dden = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        q = num[i] / lead
        quot[i - dden] = q
        for j in range(dden + 1):
            num[i - dden + j] -= q * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _fraction_gcd(p, q):
    """Primitive integer gcd of two nonzero integer coefficient tuples, by
    Euclid over the rationals."""
    a = [Fraction(x) for x in p]
    b = [Fraction(x) for x in q]
    while b:
        _, r = _frac_divmod(a, b)
        a, b = b, r
    denoms = lcm(*[f.denominator for f in a])
    return primitive_form([int(f * denoms) for f in a])


def fraction_poly_lcm(ps):
    """Oracle for poly_lcm: Euclid over ``Fraction``, product divided by the
    gcd over the rationals; primitive coefficients, lowest one positive."""
    acc = primitive_form(ps[0].coefficients)
    for p in ps[1:]:
        coeffs = primitive_form(p.coefficients)
        g = _fraction_gcd(acc, coeffs)
        prod = [0] * (len(acc) + len(coeffs) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(coeffs):
                prod[i + j] += x * y
        quot, rem = _frac_divmod([Fraction(x) for x in prod], [Fraction(x) for x in g])
        assert not rem, "gcd must divide the product exactly"
        acc = primitive_form([int(f) for f in quot])
    return acc


def recurrence_holds(recurrence, terms) -> bool:
    """True when sum_k c_k terms[n - k] = 0 for every window of the sequence."""
    c = recurrence.coefficients
    d = recurrence.degree
    assert d >= 0, "the zero polynomial is not a recurrence"
    return all(sum(c[k] * terms[n - k] for k in range(d + 1)) == 0 for n in range(d, len(terms)))


def fraction_divides(p, q) -> bool:
    """True when p divides q over the rationals: the remainder of q by p,
    by long division over ``Fraction``, is zero."""
    if q.is_zero():
        return True
    _, rem = _frac_divmod([Fraction(x) for x in q.coefficients], [Fraction(x) for x in p.coefficients])
    return not rem


def networkx_digraph(nx, m: IntMatrix):
    """The networkx digraph of the nonzero entries of m, on states 0..n-1."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(m.dim))
    graph.add_edges_from((i, j) for i in range(m.dim) for j in range(m.dim) if m.entries[i][j])
    return graph


def permutation_dihedral_table(n: int):
    """(names, table) of the dihedral group of order 2n, built by composing
    the rotation and reflection of the n-gon as permutations of its
    vertices; n = 1 and n = 2 are written out, since those permutations
    do not act faithfully."""
    if n == 1:
        return ("r0", "s0"), ((0, 1), (1, 0))
    if n == 2:
        # Klein four group: multiplication is xor on (rotation, reflection) bits
        return ("r0", "r1", "s0", "s1"), tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    perms, names = [], []
    r = tuple(range(n))
    for k in range(n):
        perms.append(r)
        names.append(f"r{k}")
        r = tuple(rotation[i] for i in r)
    for k in range(n):
        perms.append(tuple(reflection[perms[k][i]] for i in range(n)))
        names.append(f"s{k}")
    index = {p: k for k, p in enumerate(perms)}
    # the product applies q first, then p
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms)
    return tuple(names), table


def composition_symmetric_table(n: int):
    """(names, table) of the symmetric group on 1..n, its permutations in
    lexicographic order, by one composition per entry: the product applies
    q first, then p."""
    perms = list(permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    names = tuple("".join(str(i + 1) for i in p) for p in perms)
    return names, tuple(tuple(index[tuple(p[i] for i in q)] for q in perms) for p in perms)



def quaternion_arithmetic_table():
    """(names, table) of the eight unit quaternions, each product formed
    by quaternion arithmetic on (w, x, y, z) coordinates."""
    units = {
        "1": (1, 0, 0, 0), "-1": (-1, 0, 0, 0),
        "i": (0, 1, 0, 0), "-i": (0, -1, 0, 0),
        "j": (0, 0, 1, 0), "-j": (0, 0, -1, 0),
        "k": (0, 0, 0, 1), "-k": (0, 0, 0, -1),
    }
    names = tuple(units)
    index = {v: k for k, v in enumerate(units.values())}

    def qmul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    return names, tuple(tuple(index[qmul(units[a], units[b])] for b in names) for a in names)

# monodromies of the preset knots as substitutions on the free group of rank
# two, a word being (generator, sign) letters: trefoil a -> b, b -> a^-1 b;
# figure eight a -> a b a, b -> b a
PLAIN_MONODROMIES = {
    "trefoil": (((1, 1),), ((0, -1), (1, 1))),
    "figure8": (((0, 1), (1, 1), (0, 1)), ((1, 1), (0, 1))),
}


def plain_monodromy_fixed_counts(substitution, degree: int, m: int):
    """Oracle for the period counts of a fibered representation shift over
    the symmetric group on ``degree`` points, on plain permutation tuples:
    entry n - 1 counts the pairs (a, b) fixed by the n-th iterate of
    (a, b) -> (w_a(a, b), w_b(a, b)) for the words of ``substitution``."""
    def mul(p, q):
        return tuple(p[q[i]] for i in range(degree))

    def inverse(p):
        out = [0] * degree
        for i, j in enumerate(p):
            out[j] = i
        return tuple(out)

    def evaluate(word, images):
        acc = tuple(range(degree))
        for k, sign in word:
            acc = mul(acc, images[k] if sign == 1 else inverse(images[k]))
        return acc

    pairs = list(product(permutations(range(degree)), repeat=2))
    step = {pair: tuple(evaluate(w, pair) for w in substitution) for pair in pairs}
    counts, current = [], {pair: pair for pair in pairs}
    for _ in range(m):
        current = {pair: step[image] for pair, image in current.items()}
        counts.append(sum(pair == image for pair, image in current.items()))
    return counts


def alexander_polynomial(substitution) -> tuple:
    """det(t I - M), constant term first, for M the 2 x 2 exponent-sum
    matrix of a substitution on the free group of rank two: entry (i, k)
    is the exponent sum of generator i in the image of generator k."""
    m = [[0, 0], [0, 0]]
    for k, word in enumerate(substitution):
        for i, sign in word:
            m[i][k] += sign
    return (m[0][0] * m[1][1] - m[0][1] * m[1][0], -(m[0][0] + m[1][1]), 1)


def emit_job(job) -> str:
    """Canonical serialization of a parsed job's document, for round trips
    through ``parse_job``."""
    return json.dumps(job.document(), sort_keys=True, indent=2) + "\n"


def check_group_table(group, combinatorics):
    """sympy oracle for a multiplication table; returns the permutation
    group of its right multiplications r_a: x -> x a.

    The r_a must be distinct permutations that the generators' r_a
    generate, in a group of the table's order.  They then form that whole
    group, so r_a followed by r_b is some r_c, and evaluating both at the
    identity e gives c = a b: (x a) b = x (a b) for every x, which is
    associativity, checked without Light's test.  The identity and the
    inverses are checked directly.
    """
    n, table, e = group.order, group.table, group.identity
    right = [combinatorics.Permutation([table[x][a] for x in range(n)]) for a in range(n)]
    assert len(set(right)) == n
    assert right[e].is_Identity and list(table[e]) == list(range(n))
    assert all(table[x][group.inverse[x]] == e == table[group.inverse[x]][x] for x in range(n))
    oracle = combinatorics.PermutationGroup([right[a] for a in group.generators] or [right[e]])
    assert oracle.order() == n
    assert all(oracle.contains(r) for r in right)
    return oracle
