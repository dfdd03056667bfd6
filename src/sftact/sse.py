"""Strong shift equivalence certificates and action-compatible recodings.

An elementary certificate is a pair (R, S) of nonnegative integer matrices
with R S = A and S R = B; chains of these witness topological conjugacy.
For zero-one data the certificate induces a canonical two-block conjugacy.
When both matrices carry actions of one group intertwined by R and S, the
certificate transports to one between the right-reduced matrices: the
pair (U R V', U' S V), R and S reduced over the orbits of both actions.
The laws are checked between elements paired by index, at generator
indices alone (``action._check_paired``), so the pairing need not be a
homomorphism.

State splittings supply the certificates this package generates itself:
out-splittings partition the successors of each state into blocks,
in-splittings its predecessors, and a partition compatible with the group
action transports the action to the split presentation.  An in-splitting
is not computed or validated on its own: a state's predecessors in A are
its successors in A^t, so it is the out-splitting of A^t along the same
partition, transposed back, and its certificate is the transposed pair
(S^t, R^t).  Repeated complete out-splittings realize higher-block
recodings.  Finally, a right-resolving one-block factor map of actions
induces a commuting square of right-resolving maps between the original
and reduced shifts.  The reductions are imported inside the two
operations that use them, so verifying or splitting compiles none.
"""

from __future__ import annotations


from .errors import InputError, InternalError, PreconditionError
from .records import record
from .intmatrix import IntMatrix, _check_int, mat_mul
from .action import PermGroup, PermutationAction, _check_paired
from .sft import SftPresentation


@record
class ElementarySse:
    """Claimed elementary strong shift equivalence between a and b.

    The products are not enforced at construction; verify_elementary_sse
    checks them, so invalid certificates can be reported rather than
    rejected while being built.
    """

    a: IntMatrix
    b: IntMatrix
    r: IntMatrix
    s: IntMatrix

    def __post_init__(self):
        if self.r.rows != self.a.dim or self.r.cols != self.b.dim:
            raise InputError(
                f"R must be {self.a.dim}x{self.b.dim}, got {self.r.rows}x{self.r.cols}"
            )
        if self.s.rows != self.b.dim or self.s.cols != self.a.dim:
            raise InputError(
                f"S must be {self.b.dim}x{self.a.dim}, got {self.s.rows}x{self.s.cols}"
            )


def _same_entries(a: IntMatrix, b: IntMatrix) -> bool:
    """True when a and b have equal entries, whatever their labels."""
    return a.cols == b.cols and a.sparse == b.sparse


@record
class SseChain:
    """Chain of elementary equivalences with matching endpoints."""

    links: tuple

    def __post_init__(self):
        links = tuple(self.links)
        if not links:
            raise InputError("a chain needs at least one link")
        for e, f in zip(links, links[1:]):
            if not _same_entries(e.b, f.a):
                raise InputError("consecutive chain endpoints do not agree")
        object.__setattr__(self, "links", links)

    @property
    def a(self) -> IntMatrix:
        return self.links[0].a

    @property
    def b(self) -> IntMatrix:
        return self.links[-1].b


def verify_elementary_sse(e: ElementarySse) -> bool:
    """True iff R S = A and S R = B hold exactly."""
    return _same_entries(mat_mul(e.r, e.s), e.a) and _same_entries(mat_mul(e.s, e.r), e.b)


@record
class TwoBlockConjugacy:
    """The conjugacy canonically attached to a zero-one certificate.

    ``forward`` sends composable source edge pairs to target edges (a
    two-block map with anticipation one); ``backward`` is its mirror.
    Composing the two trims one edge from each end of a finite path:
    apply_backward(apply_forward(p)) == p[1:-1].
    """

    source: SftPresentation
    target: SftPresentation
    forward: dict
    backward: dict

    def apply_forward(self, edges):
        return self._apply(self.forward, edges)

    def apply_backward(self, edges):
        return self._apply(self.backward, edges)

    @staticmethod
    def _apply(table, edges):
        edges = tuple(tuple(e) for e in edges)
        if len(edges) < 2:
            raise InputError("need at least two edges to apply a two-block map")
        return tuple(table[(e, f)] for e, f in zip(edges, edges[1:]))


def _resolve_edges(a: IntMatrix, r: IntMatrix, s: IntMatrix) -> dict:
    """For each edge (i, j) of a, the unique state k with R(i, k) = S(k, j) = 1."""
    s_support = [{j for j, _ in row} for row in s.sparse]
    k_of = {}
    for i, row in enumerate(a.sparse):
        for j, _ in row:
            ks = [k for k, _ in r.sparse[i] if j in s_support[k]]
            if len(ks) != 1:
                raise PreconditionError(
                    f"certificate does not resolve edge ({i + 1},{j + 1}) uniquely: candidates {[k + 1 for k in ks]}"
                )
            k_of[(i, j)] = ks[0]
    return k_of


def _two_block_table(src: SftPresentation, dst: SftPresentation, k_of: dict) -> dict:
    """Each composable edge pair of src -> the edge of dst between their resolved states."""
    table = {}
    for edge1 in src.edges:
        for edge2 in src.out_edges[edge1[1]]:
            k1, k2 = k_of[edge1[:2]], k_of[edge2[:2]]
            if not dst.has_edge((k1, k2, 0)):
                raise InternalError(f"resolved states {k1 + 1} and {k2 + 1} are not adjacent")
            table[(edge1, edge2)] = (k1, k2, 0)
    return table


def induced_conjugacy(e: ElementarySse) -> TwoBlockConjugacy:
    """Resolve a zero-one certificate into its two-block conjugacy tables.

    For each nonzero A(i, j) there must be a unique state k of B with
    R(i, k) = S(k, j) = 1; the failure of that uniqueness means the
    certificate is not of the canonical zero-one form.  The backward table
    is the forward table of the swapped certificate (S, R) from B to A,
    whose uniqueness S R = B forces.
    """
    for name, m in (("a", e.a), ("b", e.b), ("r", e.r), ("s", e.s)):
        if not m.is_zero_one():
            raise PreconditionError(f"matrix {name} is not zero-one")
    k_of = _resolve_edges(e.a, e.r, e.s)
    if not verify_elementary_sse(e):
        raise PreconditionError("certificate products do not hold; nothing to induce")
    src, dst = SftPresentation(e.a), SftPresentation(e.b)
    forward = _two_block_table(src, dst, k_of)
    backward = _two_block_table(dst, src, _resolve_edges(e.b, e.s, e.r))
    return TwoBlockConjugacy(source=src, target=dst, forward=forward, backward=backward)


def _check_intertwining(e: ElementarySse, phi: PermutationAction, psi: PermutationAction):
    # R(gi, hj) = R(i, j) and S(hi, gj) = S(i, j) for g of phi and h of psi
    # at each generator index of either group
    r, s = ([dict(row) for row in m.sparse] for m in (e.r, e.s))
    _check_paired(phi.group, psi.group, (("R", r, False), ("S", s, True)))


def transport_certificate(
    e: ElementarySse, phi: PermutationAction, psi: PermutationAction
) -> ElementarySse:
    """Transport a certificate between actions to the reduced matrices.

    Requires groups of one order, and R(gi, hj) = R(i, j) and
    S(hi, gj) = S(i, j) for the elements g of phi and h of psi at each
    generator index of either group; other indices are not checked, and
    the index pairing need not be a homomorphism.  The transported pair
    is (U R V', U' S V): R reduced over phi's orbits on its rows and psi's
    on its columns, S the other way round.  It is verified before being
    returned.
    """
    from .reduce import _reduce, right_reduce

    if not (_same_entries(e.a, phi.matrix) and _same_entries(e.b, psi.matrix)):
        raise InputError("certificate endpoints do not match the action matrices")
    if not verify_elementary_sse(e):
        raise PreconditionError("certificate does not verify; cannot transport")
    _check_intertwining(e, phi, psi)
    r2 = _reduce(e.r, phi.orbits, psi.orbits)
    s2 = _reduce(e.s, psi.orbits, phi.orbits)
    out = ElementarySse(a=right_reduce(phi).matrix, b=right_reduce(psi).matrix, r=r2, s=s2)
    if not verify_elementary_sse(out):
        raise InternalError("the transported certificate does not verify")
    return out


def _out_split_core(matrix: IntMatrix, group: PermGroup, partitions, direction: str):
    """Out-split ``matrix`` along per-state blocks of its successor states
    that ``group`` carries onto each other (an in-split hands over the
    transpose, whose successors are the predecessors it was given;
    ``direction`` only words the messages).

    Blocks of each state are sorted by least state, which fixes the state
    order (i, p) of the split matrix.  Returns the verified certificate
    (division matrix, edge-count matrix) and the group transported to the
    split states by g.(i, p) = (gi, position of the image block).

    Compatibility is checked on the generators: an element whose image of
    some block is no block raises PreconditionError, and compatible
    elements are closed under composition, so the first element that fails
    is a generator.  Every element then carries a block onto the block of
    its first edge's image, read from one edge -> split state map.  The
    transported group is an isomorphic image listed in the same order, so
    it keeps the source's generator indices.
    """
    if len(partitions) != matrix.dim:
        raise InputError("split data must give a partition for every state")
    for i, (bs, row) in enumerate(zip(partitions, matrix.sparse)):
        if not all(bs):
            raise InputError(f"state {i + 1} has an empty partition block")
        # the successors are distinct, so equal sorted lists rule out repeats
        if sorted(j for block in bs for j in block) != [j for j, _ in row]:
            raise InputError(f"blocks at state {i + 1} do not partition its {direction}-edges")
    blocks = tuple(tuple(sorted(bs, key=min)) for bs in partitions)
    new_states = [(i, p) for i, bs in enumerate(blocks) for p in range(len(bs))]
    index = {sp: k for k, sp in enumerate(new_states)}
    m = len(new_states)
    split_of = [[index[(i, p)] for p in range(len(bs))] for i, bs in enumerate(blocks)]
    targets = [sorted(blocks[i][p]) for i, p in new_states]
    labels = tuple(f"{matrix.label(i)}.{p + 1}" for i, p in new_states)
    split_matrix = IntMatrix.from_sparse(
        [[(k, 1) for j in ts for k in split_of[j]] for ts in targets], m, labels=labels
    )
    r = IntMatrix.from_sparse([[(k, 1) for k in ks] for ks in split_of], m)
    s = IntMatrix.from_sparse([[(j, 1) for j in ts] for ts in targets], matrix.dim)
    cert = ElementarySse(a=matrix, b=split_matrix, r=r, s=s)
    if not verify_elementary_sse(cert):
        raise InternalError("the split certificate does not verify")
    # the matrix is zero-one, so an edge is the pair of its end states
    home = {(i, j): k for k, (i, p) in enumerate(new_states) for j in blocks[i][p]}
    size = [len(blocks[i][p]) for i, p in new_states]
    for g in group.generators:
        perm = group.elements[g]
        for k, (i, p) in enumerate(new_states):
            # the image edges are distinct, so one block of the same size is the image
            image = {home[perm[i], perm[j]] for j in blocks[i][p]}
            if len(image) > 1 or size[min(image)] != size[k]:
                raise PreconditionError(
                    f"partition is not action-compatible: element {g} does not carry "
                    f"a block at state {i + 1} onto a block at state {perm[i] + 1}"
                )
    first = [(i, blocks[i][p][0]) for i, p in new_states]
    elements = [tuple(home[perm[i], perm[j]] for i, j in first) for perm in group.elements]
    return cert, PermGroup(m, tuple(elements), group.generators)


def out_split(a: PermutationAction, partitions):
    """Out-splitting of an action along a G-compatible partition.

    ``partitions[i]`` holds the blocks of state i: tuples of successor
    states that together list each successor once.  Returns the
    transported action on the split presentation and the elementary
    certificate (division matrix, edge-count matrix) linking the two
    matrices; the transport laws used by transport_certificate hold by
    construction.
    """
    cert, group = _out_split_core(a.matrix, a.group, partitions, "out")
    return PermutationAction(SftPresentation(cert.b), group), cert


def in_split(a: PermutationAction, partitions):
    """In-splitting along blocks of predecessor states: the out-splitting
    of A^t along the same partition, transposed back, with certificate
    (S^t, R^t)."""
    mirror, group = _out_split_core(a.matrix.transpose(), a.group, partitions, "in")
    split_matrix = mirror.b.transpose()
    cert = ElementarySse(
        a=a.matrix, b=split_matrix, r=mirror.s.transpose(), s=mirror.r.transpose()
    )
    return PermutationAction(SftPresentation(split_matrix), group), cert


def higher_block_action(a: PermutationAction, n: int):
    """Transport an action to its n-block presentation by repeated complete
    out-splittings.

    Returns (action, chain, stages): the transported action, the
    certificate chain from the original matrix to the n-block matrix, and
    every intermediate action including both endpoints.
    """
    _check_int(n, "block length")
    if n < 2:
        raise InputError("block length must be at least 2")
    stages = [a]
    links = []
    current = a
    for _ in range(n - 1):
        complete = tuple(tuple((j,) for j, _ in row) for row in current.matrix.sparse)
        current, cert = out_split(current, complete)
        stages.append(current)
        links.append(cert)
    return current, SseChain(tuple(links)), tuple(stages)


@record
class ActionFactorSquare:
    """Commuting square of right-resolving one-block codes.

    eta maps the source action to the target action, eta_bar the reduced
    source to the reduced target, and theta1/theta2 are the factor maps
    onto the respective reduced shifts, with theta2 o eta = eta_bar o theta1.
    """

    eta: OneBlockCode
    eta_bar: OneBlockCode
    theta1: OneBlockCode
    theta2: OneBlockCode


def factor_square(
    src: PermutationAction, dst: PermutationAction, state_map
) -> ActionFactorSquare:
    """Complete a right-resolving equivariant factor map to a commuting
    square with the reduced shifts.

    ``state_map`` gives the image state of each source state.  The map
    must be a graph homomorphism, right-resolving (edges with a common
    initial state keep distinct images; violations are reported with the
    colliding two-blocks), equivariant for the index-paired group
    elements at each generator index of either group (the index pairing
    need not be a homomorphism), and onto in the strong sense that edges
    from i into an orbit Gj biject with edges from the image of i into the
    image orbit.  eta_bar and theta2 use the canonical ordering of
    build_eta; theta1 is then the unique map closing the square.
    """
    from .reduce import OneBlockCode, _orbit_sums, build_eta, right_reduce

    eta_states = tuple(state_map)
    ns, nd = src.presentation.num_states, dst.presentation.num_states
    if len(eta_states) != ns or any(not 0 <= v < nd for v in eta_states):
        raise InputError("state map must send every source state to a target state")
    src_sparse = src.matrix.sparse

    for i, row in enumerate(src_sparse):
        for j, _ in row:
            if not dst.presentation.has_edge((eta_states[i], eta_states[j], 0)):
                raise PreconditionError(
                    f"state map is not a graph homomorphism: edge ({i + 1},{j + 1}) has no image"
                )
    for i, row in enumerate(src_sparse):
        images = {}
        for j, _ in row:
            prior = images.setdefault(eta_states[j], j)
            if prior != j:
                raise PreconditionError(
                    f"not right-resolving: 2-blocks ({i + 1},{prior + 1}) and "
                    f"({i + 1},{j + 1}) collide"
                )
    # the state map as a zero-one matrix: eta(g i) = h eta(i) for paired g, h
    _check_paired(src.group, dst.group, (("state map", [{v: 1} for v in eta_states], False),))
    if set(eta_states) != set(range(nd)):
        raise PreconditionError("state map is not onto the target states")

    src_orbits = src.orbits
    dst_orbits = dst.orbits
    src_sums = [dict(_orbit_sums(row, src_orbits.orbit_of)) for row in src_sparse]
    dst_sums = [dict(_orbit_sums(row, dst_orbits.orbit_of)) for row in dst.matrix.sparse]
    for i in range(ns):
        for o, orbit in enumerate(src_orbits.orbits):
            image_orbit = dst_orbits.orbit_of[eta_states[orbit[0]]]
            if src_sums[i].get(o, 0) != dst_sums[eta_states[i]].get(image_orbit, 0):
                raise PreconditionError(
                    f"edges from state {i + 1} into orbit {o + 1} do not biject with their images"
                )

    eta = OneBlockCode(
        src.presentation,
        dst.presentation,
        {(i, j, 0): (eta_states[i], eta_states[j], 0) for (i, j, _) in src.presentation.edges},
    )
    theta1_target = right_reduce(src).presentation
    theta2 = build_eta(dst)
    # eta_bar preserves multiplicity indices; the bijection check above
    # makes this well defined and right-resolving.
    eta_bar_map = {}
    for (oi, oj, c) in theta1_target.edges:
        rep = src_orbits.representatives[oi]
        oj_image = dst_orbits.orbit_of[eta_states[src_orbits.orbits[oj][0]]]
        eta_bar_map[(oi, oj, c)] = (dst_orbits.orbit_of[eta_states[rep]], oj_image, c)
    eta_bar = OneBlockCode(theta1_target, theta2.target, eta_bar_map)
    theta1_map = {}
    for e in src.presentation.edges:
        image = theta2.edge_map[eta.edge_map[e]]
        oi = src_orbits.orbit_of[e[0]]
        oj = src_orbits.orbit_of[e[1]]
        theta1_map[e] = (oi, oj, image[2])
    theta1 = OneBlockCode(src.presentation, theta1_target, theta1_map)
    return ActionFactorSquare(eta=eta, eta_bar=eta_bar, theta1=theta1, theta2=theta2)
