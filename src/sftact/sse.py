"""Strong shift equivalence certificates and action-compatible recodings.

An elementary certificate is a pair (R, S) of nonnegative integer matrices
with R S = A and S R = B; chains of these witness topological conjugacy.
For zero-one data the certificate induces a canonical two-block conjugacy.
When both matrices carry permutation actions intertwined by R and S, the
certificate transports to one between the right-reduced matrices
(the pair (U R V', U' S V) built from the selector matrices).

State splittings supply the certificates this package generates itself:
out-splittings partition the outgoing edges of each state, in-splittings
the incoming ones, and a partition compatible with the group action
transports the action to the split presentation.  An in-splitting is not
computed on its own: it is the out-splitting of the transposed matrix
along the reversed edge blocks, transposed back, and its certificate is
the transposed pair (S^t, R^t).  Repeated complete out-splittings
realize higher-block recodings.  Finally, a right-resolving one-block
factor map of actions induces a commuting square of right-resolving maps
between the original and reduced shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, PreconditionError
from .matrices import IntMatrix, mat_mul
from .action import PermGroup, PermutationAction
from .reduce import OneBlockCode, _orbit_sums, build_eta, right_reduce
from .sft import SftPresentation


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def verify_chain(chain: SseChain) -> bool:
    return all(verify_elementary_sse(link) for link in chain.links)


def identity_sse(a: IntMatrix) -> ElementarySse:
    return ElementarySse(a=a, b=a, r=IntMatrix.from_sparse(a.sparse, a.cols), s=IntMatrix.identity(a.dim))


@dataclass(frozen=True)
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


def induced_conjugacy(e: ElementarySse) -> TwoBlockConjugacy:
    """Resolve a zero-one certificate into its two-block conjugacy tables.

    For each nonzero A(i, j) there must be a unique state k of B with
    R(i, k) = S(k, j) = 1; the failure of that uniqueness means the
    certificate is not of the canonical zero-one form.
    """
    for name, m in (("a", e.a), ("b", e.b), ("r", e.r), ("s", e.s)):
        if not m.is_zero_one():
            raise PreconditionError(f"matrix {name} is not zero-one")

    r, s = e.r.sparse, e.s.sparse
    r_support, s_support = ([{j for j, _ in row} for row in m] for m in (r, s))

    def resolve(i, j):
        ks = [k for k, _ in r[i] if j in s_support[k]]
        if len(ks) != 1:
            raise PreconditionError(
                f"certificate does not resolve edge ({i + 1},{j + 1}) uniquely: candidates {[k + 1 for k in ks]}"
            )
        return ks[0]

    k_of = {(i, j): resolve(i, j) for i, row in enumerate(e.a.sparse) for j, _ in row}

    if not verify_elementary_sse(e):
        raise PreconditionError("certificate products do not hold; nothing to induce")

    def resolve_back(k, l):
        js = [j for j, _ in s[k] if l in r_support[j]]
        assert len(js) == 1, "S R = B with zero-one B forces uniqueness"
        return js[0]

    j_of = {(k, l): resolve_back(k, l) for k, row in enumerate(e.b.sparse) for l, _ in row}

    src = SftPresentation(e.a)
    dst = SftPresentation(e.b)
    forward = {}
    for edge1 in src.edges:
        for edge2 in src.out_edges[edge1[1]]:
            k1 = k_of[(edge1[0], edge1[1])]
            k2 = k_of[(edge2[0], edge2[1])]
            assert dst.has_edge((k1, k2, 0)), "resolved states must be adjacent in B"
            forward[(edge1, edge2)] = (k1, k2, 0)
    backward = {}
    for edge1 in dst.edges:
        for edge2 in dst.out_edges[edge1[1]]:
            j1 = j_of[(edge1[0], edge1[1])]
            j2 = j_of[(edge2[0], edge2[1])]
            assert src.has_edge((j1, j2, 0)), "resolved states must be adjacent in A"
            backward[(edge1, edge2)] = (j1, j2, 0)
    return TwoBlockConjugacy(source=src, target=dst, forward=forward, backward=backward)


def _check_intertwining(e: ElementarySse, phi: PermutationAction, psi: PermutationAction):
    # R P(g) = P(g) R and S P(g) = P(g) S with P(i, gi) = 1, that is
    # R(gi, gj) = R(i, j), for every element: the index pairing of the groups
    # need not be a homomorphism.  (i, j) -> (gi, gj) is a bijection, so it
    # suffices that each nonzero entry lands on an equal entry.
    if phi.group.order != psi.group.order:
        raise PreconditionError("the two actions must be actions of the same group")
    r, s = e.r.sparse, e.s.sparse
    r_rows, s_rows = [dict(row) for row in r], [dict(row) for row in s]
    for g, (pa, pb) in enumerate(zip(phi.group.elements, psi.group.elements)):
        if any(r_rows[pa[i]].get(pb[j]) != x for i, row in enumerate(r) for j, x in row):
            raise PreconditionError(f"R does not intertwine the actions at element {g}")
        if any(s_rows[pb[k]].get(pa[l]) != x for k, row in enumerate(s) for l, x in row):
            raise PreconditionError(f"S does not intertwine the actions at element {g}")


def transport_certificate(
    e: ElementarySse, phi: PermutationAction, psi: PermutationAction
) -> ElementarySse:
    """Transport a certificate between actions to the reduced matrices.

    Requires R P(g) = P(g) R and S P(g) = P(g) S for every group element
    (with the permutation matrices of the respective actions); the
    transported pair is (U R V', U' S V) built from the selectors of the
    two reductions, and is verified before being returned.
    """
    if not (_same_entries(e.a, phi.matrix) and _same_entries(e.b, psi.matrix)):
        raise InputError("certificate endpoints do not match the action matrices")
    if not verify_elementary_sse(e):
        raise PreconditionError("certificate does not verify; cannot transport")
    _check_intertwining(e, phi, psi)
    red_a = right_reduce(phi)
    red_b = right_reduce(psi)
    r2 = mat_mul(mat_mul(red_a.u_selector, e.r), red_b.v_selector)
    s2 = mat_mul(mat_mul(red_b.u_selector, e.s), red_a.v_selector)
    out = ElementarySse(a=red_a.matrix, b=red_b.matrix, r=r2, s=s2)
    assert verify_elementary_sse(out), "transported certificate must verify"
    return out


@dataclass(frozen=True)
class SplitData:
    """Ordered edge partitions, one per state, for a state splitting.

    ``direction`` is "out" (partition outgoing edges) or "in" (incoming).
    Blocks are tuples of edge triples; they must cover the relevant edges
    of each state, be nonempty and pairwise disjoint.
    """

    direction: str
    partitions: tuple

    def __post_init__(self):
        if self.direction not in ("out", "in"):
            raise InputError(f"unknown split direction {self.direction!r}")
        parts = tuple(
            tuple(tuple(tuple(edge) for edge in block) for block in state_blocks)
            for state_blocks in self.partitions
        )
        object.__setattr__(self, "partitions", parts)

    @classmethod
    def complete(cls, p: SftPresentation, direction: str) -> "SplitData":
        """One singleton block per edge (the full splitting)."""
        table = p.out_edges if direction == "out" else p.in_edges
        return cls(direction, tuple(tuple((e,) for e in es) for es in table))

    @classmethod
    def trivial(cls, p: SftPresentation, direction: str) -> "SplitData":
        """One block per state (no splitting at all)."""
        table = p.out_edges if direction == "out" else p.in_edges
        return cls(direction, tuple((tuple(es),) for es in table))


def _validate_split(a: PermutationAction, d: SplitData):
    p = a.presentation
    table = p.out_edges if d.direction == "out" else p.in_edges
    if len(d.partitions) != p.num_states:
        raise InputError("split data must give a partition for every state")
    for i, blocks in enumerate(d.partitions):
        edges = [e for block in blocks for e in block]
        if any(not block for block in blocks):
            raise InputError(f"state {i + 1} has an empty partition block")
        if sorted(edges) != sorted(table[i]) or len(edges) != len(set(edges)):
            raise InputError(
                f"blocks at state {i + 1} do not partition its {d.direction}-edges"
            )


def _out_split_core(matrix: IntMatrix, group: PermGroup, partitions):
    """Out-split ``matrix`` along per-state blocks of its out-edges that
    ``group`` carries onto each other.

    Blocks of each state are sorted by least edge, which fixes the state
    order (i, p) of the split matrix.  Returns the verified certificate
    (division matrix, edge-count matrix) and the group transported to the
    split states by g.(i, p) = (gi, position of the image block).

    The transport is the compatibility check: an image that is no block
    raises PreconditionError.  Compatible elements are closed under
    composition, so the first element that fails is a generator.
    """
    blocks = tuple(tuple(sorted(bs, key=min)) for bs in partitions)
    new_states = [(i, p) for i, bs in enumerate(blocks) for p in range(len(bs))]
    index = {sp: k for k, sp in enumerate(new_states)}
    m = len(new_states)
    split_of = [[index[(i, p)] for p in range(len(bs))] for i, bs in enumerate(blocks)]
    # the matrix is zero-one, so a block is the set of its edges' targets
    targets = [sorted({e[1] for e in blocks[i][p]}) for i, p in new_states]
    labels = tuple(f"{matrix.label(i)}.{p + 1}" for i, p in new_states)
    split_matrix = IntMatrix.from_sparse(
        [[(k, 1) for j in ts for k in split_of[j]] for ts in targets], m, labels=labels
    )
    r = IntMatrix.from_sparse([[(k, 1) for k in ks] for ks in split_of], m)
    s = IntMatrix.from_sparse([[(j, 1) for j in ts] for ts in targets], matrix.dim)
    cert = ElementarySse(a=matrix, b=split_matrix, r=r, s=s)
    assert verify_elementary_sse(cert), "split certificate must verify"
    state_of = {frozenset(blocks[i][p]): k for (i, p), k in index.items()}
    elements = []
    for g, perm in enumerate(group.elements):
        image = []
        for i, p in new_states:
            k = state_of.get(frozenset((perm[a], perm[b], c) for a, b, c in blocks[i][p]))
            if k is None:
                raise PreconditionError(
                    f"partition is not action-compatible: element {g} does not carry "
                    f"a block at state {i + 1} onto a block at state {perm[i] + 1}"
                )
            image.append(k)
        elements.append(tuple(image))
    return cert, PermGroup(m, tuple(elements))


def out_split(a: PermutationAction, d: SplitData):
    """Out-splitting of an action along a G-compatible edge partition.

    Returns the transported action on the split presentation and the
    elementary certificate (division matrix, edge-count matrix) linking
    the two matrices; the transport laws used by transport_certificate hold
    by construction.
    """
    if d.direction != "out":
        raise InputError("out_split needs an out-partition")
    _validate_split(a, d)
    cert, group = _out_split_core(a.matrix, a.group, d.partitions)
    return PermutationAction(SftPresentation(cert.b), group), cert


def in_split(a: PermutationAction, d: SplitData):
    """In-splitting: the out-splitting of A^t along the reversed blocks,
    transposed back, with certificate (S^t, R^t)."""
    if d.direction != "in":
        raise InputError("in_split needs an in-partition")
    _validate_split(a, d)
    reversed_blocks = tuple(
        tuple(tuple((j, i, c) for (i, j, c) in block) for block in blocks)
        for blocks in d.partitions
    )
    mirror, group = _out_split_core(a.matrix.transpose(), a.group, reversed_blocks)
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
    if n < 2:
        raise InputError("block length must be at least 2")
    stages = [a]
    links = []
    current = a
    for _ in range(n - 1):
        split = SplitData.complete(current.presentation, "out")
        current, cert = out_split(current, split)
        stages.append(current)
        links.append(cert)
    return current, SseChain(tuple(links)), tuple(stages)


@dataclass(frozen=True)
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
    colliding two-blocks), equivariant for index-paired group elements,
    and onto in the strong sense that edges from i into an orbit Gj
    biject with edges from the image of i into the image orbit.  eta_bar
    and theta2 use the canonical ordering of build_eta; theta1 is then the
    unique map closing the square.
    """
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
    if src.group.order != dst.group.order:
        raise PreconditionError("the two actions must be actions of the same group")
    for g in range(src.group.order):
        for i in range(ns):
            if eta_states[src.group.apply(g, i)] != dst.group.apply(g, eta_states[i]):
                raise PreconditionError(
                    f"state map does not intertwine the actions at element {g}"
                )
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

    for code, name in ((eta, "eta"), (eta_bar, "eta_bar"), (theta1, "theta1"), (theta2, "theta2")):
        if not code.is_right_resolving():
            raise PreconditionError(f"{name} is not right-resolving")
    for e in src.presentation.edges:
        for f in src.presentation.out_edges[e[1]]:
            left = theta2.apply_path(eta.apply_path((e, f)))
            right = eta_bar.apply_path(theta1.apply_path((e, f)))
            assert left == right, "square must commute on all 2-blocks"
    return ActionFactorSquare(eta=eta, eta_bar=eta_bar, theta1=theta1, theta2=theta2)
