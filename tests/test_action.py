"""Permutation groups on presentations: validation, orbits, stabilizers."""

import random
import re

import pytest

import sftact.action as action_module

from sftact import (
    CycleWord,
    InputError,
    IntMatrix,
    LimitExceededError,
    PermGroup,
    PermutationAction,
    PreconditionError,
    SftPresentation,
    fixed_submatrix,
    group_from_generators,
    trim_essential,
    word_stabilizer,
)

from helpers import (
    SIX_STATE_A,
    all_element_invariance_error,
    brute_element_order,
    check_built_group,
    random_action,
    random_group_action,
    reordered_group,
    six_state_action,
    three_state_action,
)


class TestGroupFromGenerators:
    def test_cyclic_order_four(self):
        g = group_from_generators(6, [(1, 0, 3, 4, 5, 2)])
        assert g.order == 4
        assert g.elements[0] == (0, 1, 2, 3, 4, 5)
        assert brute_element_order(g.elements[1]) == 4

    def test_empty_generators(self):
        g = group_from_generators(4, [])
        assert g.order == 1

    def test_symmetric_closure(self):
        g = group_from_generators(3, [(1, 0, 2), (1, 2, 0)])
        assert g.order == 6

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            group_from_generators(3, [(1, 0, 2), (1, 2, 0)], limit=4)

    def test_rejects_non_bijection(self):
        with pytest.raises(InputError):
            group_from_generators(3, [(0, 0, 2)])

    def test_deterministic_element_order(self):
        g1 = group_from_generators(3, [(1, 0, 2), (1, 2, 0)])
        g2 = group_from_generators(3, [(1, 0, 2), (1, 2, 0)])
        assert g1.elements == g2.elements


S3_GENS = [(1, 0, 2), (1, 2, 0)]


def conjugate(q, perm):
    """q perm q^-1: perm with its points relabelled by q."""
    q_inv = sorted(range(len(q)), key=q.__getitem__)
    return tuple(q[perm[q_inv[k]]] for k in range(len(q)))


class TestPairedGroup:
    """``paired_groups`` closes phi's and psi's listed generators in pairs:
    psi's element k is the image of phi's element k under the map of the
    k-th listed generators, and phi is the closure of its own list."""

    def test_conjugate_generator_lists(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            q = rng.sample(range(n), n)
            phi, psi = action_module.paired_groups(gens, [conjugate(q, g) for g in gens], n, n)
            assert phi == group_from_generators(n, gens)
            assert psi.elements == tuple(conjugate(q, g) for g in phi.elements)
            assert psi.generators == phi.generators

    def test_phi_is_the_closure_of_its_list(self):
        # duplicate and identity generators, paired with random lists of
        # another degree: every accepted pairing lists phi as its own closure
        rng = random.Random(89)
        accepted = refused = 0
        for _ in range(300):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            gens += rng.sample(gens, min(len(gens), rng.randint(0, 2))) + [tuple(range(n))] * rng.randint(0, 2)
            rng.shuffle(gens)
            # a duplicate or identity is paired with the image of its equal
            images = {g: tuple(rng.sample(range(m), m)) for g in gens}
            images[tuple(range(n))] = tuple(range(m))
            try:
                phi, psi = action_module.paired_groups(gens, [images[g] for g in gens], n, m)
            except PreconditionError:
                refused += 1
                continue
            accepted += 1
            assert phi == group_from_generators(n, gens)
            assert set(psi.elements) == set(group_from_generators(m, images.values()).elements)
            assert psi.generators == phi.generators
        assert accepted > 0 and refused > 0

    def test_pairs_by_listed_order_not_by_closure_index(self):
        # the conjugates of S3_GENS by (2 3), closed on their own, list
        # their elements in another order than the pairing does
        conj = [conjugate((0, 2, 1), g) for g in S3_GENS]
        phi, psi = action_module.paired_groups(S3_GENS, conj, 3, 3)
        assert psi.elements == tuple(conjugate((0, 2, 1), g) for g in phi.elements)
        assert psi.elements != group_from_generators(3, conj).elements

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([(2, 0, 1), (2, 1, 0)], "the pairing sends phi element () to both () and (1 2 3)"),
            ([(2, 1, 0)], "1 listed, but phi lists 2; generators pair in order"),
            ([(0, 1, 2), (0, 1, 2)], "the pairing sends two phi elements to one psi element"),
        ],
        ids=["swapped", "fewer", "not-one-to-one"],
    )
    def test_unpaired_generators(self, gens, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            action_module.paired_groups(S3_GENS, gens, 3, 3)

    def test_limit(self):
        # S3 closes in layers of 1, 2 and 3 pairs, so limits 4 and 5 both
        # fall in the last layer, where phi's limit is checked first
        conj = [conjugate((0, 2, 1), g) for g in S3_GENS]
        for phi_limit, limit, exceeded in ((6, 4, 4), (4, 6, 4), (5, 4, 5), (4, 5, 4)):
            with pytest.raises(LimitExceededError, match=f"^group closure exceeds limit {exceeded}$"):
                action_module.paired_groups(S3_GENS, conj, 3, 3, phi_limit, limit)


class TestPermGroup:
    def test_rejects_empty_list_and_identity_not_first(self):
        with pytest.raises(InputError, match="at least the identity"):
            PermGroup(2, (), ())
        with pytest.raises(InputError, match="element 0 must be the identity"):
            PermGroup(2, ((1, 0), (0, 1)), (0,))

    def test_rejects_repeated_element(self):
        # the quotient code would take the copy of the identity for an
        # element that moves something and look for a witness of it
        with pytest.raises(InputError, match="^the group elements must be distinct$"):
            PermGroup(1, ((0,), (0,)), (1,))

    def test_closes_once(self, monkeypatch):
        calls = []

        compose = action_module.compose

        def counting_compose(p, q):
            calls.append(1)
            return compose(p, q)

        monkeypatch.setattr(action_module, "compose", counting_compose)
        g = group_from_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
        assert g.order == 720
        # one product per element and generator: the closure itself
        assert len(calls) <= 720 * 2

    def test_greedy_generators_regenerate_group(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            g = group_from_generators(n, gens)
            assert [g.elements[k] for k in g.generators] == sorted(set(gens) - {tuple(range(n))})
            assert group_from_generators(n, [g.elements[k] for k in g.generators]) == g

    def test_closure_oracle_on_random_generators(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(53)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 8)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            try:
                group = group_from_generators(n, gens, limit=1000)
            except LimitExceededError:
                continue
            check_built_group(group, combinatorics)
            checked += 1


class TestValidateAction:
    def test_six_state_fixture_is_valid(self):
        act = six_state_action()
        assert act.group.order == 4

    def test_invariance_violation_reports_witness(self):
        p, _ = trim_essential(IntMatrix(((1, 1), (0, 1))))
        with pytest.raises(PreconditionError, match="invariance violated"):
            PermutationAction(p, group_from_generators(2, [(1, 0)]))

    def test_trivial_group_always_valid(self):
        p, _ = trim_essential(IntMatrix(((1, 1), (0, 1))))
        PermutationAction(p, group_from_generators(2, []))

    def test_rejects_multiplicities(self):
        p, _ = trim_essential(IntMatrix(((2,),)))
        with pytest.raises(PreconditionError, match="zero-one"):
            PermutationAction(p, group_from_generators(1, []))

    def test_generator_check_matches_all_element_oracle(self):
        rng = random.Random(41)
        outcomes = set()
        late_failures = 0
        for _ in range(150):
            act, gens = random_group_action(rng)
            n = act.group.degree
            extra = tuple(rng.sample(range(n), n))
            elements = list(group_from_generators(n, gens + [extra]).elements)
            rest = elements[1:]
            rng.shuffle(rest)
            group = reordered_group(n, elements[:1] + rest)
            expected = all_element_invariance_error(act.presentation, group.elements)
            try:
                PermutationAction(act.presentation, group)
                got = None
            except PreconditionError as err:
                got = str(err)
            assert got == expected
            outcomes.add(expected is None)
            if expected is not None and int(re.search(r"element (\d+)", expected).group(1)) > 1:
                late_failures += 1
        assert outcomes == {True, False}
        assert late_failures > 0

    def test_edge_action_is_graph_automorphism(self):
        rng = random.Random(31)
        for _ in range(15):
            act = random_action(rng)
            edges = set(act.presentation.edges)
            for g in range(act.group.order):
                images = {act.apply_edge(g, e) for e in edges}
                assert images == edges


class TestOrbitStructure:
    def test_six_state_orbits(self):
        os_ = six_state_action().orbits
        assert os_.orbits == ((0, 1), (2, 3, 4, 5))
        assert os_.representatives == (0, 2)

    def test_six_state_stabilizers(self):
        group = six_state_action().group
        assert group.stabilizer((2,)) == (0,)
        assert group.stabilizer((0,)) == (0, 2)

    def test_trivial_group(self):
        p = SftPresentation(IntMatrix(((1, 1), (1, 1))))
        act = PermutationAction(p, group_from_generators(2, []))
        assert act.orbits.orbits == ((0,), (1,))
        assert all(act.group.stabilizer((i,)) == (0,) for i in range(2))

    def test_orbit_stabilizer_identity(self):
        rng = random.Random(37)
        for _ in range(15):
            act = random_action(rng)
            os_ = act.orbits
            for i in range(act.group.degree):
                orbit = os_.orbits[os_.orbit_of[i]]
                assert len(orbit) * len(act.group.stabilizer((i,))) == act.group.order

    def test_kernel_is_stabilizer_intersection(self):
        """Elements are distinct permutations, so the intersection of the
        state stabilizers is the identity alone."""
        rng = random.Random(41)
        for _ in range(10):
            act = random_action(rng)
            kernel = set(range(act.group.order))
            for i in range(act.group.degree):
                kernel &= set(act.group.stabilizer((i,)))
            assert kernel == {0}
            assert act.group.stabilizer(range(act.group.degree)) == (0,)

    def test_orbits_and_stabilizers_match_sympy(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(47)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 8)
            gens = []
            for _ in range(rng.randint(1, 3)):
                support = rng.sample(range(n), rng.randint(1, min(n, 4)))
                perm = list(range(n))
                for i, j in zip(support, rng.sample(support, len(support))):
                    perm[i] = j
                gens.append(tuple(perm))
            try:
                group = group_from_generators(n, gens, limit=1000)
            except LimitExceededError:
                continue
            act = PermutationAction(SftPresentation(IntMatrix(((1,) * n,) * n)), group)
            oracle = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
            assert act.orbits.orbits == tuple(sorted(tuple(sorted(o)) for o in oracle.orbits()))
            for i in range(n):
                assert len(group.stabilizer((i,))) == oracle.stabilizer(i).order()
            checked += 1


class TestFixedSubmatrix:
    def test_identity_returns_matrix(self):
        act = six_state_action()
        assert fixed_submatrix(act, 0).entries == SIX_STATE_A.entries
        assert fixed_submatrix(act, 0) is act.matrix

    def test_generator_fixes_nothing(self):
        act = six_state_action()
        assert fixed_submatrix(act, 1) is None

    def test_square_of_generator(self):
        act = six_state_action()
        assert fixed_submatrix(act, 2).entries == ((1, 0), (0, 1))

    def test_entries_are_principal(self):
        rng = random.Random(43)
        for _ in range(10):
            act = random_action(rng)
            rows = act.matrix.entries
            for g in range(act.group.order):
                perm = act.group.elements[g]
                fixed = [i for i in range(act.group.degree) if perm[i] == i]
                sub = fixed_submatrix(act, g)
                if not fixed:
                    assert sub is None
                    continue
                for a, i in enumerate(fixed):
                    for b, j in enumerate(fixed):
                        assert sub.entries[a][b] == rows[i][j]


class TestWordStabilizer:
    def test_fixed_point_at_state_one(self):
        act = six_state_action()
        assert word_stabilizer(act, CycleWord(((0, 0, 0),))) == (0, 2)

    def test_trivial_group(self):
        p = SftPresentation(IntMatrix(((1, 1), (1, 0))))
        act = PermutationAction(p, group_from_generators(2, []))
        w = CycleWord(((0, 0, 0),))
        assert word_stabilizer(act, w) == (0,)

    def test_swap_fixing_loop_state(self):
        act = three_state_action()
        assert word_stabilizer(act, CycleWord(((0, 0, 0),))) == (0, 1)

    def test_full_cycle_has_trivial_stabilizer(self):
        act = six_state_action()
        # closed path through all six states
        w = CycleWord(((0, 2, 0), (2, 1, 0), (1, 3, 0), (3, 1, 0), (1, 5, 0), (5, 1, 0), (1, 3, 0), (3, 0, 0), (0, 4, 0), (4, 0, 0)))
        assert word_stabilizer(act, w) == (0,)

    def test_rejects_foreign_cycle(self):
        act = three_state_action()
        with pytest.raises(PreconditionError):
            word_stabilizer(act, CycleWord(((1, 2, 0), (2, 1, 0))))
