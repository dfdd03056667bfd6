"""Reduced shifts, selectors, the left-reduction oracle and the canonical factor map."""

import random

from sftact import (
    PermutationAction,
    ReducedShift,
    SftPresentation,
    bowen_franks,
    build_eta,
    group_from_generators,
    left_reduce,
    mat_mul,
    right_reduce,
    trace_of_power,
)

from helpers import (
    FULL_TWO_SHIFT,
    direct_left_reduce,
    is_right_resolving,
    plain_orbits,
    random_action,
    random_group_action,
    reducible_action,
    s3_conjugation_action,
    six_state_action,
    swapped_two_shift,
    three_state_action,
)


class TestRightReduce:
    def test_fields(self):
        assert tuple(ReducedShift.__annotations__) == ("matrix", "orbits")

    def test_conjugation_full_shift(self):
        reduced = right_reduce(s3_conjugation_action())
        assert reduced.matrix.entries == ((1, 3, 2), (1, 3, 2), (1, 3, 2))
        assert reduced.matrix.labels == ("G1", "G2", "G4")

    def test_six_state(self):
        assert right_reduce(six_state_action()).matrix.entries == ((1, 2), (2, 1))

    def test_three_state_swap(self):
        assert right_reduce(three_state_action()).matrix.entries == ((1, 2), (1, 1))

    def test_trivial_group_returns_matrix(self):
        p = SftPresentation(FULL_TWO_SHIFT)
        act = PermutationAction(p, group_from_generators(2, []))
        assert right_reduce(act).matrix.entries == FULL_TWO_SHIFT.entries

    def test_orbit_members_share_orbit_sums(self):
        """Every state has the orbit-sum row of its orbit's representative,
        in A (the right reduction's rows) and in A^t (the left reduction's
        columns), so reducing at the representatives loses nothing."""
        rng = random.Random(71)
        for _ in range(30):
            act, gens = random_group_action(rng, max_states=6, max_gens=2)
            entries = act.matrix.entries
            orbits = plain_orbits(len(entries), gens)
            right = right_reduce(act).matrix.entries
            left_t = tuple(zip(*left_reduce(act).matrix.entries))
            for rows, reduced in ((entries, right), (tuple(zip(*entries)), left_t)):
                sums = [tuple(sum(row[j] for j in orbit) for orbit in orbits) for row in rows]
                for o, orbit in enumerate(orbits):
                    assert reduced[o] == sums[orbit[0]]
                    assert all(sums[i] == sums[orbit[0]] for i in orbit)

    def test_selector_identity(self):
        rng = random.Random(47)
        for _ in range(15):
            act = random_action(rng)
            reduced = right_reduce(act)
            product = mat_mul(
                mat_mul(reduced.u_selector, act.matrix), reduced.v_selector
            )
            assert product.entries == reduced.matrix.entries
            uv = mat_mul(reduced.u_selector, reduced.v_selector)
            m = len(reduced.matrix.entries)
            assert uv.entries == tuple(
                tuple(1 if i == j else 0 for j in range(m)) for i in range(m)
            )

    def test_row_sums_match_out_degrees(self):
        rng = random.Random(53)
        for _ in range(15):
            act = random_action(rng)
            reduced = right_reduce(act)
            os_ = act.orbits
            for o, orbit in enumerate(os_.orbits):
                out_degree = sum(act.matrix.entries[orbit[0]])
                assert sum(reduced.matrix.entries[o]) == out_degree


class TestLeftReduce:
    def test_six_state(self):
        assert left_reduce(six_state_action()).matrix.entries == ((1, 1), (4, 1))

    def test_reducible_fixture(self):
        act = reducible_action()
        assert right_reduce(act).matrix.entries == ((1, 1), (0, 1))
        assert left_reduce(act).matrix.entries == ((1, 2), (0, 1))

    def test_trivial_group(self):
        p = SftPresentation(FULL_TWO_SHIFT)
        act = PermutationAction(p, group_from_generators(2, []))
        assert left_reduce(act).matrix.entries == FULL_TWO_SHIFT.entries


def assert_left_matches_oracle(act):
    reduced = left_reduce(act)
    expected = direct_left_reduce(act)
    assert [list(row) for row in reduced.matrix.entries] == expected
    assert reduced.matrix.labels == tuple(f"G{rep + 1}" for rep in act.orbits.representatives)
    product = mat_mul(
        mat_mul(reduced.v_selector.transpose(), act.matrix),
        reduced.u_selector.transpose(),
    )
    assert [list(row) for row in product.entries] == expected


class TestLeftReduceOracle:
    def test_fixtures(self):
        for act in (six_state_action(), s3_conjugation_action(), swapped_two_shift()):
            assert_left_matches_oracle(act)

    def test_randomized(self):
        rng = random.Random(59)
        for _ in range(30):
            assert_left_matches_oracle(random_action(rng, max_states=6))


class TestNonConjugacyGuard:
    def test_six_state_reduced_shifts_not_conjugate(self):
        act = six_state_action()
        right = bowen_franks(right_reduce(act).matrix)
        left = bowen_franks(left_reduce(act).matrix)
        assert right.torsion == (2, 2) and left.torsion == (4,)
        assert right != left


class TestBuildEta:
    def test_trivial_group_identity_shape(self):
        p = SftPresentation(FULL_TWO_SHIFT)
        act = PermutationAction(p, group_from_generators(2, []))
        eta = build_eta(act)
        assert eta.edge_map == {e: e for e in p.edges}

    def test_swap_merges_to_two_loops(self):
        eta = build_eta(swapped_two_shift())
        assert eta.target.matrix.entries == ((2,),)
        assert eta.edge_map[(0, 0, 0)] == (0, 0, 0)
        assert eta.edge_map[(0, 1, 0)] == (0, 0, 1)

    def test_three_state_swap_target(self):
        eta = build_eta(three_state_action())
        assert eta.target.matrix.entries == ((1, 2), (1, 1))

    def test_right_resolving_everywhere(self):
        rng = random.Random(61)
        for _ in range(15):
            eta = build_eta(random_action(rng))
            assert is_right_resolving(eta)

    def test_left_equals_right_counts_via_duality(self):
        # both reduced matrices carry the same periodic counts as the quotient
        rng = random.Random(67)
        for _ in range(10):
            act = random_action(rng)
            right = right_reduce(act).matrix
            transposed = PermutationAction(
                SftPresentation(act.matrix.transpose()), act.group
            )
            left_t = left_reduce(transposed).matrix
            for n in range(1, 9):
                assert trace_of_power(right, n) == trace_of_power(left_t, n)
