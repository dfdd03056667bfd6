"""Orbit counting, quotient period counts, expansivity classification."""

import random

import pytest

import sftact.quotient
from sftact import (
    IntMatrix,
    PermutationAction,
    PreconditionError,
    SftPresentation,
    burnside_counts,
    char_poly_reciprocal,
    classify_quotient,
    enumerate_cycles,
    fixed_submatrix,
    group_from_generators,
    left_reduce,
    nonexpansive_witness,
    poly_lcm,
    quotient_period_counts,
    right_reduce,
    trim_essential,
    word_stabilizer,
)
from sftact.quotient import _cycle_in_fixed_subgraph

from helpers import (
    FULL_TWO_SHIFT,
    brute_exponent,
    brute_orbit_counts,
    brute_quotient_counts,
    constant_to_one_check,
    dense_trace_of_power,
    primitive_form,
    random_action,
    random_group_action,
    recurrence_holds,
    reducible_action,
    s3_conjugation_action,
    six_state_action,
    standard_actions,
    swapped_two_shift,
)

CAP = 100000


def quotient_count_agreement(act, max_n=6, cap=CAP):
    """Enumerated quotient period counts equal the library counts and the
    trace powers of both reduced matrices, for every n whose enumeration
    fits the cap.  Returns the n tested."""
    exponent = brute_exponent(act.group.elements)
    tested = 0
    while tested < max_n and dense_trace_of_power(act.matrix, (tested + 1) * exponent) <= cap:
        tested += 1
    counts = brute_quotient_counts(act, tested, cap)
    assert quotient_period_counts(act, tested) == counts
    left = left_reduce(act).matrix
    right = right_reduce(act).matrix
    for n, count in enumerate(counts, 1):
        assert count == dense_trace_of_power(left, n)
        assert count == dense_trace_of_power(right, n)
    return tested


def brute_stabilizer_verdict(act, cap=CAP):
    # the kernel: the elements that fix every state
    kernel = {g for g, perm in enumerate(act.group.elements) if perm == tuple(range(act.group.degree))}
    max_len = min(8, act.presentation.num_states)
    for n in range(1, max_len + 1):
        for w in enumerate_cycles(act.presentation, n, cap):
            if set(word_stabilizer(act, w)) != kernel:
                return "nonexpansive"
    return "constant-to-one"


class TestBurnsideCounts:
    def test_trivial_group_counts_traces(self):
        p = SftPresentation(FULL_TWO_SHIFT)
        act = PermutationAction(p, group_from_generators(2, []))
        report = burnside_counts(act, 6)
        assert report.counts == tuple(dense_trace_of_power(FULL_TWO_SHIFT, n) for n in range(1, 7))

    def test_matches_per_element_oracle(self):
        """An element that fixes no state has no submatrix: a zero trace
        row, and det(I - tA_g) = 1, which leaves the lcm as it is."""
        rng = random.Random(53)
        actions = standard_actions() + [random_action(rng, max_states=6, max_order=6) for _ in range(25)]
        for act in actions:
            order = act.group.order
            subs = [fixed_submatrix(act, g) for g in range(order)]
            traces = tuple(
                (0,) * 7 if sub is None else tuple(dense_trace_of_power(sub, n) for n in range(1, 8))
                for sub in subs
            )
            report = burnside_counts(act, 7)
            assert report.element_traces == traces
            assert report.counts == tuple(sum(column) // order for column in zip(*traces))
            assert report.recurrence == poly_lcm([char_poly_reciprocal(sub) for sub in subs if sub is not None])

    def test_fixed_point_free_elements_against_plain_oracles(self):
        """Random actions mixing elements that fix no state with non-identity
        elements that fix some, checked with no library code: a zero trace
        row for each fixed-point-free element, the counts by enumerating
        closed walks and their orbits, and the recurrence as sympy's lcm
        of the det(I - tA_g), where an empty A_g has determinant 1."""
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(97)
        m, checked = 5, 0
        while checked < 15:
            act, _ = random_group_action(rng, max_states=5, max_gens=2)
            elements, n = act.group.elements, act.group.degree
            rows = act.matrix.entries
            fixed = [[i for i in range(n) if perm[i] == i] for perm in elements]
            if all(fixed[1:]) or not any(fixed[1:]) or len(elements) > 24:
                continue
            checked += 1
            report = burnside_counts(act, m)
            for f, traces in zip(fixed, report.element_traces):
                if not f:
                    assert traces == (0,) * m
            walks = [(i,) for i in range(n)]
            for length in range(1, m + 1):
                closed = [w for w in walks if rows[w[-1]][w[0]]]
                orbits = {min(tuple(perm[s] for s in w) for perm in elements) for w in closed}
                assert report.counts[length - 1] == len(orbits)
                walks = [w + (j,) for w in walks for j in range(n) if rows[w[-1]][j]]
            lcm = sympy.Poly(1, t, domain="ZZ")
            for f in fixed:
                a_g = sympy.Matrix(len(f), len(f), lambda i, j: rows[f[i]][f[j]])
                det = (sympy.eye(len(f)) - t * a_g).det()
                lcm = lcm.lcm(sympy.Poly(det, t, domain="ZZ"))
            assert report.recurrence.coefficients == primitive_form(int(c) for c in reversed(lcm.all_coeffs()))

    def test_six_state_first_count(self):
        report = burnside_counts(six_state_action(), 1)
        assert report.element_traces == ((6,), (0,), (2,), (0,))
        assert report.counts == (2,)

    def test_conjugation_first_count(self):
        report = burnside_counts(s3_conjugation_action(), 1)
        assert report.counts == (3,)
        assert sum(row[0] for row in report.element_traces) == 18

    def test_recurrence_annihilates_sums(self):
        for act in standard_actions():
            report = burnside_counts(act, 14)
            degree = report.recurrence.degree
            m = degree + 6
            full = burnside_counts(act, m) if m > 14 else report
            sums = [c * act.group.order for c in full.counts]
            assert recurrence_holds(report.recurrence, sums[: degree + 6])

    def test_trace_table_sums_to_counts_randomized(self):
        """Row g of the trace table is trace(A_g^n) for the submatrix on the
        states g fixes, computed here by dense powers; each column sums to
        |G| times the count."""
        rng = random.Random(83)
        for _ in range(30):
            act, _ = random_group_action(rng, max_states=6, max_gens=2)
            report = burnside_counts(act, 6)
            for perm, traces in zip(act.group.elements, report.element_traces):
                fixed = [i for i in range(len(perm)) if perm[i] == i]
                sub = [[act.matrix.entries[i][j] for j in fixed] for i in fixed]
                power, expected = sub, []
                for _ in range(6):
                    expected.append(sum(power[k][k] for k in range(len(fixed))))
                    power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*sub)] for row in power]
                assert list(traces) == expected
            for n in range(6):
                total = sum(row[n] for row in report.element_traces)
                assert total == report.counts[n] * act.group.order

    def test_divisible_sums_through_twelve(self):
        for act in standard_actions():
            report = burnside_counts(act, 12)
            for n in range(12):
                total = sum(row[n] for row in report.element_traces)
                assert total % act.group.order == 0


class TestBruteOrbitCounts:
    def test_matches_formula_on_fixtures(self):
        for act in standard_actions():
            report = burnside_counts(act, 6)
            assert brute_orbit_counts(act, 6, CAP) == list(report.counts)

    def test_matches_formula_randomized(self):
        rng = random.Random(79)
        for _ in range(25):
            act = random_action(rng)
            report = burnside_counts(act, 6)
            assert brute_orbit_counts(act, 6, CAP) == list(report.counts)


class TestQuotientPeriodCounts:
    def test_trivial_group(self):
        p = SftPresentation(FULL_TWO_SHIFT)
        act = PermutationAction(p, group_from_generators(2, []))
        assert quotient_period_counts(act, 6) == [2, 4, 8, 16, 32, 64]

    def test_reducible_fixture_counts_two(self):
        assert quotient_period_counts(reducible_action(), 6) == [2] * 6

    def test_swapped_two_shift(self):
        act = swapped_two_shift()
        assert quotient_period_counts(act, 6) == [2, 4, 8, 16, 32, 64]

    def test_reduced_trace_agreement_on_fixtures(self):
        for act in standard_actions():
            assert quotient_count_agreement(act) >= 1


class TestClassification:
    def test_trivial_group_constant_to_one(self):
        p = SftPresentation(FULL_TWO_SHIFT)
        act = PermutationAction(p, group_from_generators(2, []))
        assert classify_quotient(act).verdict == "constant-to-one"

    def test_swap_constant_to_one(self):
        verdict = classify_quotient(swapped_two_shift())
        assert verdict.verdict == "constant-to-one"
        assert verdict.witness is None

    def test_six_state_nonexpansive(self):
        verdict = classify_quotient(six_state_action())
        assert verdict.verdict == "nonexpansive"
        g, cycle = verdict.witness
        assert g == 2
        assert cycle.edges == ((0, 0, 0),)

    def test_rejects_reducible(self):
        with pytest.raises(PreconditionError, match="irreducible"):
            classify_quotient(reducible_action())

    def test_matches_brute_scan_on_fixtures(self):
        for act in standard_actions():
            try:
                verdict = classify_quotient(act)
            except PreconditionError:
                continue
            assert verdict.verdict == brute_stabilizer_verdict(act)

    def test_each_fixed_state_set_is_trimmed_once(self, monkeypatch):
        """One trim per distinct nonempty non-identity fixed-state set, up
        to the witness, and the witness a scan over every element finds."""
        trimmed = []

        def counting_trim(matrix):
            trimmed.append(matrix)
            return trim_essential(matrix)

        monkeypatch.setattr(sftact.quotient, "trim_essential", counting_trim)
        # Z12 rotating the full 12-shift fixes no state outside the identity
        rotation = tuple((i + 1) % 12 for i in range(12))
        full = PermutationAction(
            SftPresentation(IntMatrix(((1,) * 12,) * 12)), group_from_generators(12, [rotation])
        )
        assert classify_quotient(full).verdict == "constant-to-one"
        assert len(trimmed) == 0
        rng = random.Random(59)
        tried = 0
        while tried < 30:
            act, _ = random_group_action(rng, max_states=6, max_gens=2)
            trimmed.clear()
            try:
                verdict = classify_quotient(act)
            except PreconditionError:
                continue
            tried += 1
            calls = len(trimmed)
            identity = tuple(range(act.group.degree))
            fixed_sets = [tuple(i for i in identity if perm[i] == i) for perm in act.group.elements]
            # an empty fixed-state set holds no cycle and is not trimmed
            scan = next(
                ((g, cycle) for g in range(1, act.group.order)
                 if fixed_sets[g] and (cycle := _cycle_in_fixed_subgraph(act, fixed_sets[g])) is not None),
                None,
            )
            assert verdict.witness == scan
            last = scan[0] if scan else act.group.order - 1
            assert calls == len(set(fixed_sets[1:last + 1]) - {()})


class TestWitness:
    def test_six_state_witness(self):
        act = six_state_action()
        verdict = classify_quotient(act)
        witness, x_window, y_window, zero = nonexpansive_witness(act, verdict, 1)
        assert witness.u == ((0, 0, 0),)
        assert witness.g == 2
        assert x_window != y_window
        assert len(x_window) == len(y_window) == zero + 3 * len(witness.u) + len(witness.w) + 2 * len(witness.v)

    @staticmethod
    def assert_window_properties(act, m):
        """The pair lies in distinct orbits, and each central block of y
        matches that of x or of g x."""
        witness, x_window, y_window, zero = nonexpansive_witness(act, classify_quotient(act), m)
        for g in range(act.group.order):
            assert act.apply_word(g, y_window) != x_window
        gx = act.apply_word(witness.g, x_window)
        for center in range(m, len(x_window) - m):
            block = y_window[center - m : center + m + 1]
            assert block in (
                x_window[center - m : center + m + 1],
                gx[center - m : center + m + 1],
            )

    def test_window_properties_explicitly(self):
        for m in (1, 2, 3):
            self.assert_window_properties(six_state_action(), m)

    def test_window_properties_randomized(self):
        rng = random.Random(89)
        checked = 0
        while checked < 20:
            act = random_action(rng, max_states=6, max_order=6, require_irreducible=True)
            if classify_quotient(act).verdict == "nonexpansive":
                for m in (1, 2, 4):
                    self.assert_window_properties(act, m)
                checked += 1

    def test_conjugation_action_witness(self):
        act = s3_conjugation_action()
        verdict = classify_quotient(act)
        assert verdict.verdict == "nonexpansive"
        nonexpansive_witness(act, verdict, 1)

    def test_refuses_constant_to_one(self):
        act = swapped_two_shift()
        verdict = classify_quotient(act)
        with pytest.raises(PreconditionError):
            nonexpansive_witness(act, verdict, 1)


class TestConstantToOneCheck:
    def test_swap_two_shift(self):
        act = swapped_two_shift()
        assert constant_to_one_check(act)
        assert right_reduce(act).matrix.entries == ((2,),)
        assert left_reduce(act).matrix.entries == ((2,),)

    def test_trivial_group(self):
        p = SftPresentation(FULL_TWO_SHIFT)
        act = PermutationAction(p, group_from_generators(2, []))
        assert constant_to_one_check(act)

    def test_refuses_nonexpansive(self):
        with pytest.raises(PreconditionError):
            constant_to_one_check(six_state_action())
