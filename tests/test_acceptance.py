"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import random

import pytest

from sftact import (
    bowen_franks,
    build_repshift,
    char_poly_reciprocal,
    classify_quotient,
    cyclic_group,
    enumerate_cycles,
    factor_square,
    fibered_preset,
    flat_bundle_counts,
    group_from_generators,
    higher_block,
    higher_block_action,
    in_split,
    IntMatrix,
    left_reduce,
    nonexpansive_witness,
    out_split,
    PermutationAction,
    quotient_period_counts,
    right_reduce,
    SftPresentation,
    SseChain,
    symmetric_group,
    tqft_matrix,
    trace_of_power,
    transport_certificate,
    trim_essential,
    verify_elementary_sse,
    word_stabilizer,
)
from sftact.quotient import burnside_counts
from sftact.cli import emit_report, parse_job, run_job

from helpers import (
    REDUCIBLE_A,
    SIX_STATE_A,
    alexander_polynomial,
    amalgamation_state_map,
    brute_exponent,
    brute_orbit_counts,
    brute_quotient_counts,
    conjugation_action,
    dense_trace_of_power,
    emit_job,
    five_state_action,
    is_right_resolving,
    orbit_preserving_in_split,
    random_action,
    random_compatible_split,
    recurrence_holds,
    reducible_action,
    six_state_action,
    square_commute_failures,
    standard_actions,
    swapped_two_shift,
    three_state_action,
    triangle_action,
)

CAP = 60000


def report(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_01_conjugation_full_shift_reduction():
    reduced = right_reduce(conjugation_action())
    assert reduced.matrix.entries == ((1, 3, 2), (1, 3, 2), (1, 3, 2))
    report(1, "conjugation action on the order-six full shift reduces to [[1,3,2]] rows")


def test_criterion_02_three_state_swap_reduction():
    reduced = right_reduce(three_state_action())
    assert reduced.matrix.entries == ((1, 2), (1, 1))
    report(2, "three-state swap action reduces to [[1,2],[1,1]]")


def test_criterion_03_six_state_family_values():
    act = six_state_action()
    right = right_reduce(act).matrix
    left = left_reduce(act).matrix
    assert right.entries == ((1, 2), (2, 1))
    assert left.entries == ((1, 1), (4, 1))
    assert bowen_franks(right).torsion == (2, 2)
    assert bowen_franks(left).torsion == (4,)
    assert right_reduce(five_state_action()).matrix.entries == ((1, 4), (1, 1))
    red = reducible_action()
    assert right_reduce(red).matrix.entries == ((1, 1), (0, 1))
    assert left_reduce(red).matrix.entries == ((1, 2), (0, 1))
    report(3, "six-state family: reductions, Bowen-Franks groups, factor and reducible fixtures")


def _quotient_counts_agree(act, cap=CAP, max_n=6):
    """Enumerated quotient counts equal the library counts and the trace
    powers of both reduced matrices, for every n whose enumeration fits
    the cap.  Returns the n tested."""
    exponent = brute_exponent(act.group.elements)
    tested = 0
    while tested < max_n and dense_trace_of_power(act.matrix, (tested + 1) * exponent) <= cap:
        tested += 1
    counts = brute_quotient_counts(act, tested, cap)
    assert quotient_period_counts(act, tested) == counts
    left = left_reduce(act).matrix
    right = right_reduce(act).matrix
    for n, count in enumerate(counts, 1):
        assert count == dense_trace_of_power(left, n) == dense_trace_of_power(right, n)
    return tested


def test_criterion_04_quotient_period_counts_match_reductions():
    for act in standard_actions():
        assert _quotient_counts_agree(act) >= 1
    rng = random.Random(20240601)
    full_range = 0
    attempts = 0
    while full_range < 50:
        attempts += 1
        assert attempts < 4000, "generator failed to find enough in-cap instances"
        act = random_action(rng, max_states=5, max_order=4)
        exponent = brute_exponent(act.group.elements)
        if any(dense_trace_of_power(act.matrix, n * exponent) > CAP for n in range(1, 7)):
            continue
        assert _quotient_counts_agree(act) == 6
        full_range += 1
    report(4, f"quotient period counts match both reduced matrices on fixtures and {full_range} random actions")


def test_criterion_05_orbit_counting_formula():
    rng = random.Random(20240602)
    cases = standard_actions() + [random_action(rng, max_states=5, max_order=4) for _ in range(50)]
    for act in cases:
        formula = burnside_counts(act, 6)
        assert brute_orbit_counts(act, 6, CAP) == list(formula.counts)
        twelve = burnside_counts(act, 12)
        for n in range(12):
            assert sum(row[n] for row in twelve.element_traces) % act.group.order == 0
        degree = formula.recurrence.degree
        horizon = burnside_counts(act, degree + 6)
        sums = [c * act.group.order for c in horizon.counts]
        assert recurrence_holds(formula.recurrence, sums)
    report(5, f"orbit counts: formula equals enumeration, divisibility and recurrence hold on {len(cases)} actions")


def test_criterion_06_certificate_transport_across_recodings():
    rng = random.Random(20240603)
    splits = 0
    while splits < 50:
        act = random_action(rng, max_states=6, max_order=4)
        direction = "out" if splits % 2 == 0 else "in"
        data = random_compatible_split(rng, act, direction)
        split_fn = out_split if direction == "out" else in_split
        split_act, cert = split_fn(act, data)
        assert verify_elementary_sse(cert)
        transported = transport_certificate(cert, act, split_act)
        assert verify_elementary_sse(transported)
        r0 = right_reduce(act).matrix
        r1 = right_reduce(split_act).matrix
        assert char_poly_reciprocal(r0) == char_poly_reciprocal(r1)
        assert bowen_franks(r0) == bowen_franks(r1)
        splits += 1
    recodings = 0
    for _ in range(10):
        act = random_action(rng, max_states=4, max_order=4)
        for n in (2, 3):
            block_act, chain, stages = higher_block_action(act, n)
            assert all(map(verify_elementary_sse, chain.links))
            reduced_chain = SseChain(
                tuple(
                    transport_certificate(link, stages[k], stages[k + 1])
                    for k, link in enumerate(chain.links)
                )
            )
            assert all(map(verify_elementary_sse, reduced_chain.links))
            r0 = right_reduce(act).matrix
            r1 = right_reduce(block_act).matrix
            assert reduced_chain.a.entries == r0.entries
            assert reduced_chain.b.entries == r1.entries
            assert char_poly_reciprocal(r0) == char_poly_reciprocal(r1)
            assert bowen_franks(r0) == bowen_franks(r1)
            recodings += 1
    report(6, f"certificate transport verified across {splits} splits and {recodings} block recodings")


def _brute_stabilizer_verdict(act, cap=CAP):
    # the kernel: the elements that fix every state
    kernel = {g for g, perm in enumerate(act.group.elements) if perm == tuple(range(act.group.degree))}
    for n in range(1, act.presentation.num_states + 1):
        for w in enumerate_cycles(act.presentation, n, cap):
            if set(word_stabilizer(act, w)) != kernel:
                return "nonexpansive"
    return "constant-to-one"


def _check_witness_windows(act, verdict, m):
    witness, x_window, y_window, zero = nonexpansive_witness(act, verdict, m)
    for g in range(act.group.order):
        assert act.apply_word(g, y_window) != x_window
    gx = act.apply_word(witness.g, x_window)
    for center in range(m, len(x_window) - m):
        block = y_window[center - m : center + m + 1]
        assert block in (
            x_window[center - m : center + m + 1],
            gx[center - m : center + m + 1],
        )


def test_criterion_07_expansivity_classification():
    six = classify_quotient(six_state_action())
    assert six.verdict == "nonexpansive"
    swap = swapped_two_shift()
    assert classify_quotient(swap).verdict == "constant-to-one"
    assert right_reduce(swap).matrix.entries == ((2,),)
    assert left_reduce(swap).matrix.entries == ((2,),)

    rng = random.Random(20240604)
    cases = [six_state_action(), swap, conjugation_action(), triangle_action()]
    cases += [random_action(rng, max_states=5, max_order=4, require_irreducible=True) for _ in range(25)]
    nonexpansive_seen = 0
    for act in cases:
        verdict = classify_quotient(act)
        assert verdict.verdict == _brute_stabilizer_verdict(act)
        if verdict.verdict == "nonexpansive":
            nonexpansive_seen += 1
            for m in (1, 2, 3):
                _check_witness_windows(act, verdict, m)
    assert nonexpansive_seen >= 2
    report(7, f"classifier agrees with stabilizer scan on {len(cases)} actions; {nonexpansive_seen} witness families checked at m=1,2,3")


def _rotor_action(cycle_length):
    """Hub state fed by a rotating cycle; the rotation fixes the hub and is
    transitive on its in-edges."""
    n = cycle_length + 1
    entries = [[0] * n for _ in range(n)]
    for j in range(1, n):
        entries[0][j] = 1
        entries[j][0] = 1
        entries[j][1 + (j % cycle_length)] = 1
    perm = tuple([0] + [1 + (j % cycle_length) for j in range(1, n)])
    matrix = IntMatrix(tuple(tuple(row) for row in entries))
    return PermutationAction(
        SftPresentation(matrix), group_from_generators(n, [perm])
    )


def test_criterion_08_commuting_squares():
    for act in (six_state_action(), swapped_two_shift(), triangle_action()):
        square = factor_square(act, act, tuple(range(act.presentation.num_states)))
        for code in (square.eta, square.eta_bar, square.theta1, square.theta2):
            assert is_right_resolving(code)
        assert square_commute_failures(square) == []

    checked = 0
    for act in [triangle_action()] + [_rotor_action(k) for k in (2, 3, 4)]:
        data, nontrivial = orbit_preserving_in_split(act)
        assert nontrivial
        split_act, cert = in_split(act, data)
        assert verify_elementary_sse(cert)
        square = factor_square(split_act, act, amalgamation_state_map(split_act))
        for code in (square.eta, square.eta_bar, square.theta1, square.theta2):
            assert is_right_resolving(code)
        assert square_commute_failures(square) == []
        checked += 1

    from sftact import PreconditionError

    with pytest.raises(PreconditionError, match=r"2-blocks \(3,1\) and \(3,2\)"):
        factor_square(six_state_action(), five_state_action(), (0, 0, 1, 2, 3, 4))
    report(8, f"commuting squares verified for identities and {checked} split-generated factor maps; identification map rejected")


def test_criterion_09_representation_shifts():
    trefoil = fibered_preset("trefoil")
    assert alexander_polynomial(trefoil.phi_images) == (1, -1, 1)
    assert alexander_polynomial(fibered_preset("figure8").phi_images) == (1, -3, 1)

    z2 = cyclic_group(2)
    shift = build_repshift(trefoil, z2)
    assert shift.presentation.num_states == 4
    counts = [trace_of_power(shift.presentation.matrix, n) for n in range(1, 7)]
    assert counts == [1, 1, 4, 1, 1, 4]

    # independent oracle: iterate the substitution and count fixed tuples
    from itertools import product

    def substitute(word, images):
        out = []
        for gen, sign in word:
            image = images[gen]
            out.extend(image if sign == 1 else [(g, -s) for g, s in reversed(image)])
        return tuple(out)

    from sftact import evaluate_word

    for n in range(1, 7):
        words = [((k, 1),) for k in range(2)]
        for _ in range(n):
            words = [substitute(w, trefoil.phi_images) for w in words]
        fixed = sum(
            1
            for images in product(range(2), repeat=2)
            if all(evaluate_word(words[k], images, z2) == images[k] for k in range(2))
        )
        assert fixed == counts[n - 1]

    for name, group in (("trefoil", z2), ("figure8", z2), ("trefoil", symmetric_group(3))):
        rep = flat_bundle_counts(build_repshift(fibered_preset(name), group), 12)
        assert recurrence_holds(rep.recurrence, rep.counts)

    s3 = symmetric_group(3)
    shift3 = build_repshift(trefoil, s3)
    assert shift3.presentation.num_states == 36
    out = tqft_matrix(shift3)
    states = shift3.states
    mat = shift3.presentation.matrix.entries

    def canon(s):
        return min(tuple(s3.conjugate(x, c) for x in s) for c in range(6))

    reps = sorted({canon(s) for s in states})
    orbit_index = {r: k for k, r in enumerate(reps)}
    brute = [[0] * len(reps) for _ in reps]
    index = {s: k for k, s in enumerate(states)}
    for rep in reps:
        i = index[rep]
        succ = next(j for j in range(36) if mat[i][j])
        brute[orbit_index[rep]][orbit_index[canon(states[succ])]] = 1
    assert out.reduced.matrix.entries == tuple(tuple(row) for row in brute)
    report(9, "representation shifts: presets, period counts, recurrences and the order-six transfer matrix check out")


def test_criterion_10_cross_module_consistency():
    rng = random.Random(20240605)
    for _ in range(10):
        act = random_action(rng, max_states=4, max_order=4)
        p = act.presentation
        for n in range(1, 7):
            assert len(enumerate_cycles(p, n, CAP)) == trace_of_power(p.matrix, n)
        block, _ = higher_block(p, 2)
        for n in range(1, 6):
            assert trace_of_power(block.matrix, n) == trace_of_power(p.matrix, n)

    for matrix in (SIX_STATE_A, REDUCIBLE_A, IntMatrix(((0, 1), (0, 1))), IntMatrix(((0,),))):
        trimmed, kept = trim_essential(matrix)
        if trimmed is None:
            continue
        again, kept2 = trim_essential(trimmed.matrix)
        assert again.matrix.entries == trimmed.matrix.entries
        assert kept2 == tuple(range(trimmed.num_states))

    job_doc = {
        "command": "reduce",
        "input": {
            "matrix": [list(row) for row in SIX_STATE_A.entries],
            "group": {"generators": ["(1 2)(3 4 5 6)"]},
        },
    }
    job = parse_job(json.dumps(job_doc))
    assert parse_job(emit_job(job)) == job
    first = emit_report(run_job(job), "json")
    second = emit_report(run_job(parse_job(emit_job(job))), "json")
    assert first == second
    text1 = emit_report(run_job(job), "text")
    text2 = emit_report(run_job(job), "text")
    assert text1 == text2
    report(10, "cycle counts, block recodings, trimming and CLI round trips are consistent")
