"""Equivalence certificates, induced conjugacies, splittings, transport."""

import json
import random
import re
from pathlib import Path

import pytest

import sftact.action as action_module

from sftact import (
    bowen_franks,
    char_poly_reciprocal,
    ElementarySse,
    factor_square,
    group_from_generators,
    higher_block,
    higher_block_action,
    in_split,
    induced_conjugacy,
    InputError,
    IntMatrix,
    out_split,
    PermutationAction,
    PreconditionError,
    right_reduce,
    SftPresentation,
    SplitData,
    SseChain,
    transport_certificate,
    verify_elementary_sse,
)
from sftact.cli import emit_report, parse_job, run_job
from sftact.sse import _check_intertwining

from helpers import (
    GOLDEN_MEAN,
    SIX_STATE_A,
    all_element_split_error,
    all_paths,
    amalgamation_state_map,
    check_built_group,
    dense_intertwining_error,
    dense_product,
    dense_selectors,
    direct_in_split,
    five_state_action,
    frozenset_split_elements,
    generator_indices,
    identity_certificate,
    is_right_resolving,
    orbit_preserving_in_split,
    plain_orbits,
    random_action,
    random_compatible_split,
    random_group_action,
    random_split,
    reordered_group,
    six_state_action,
    square_commute_failures,
    swapped_two_shift,
    triangle_action,
    trivial_split,
)

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"


def golden_mean_action():
    return PermutationAction(SftPresentation(GOLDEN_MEAN), group_from_generators(2, []))


def golden_mean_split_cert():
    d = SplitData("out", ((((0, 0, 0),), ((0, 1, 0),)), (((1, 0, 0),),)))
    return out_split(golden_mean_action(), d)


class TestVerify:
    def test_identity_certificate(self):
        assert verify_elementary_sse(identity_certificate(SIX_STATE_A))

    def test_full_shift_collapse(self):
        cert = ElementarySse(
            a=IntMatrix(((2,),)),
            b=IntMatrix(((1, 1), (1, 1))),
            r=IntMatrix(((1, 1),)),
            s=IntMatrix(((1,), (1,))),
        )
        assert verify_elementary_sse(cert)

    def test_inessential_endpoint_is_fine(self):
        cert = ElementarySse(
            a=IntMatrix(((1,),)),
            b=IntMatrix(((1, 1), (0, 0))),
            r=IntMatrix(((1, 1),)),
            s=IntMatrix(((1,), (0,))),
        )
        assert verify_elementary_sse(cert)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            ElementarySse(
                a=IntMatrix(((1,),)),
                b=IntMatrix(((1,),)),
                r=IntMatrix(((1, 1),)),
                s=IntMatrix(((1,), (1,))),
            )

    def test_failing_products(self):
        cert = ElementarySse(
            a=IntMatrix(((1,),)),
            b=IntMatrix(((1, 1), (1, 1))),
            r=IntMatrix(((1, 1),)),
            s=IntMatrix(((1,), (1,))),
        )
        assert not verify_elementary_sse(cert)


class TestInducedConjugacy:
    def test_identity_certificate(self):
        m = GOLDEN_MEAN
        cert = ElementarySse(a=m, b=m, r=IntMatrix(((1, 0), (0, 1))), s=m)
        conj = induced_conjugacy(cert)
        path = ((0, 0, 0), (0, 1, 0), (1, 0, 0))
        # identity-shaped: the two-block tables reproduce the shifted path
        assert conj.apply_backward(conj.apply_forward(path)) == path[1:-1]

    def test_golden_mean_out_split(self):
        split_act, cert = golden_mean_split_cert()
        assert split_act.matrix.entries == ((1, 1, 0), (0, 0, 1), (1, 1, 0))
        conj = induced_conjugacy(cert)
        for path in all_paths(conj.source, 8):
            image = conj.apply_forward(path)
            assert conj.apply_backward(image) == path[1:-1]
        for path in all_paths(conj.target, 8):
            image = conj.apply_backward(path)
            assert conj.apply_forward(image) == path[1:-1]

    def test_uniqueness_failure(self):
        cert = ElementarySse(
            a=IntMatrix(((1,),)),
            b=IntMatrix(((1, 1), (1, 1))),
            r=IntMatrix(((1, 1),)),
            s=IntMatrix(((1,), (1,))),
        )
        with pytest.raises(PreconditionError, match="uniquely"):
            induced_conjugacy(cert)

    def test_products_checked_before_presentations(self):
        """B = [[0]] is no presentation (its state has no outgoing edge);
        the failing product S R = [[2]] is reported first."""
        cert = ElementarySse(
            a=IntMatrix(((1, 1), (1, 1))),
            b=IntMatrix(((0,),)),
            r=IntMatrix(((1,), (1,))),
            s=IntMatrix(((1, 1),)),
        )
        with pytest.raises(PreconditionError, match="^certificate products do not hold"):
            induced_conjugacy(cert)

    def test_rejects_multiplicities(self):
        cert = ElementarySse(
            a=IntMatrix(((2,),)),
            b=IntMatrix(((1, 1), (1, 1))),
            r=IntMatrix(((1, 1),)),
            s=IntMatrix(((1,), (1,))),
        )
        with pytest.raises(PreconditionError, match="zero-one"):
            induced_conjugacy(cert)

    @pytest.mark.parametrize(
        "name, r, s",
        [("r", ((2, 1),), ((1,), (1,))), ("s", ((1, 1),), ((1,), (2,)))],
    )
    def test_rejects_multiplicities_in_factors(self, name, r, s):
        cert = ElementarySse(
            a=IntMatrix(((1,),)), b=IntMatrix(((1, 1), (1, 1))), r=IntMatrix(r), s=IntMatrix(s)
        )
        with pytest.raises(PreconditionError, match=f"matrix {name} is not zero-one"):
            induced_conjugacy(cert)


class TestTransportCertificate:
    def test_trivial_groups_reduce_to_same(self):
        act = golden_mean_action()
        cert = identity_certificate(GOLDEN_MEAN)
        out = transport_certificate(cert, act, act)
        assert out.a.entries == GOLDEN_MEAN.entries
        assert out.r.entries == cert.r.entries

    def test_six_state_identity_collapses_selectors(self):
        act = six_state_action()
        out = transport_certificate(identity_certificate(SIX_STATE_A), act, act)
        assert out.a.entries == ((1, 2), (2, 1))
        assert out.r.entries == ((1, 2), (2, 1))
        assert out.s.entries == ((1, 0), (0, 1))
        assert verify_elementary_sse(out)

    def test_swap_two_shift_out_split(self):
        act = swapped_two_shift()
        split_act, cert = out_split(act, SplitData.complete(act.presentation, "out"))
        out = transport_certificate(cert, act, split_act)
        assert verify_elementary_sse(out)
        assert out.a.entries == ((2,),)

    def test_group_mismatch_reported(self):
        act = swapped_two_shift()
        ident = PermutationAction(act.presentation, group_from_generators(2, []))
        cert = identity_certificate(act.matrix)
        with pytest.raises(PreconditionError, match="same group"):
            transport_certificate(cert, act, ident)

    def test_intertwining_failure_reported(self):
        act = six_state_action()
        elements = act.group.elements
        # same group with elements paired against their inverses
        reordered = reordered_group(6, (elements[0], elements[3], elements[2], elements[1]))
        mismatched = PermutationAction(act.presentation, reordered)
        with pytest.raises(PreconditionError, match="intertwine"):
            transport_certificate(identity_certificate(SIX_STATE_A), act, mismatched)


    def test_index_check_matches_dense_oracle(self):
        rng = random.Random(89)
        outcomes = set()
        for _ in range(40):
            act, _ = random_group_action(rng, max_states=4)
            split_act, cert = out_split(act, random_compatible_split(rng, act, "out"))
            elements = split_act.group.elements
            rest = list(elements[1:])
            rng.shuffle(rest)
            reordered = reordered_group(split_act.group.degree, elements[:1] + tuple(rest))
            psi = PermutationAction(split_act.presentation, reordered)
            expected = dense_intertwining_error(cert, act, psi, generator_indices(act, psi))
            try:
                transport_certificate(cert, act, psi)
                got = None
            except PreconditionError as err:
                got = str(err)
            assert got == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_sparse_check_matches_dense_oracle_on_perturbed_certificates(self):
        rng = random.Random(97)
        outcomes = set()
        for _ in range(60):
            act, _ = random_group_action(rng, max_states=4)
            psi, cert = out_split(act, random_compatible_split(rng, act, "out"))
            r, s = (list(map(list, m.entries)) for m in (cert.r, cert.s))
            target = rng.choice((r, s))
            row = rng.choice(target)
            row[rng.randrange(len(row))] = rng.choice((0, 1, 2))
            perturbed = ElementarySse(cert.a, cert.b, IntMatrix(r), IntMatrix(s))
            expected = dense_intertwining_error(perturbed, act, psi, generator_indices(act, psi))
            try:
                _check_intertwining(perturbed, act, psi)
                got = None
            except PreconditionError as err:
                got = str(err)
            assert got == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_transport_matches_dense_selector_products(self):
        """The transported pair is (U R V', U' S V) and its ends are U A V
        and U' B V', with dense 0/1 selectors built from plain orbits."""
        rng = random.Random(113)
        shapes = set()
        for _ in range(40):
            phi, gens = random_group_action(rng, max_states=5)
            direction = rng.choice(("out", "in"))
            split = out_split if direction == "out" else in_split
            psi, cert = split(phi, random_compatible_split(rng, phi, direction))
            n, n2 = phi.matrix.dim, psi.matrix.dim
            orbits, orbits2 = plain_orbits(n, gens), plain_orbits(n2, psi.group.elements)
            u, v = dense_selectors(n, orbits)
            u2, v2 = dense_selectors(n2, orbits2)
            out = transport_certificate(cert, phi, psi)
            assert out.r.entries == dense_product(u, cert.r.entries, v2)
            assert out.s.entries == dense_product(u2, cert.s.entries, v)
            assert out.a.entries == dense_product(u, phi.matrix.entries, v)
            assert out.b.entries == dense_product(u2, psi.matrix.entries, v2)
            shapes.add((len(orbits) < n, len(orbits) == len(orbits2)))
        assert {(True, True), (True, False)} <= shapes

    def test_s_intertwining_failure_reported(self):
        # R = A is all ones and intertwines any pair; S = I only equal actions
        full = SftPresentation(IntMatrix(((1, 1, 1),) * 3))
        phi = PermutationAction(full, group_from_generators(3, [(1, 0, 2)]))
        psi = PermutationAction(full, group_from_generators(3, [(0, 2, 1)]))
        cert = identity_certificate(full.matrix)
        message = "S does not intertwine the actions at element 1"
        assert dense_intertwining_error(cert, phi, psi, generator_indices(phi, psi)) == message
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            transport_certificate(cert, phi, psi)

    def test_non_homomorphic_pairing_transports(self):
        """S3 on the all-ones matrix with R = I and S all ones.  psi lists
        phi's elements with elements 4 and 5 swapped, so pairing by index is
        no homomorphism, and R = I breaks the law at element 4; but both
        groups have the generators 1 and 2, where the law holds, so the
        certificate transports."""
        ones = IntMatrix(((1, 1, 1),) * 3)
        full = SftPresentation(ones)
        phi_group = group_from_generators(3, [(1, 0, 2), (1, 2, 0)])
        e = phi_group.elements
        psi_group = reordered_group(3, e[:4] + (e[5], e[4]))
        assert phi_group.generators == psi_group.generators == (1, 2)
        phi, psi = PermutationAction(full, phi_group), PermutationAction(full, psi_group)
        cert = ElementarySse(ones, ones, IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))), ones)
        every_pair = dense_intertwining_error(cert, phi, psi, range(6))
        assert every_pair == "R does not intertwine the actions at element 4"
        out = transport_certificate(cert, phi, psi)
        assert verify_elementary_sse(out)
        u, v = dense_selectors(3, plain_orbits(3, [e[1], e[2]]))
        assert out.r.entries == dense_product(u, cert.r.entries, v) == ((1,),)
        assert out.s.entries == dense_product(u, cert.s.entries, v) == ((3,),)
        assert out.a.entries == out.b.entries == dense_product(u, ones.entries, v)

    def test_accepted_non_homomorphic_pairings_verify(self):
        """psi's elements are swapped past its last generator index, which
        keeps its generators, or shuffled at random; whatever transports
        verifies and equals the dense selector products of plainly
        searched orbits, homomorphic pairing or not."""
        rng = random.Random(151)
        accepted, refused = 0, 0
        for _ in range(80):
            phi, gens = random_group_action(rng, max_states=4)
            split = rng.choice((out_split, in_split))
            psi, cert = split(phi, random_compatible_split(rng, phi, split.__name__[:-6]))
            elements = list(psi.group.elements)
            last = max(psi.group.generators, default=0)
            if rng.random() < 0.5 and len(elements) - last > 2:
                a, b = rng.sample(range(last + 1, len(elements)), 2)
                elements[a], elements[b] = elements[b], elements[a]
            else:
                rest = elements[1:]
                rng.shuffle(rest)
                elements[1:] = rest
            psi = PermutationAction(psi.presentation, reordered_group(psi.group.degree, elements))
            try:
                out = transport_certificate(cert, phi, psi)
            except PreconditionError:
                refused += 1
                continue
            assert verify_elementary_sse(out)
            n, n2 = phi.matrix.dim, psi.matrix.dim
            u, v = dense_selectors(n, plain_orbits(n, gens))
            u2, v2 = dense_selectors(n2, plain_orbits(n2, psi.group.elements))
            assert out.r.entries == dense_product(u, cert.r.entries, v2)
            assert out.s.entries == dense_product(u2, cert.s.entries, v)
            accepted += dense_intertwining_error(cert, phi, psi, range(phi.group.order)) is not None
        assert accepted > 0 and refused > 0

    def test_s6_transport_checks_generator_pairs_only(self, monkeypatch):
        """The S6 corpus transport checks the two laws once at each
        generator index of either group, not at its 720 element pairs, and
        still prints its expected report."""
        golden = (EXPECTED / "symmetry" / "s6-transport.json").read_text()
        job = parse_job(json.dumps(json.loads(golden)["input"]))
        _, phi, psi = job.parsed
        calls = []
        moved_row = action_module._moved_row

        def counting_moved_row(rows, p, q):
            calls.append(1)
            return moved_row(rows, p, q)

        monkeypatch.setattr(action_module, "_moved_row", counting_moved_row)
        report = emit_report(run_job(job))
        indices = generator_indices(phi, psi)
        assert phi.group.order == 720 and 2 <= len(indices) < 10
        assert len(calls) == 2 * len(indices)
        assert report == golden


class TestOutSplit:
    def test_trivial_partition_is_identity_shaped(self):
        act = golden_mean_action()
        split_act, cert = out_split(act, trivial_split(act.presentation, "out"))
        assert split_act.matrix.entries == GOLDEN_MEAN.entries
        assert verify_elementary_sse(cert)

    def test_golden_mean_block_split(self):
        split_act, cert = golden_mean_split_cert()
        assert split_act.matrix.entries == ((1, 1, 0), (0, 0, 1), (1, 1, 0))
        assert verify_elementary_sse(cert)

    def test_symmetric_split_transports_swap(self):
        act = swapped_two_shift()
        split_act, cert = out_split(act, SplitData.complete(act.presentation, "out"))
        assert split_act.group.order == 2
        assert split_act.presentation.num_states == 4
        assert verify_elementary_sse(cert)

    def test_incompatible_partition_rejected(self):
        act = swapped_two_shift()
        # split state 1's out-edges but not state 2's
        d = SplitData(
            "out",
            (
                (((0, 0, 0),), ((0, 1, 0),)),
                (((1, 0, 0), (1, 1, 0)),),
            ),
        )
        with pytest.raises(PreconditionError, match="compatible"):
            out_split(act, d)

    def test_compatibility_matches_all_element_oracle(self):
        rng = random.Random(83)
        outcomes = set()
        late_failures = 0
        for _ in range(120):
            act, _ = random_group_action(rng, max_states=4)
            direction = rng.choice(("out", "in"))
            kind = rng.randrange(3)
            if kind == 0:
                d = random_split(rng, act.presentation, direction)
            else:
                # compatible with the whole group, or only with the cyclic
                # subgroup of its first generator
                source = act
                if kind == 2 and act.group.generators:
                    first = act.group.elements[act.group.generators[0]]
                    sub = group_from_generators(act.group.degree, [first])
                    source = PermutationAction(act.presentation, sub)
                d = random_compatible_split(rng, source, direction)
            expected = all_element_split_error(act, d)
            try:
                (out_split if direction == "out" else in_split)(act, d)
                got = None
            except PreconditionError as err:
                got = str(err)
            assert got == expected
            outcomes.add(expected is None)
            if expected is not None:
                failing = int(re.search(r"element (\d+)", expected).group(1))
                late_failures += failing > act.group.generators[0]
        assert outcomes == {True, False}
        assert late_failures > 0

    def test_transported_group_matches_frozenset_oracle(self):
        rng = random.Random(101)
        split_directions = set()
        for _ in range(80):
            act, _ = random_group_action(rng, max_states=5)
            direction = rng.choice(("out", "in"))
            d = random_compatible_split(rng, act, direction)
            split_act, _ = (out_split if direction == "out" else in_split)(act, d)
            assert list(split_act.group.elements) == frozenset_split_elements(act, d)
            if split_act.presentation.num_states > act.presentation.num_states and act.group.order > 1:
                split_directions.add(direction)
        assert split_directions == {"out", "in"}

    def test_split_groups_pass_closure_oracle(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(103)
        for k in range(40):
            act = random_group_action(rng, max_states=5)[0] if k % 2 else random_action(rng, max_states=5)
            direction = rng.choice(("out", "in"))
            d = random_compatible_split(rng, act, direction)
            split_act, _ = (out_split if direction == "out" else in_split)(act, d)
            check_built_group(split_act.group, combinatorics)

    def test_intertwining_laws_hold(self):
        rng = random.Random(71)
        for _ in range(10):
            act = random_action(rng, max_states=4)
            split_act, cert = out_split(act, random_compatible_split(rng, act, "out"))
            out = transport_certificate(cert, act, split_act)
            assert verify_elementary_sse(out)


class TestInSplit:
    def test_trivial_partition(self):
        act = golden_mean_action()
        split_act, cert = in_split(act, trivial_split(act.presentation, "in"))
        assert split_act.matrix.entries == GOLDEN_MEAN.entries
        assert verify_elementary_sse(cert)

    def test_golden_mean_in_split(self):
        act = golden_mean_action()
        d = SplitData("in", ((((0, 0, 0),), ((1, 0, 0),)), (((0, 1, 0),),)))
        split_act, cert = in_split(act, d)
        assert verify_elementary_sse(cert)
        # transpose-mirror of the out-split matrix
        assert split_act.matrix.entries == ((1, 0, 1), (1, 0, 1), (0, 1, 0))

    def test_complete_in_split_of_swap(self):
        act = swapped_two_shift()
        split_act, cert = in_split(act, SplitData.complete(act.presentation, "in"))
        assert verify_elementary_sse(cert)
        assert split_act.presentation.num_states == 4

    def test_matches_direct_construction(self):
        rng = random.Random(83)
        for _ in range(20):
            act = random_action(rng, max_states=5)
            data = random_compatible_split(rng, act, "in")
            split_act, cert = in_split(act, data)
            matrix, labels, r, s, elements = direct_in_split(act, data)
            assert [list(row) for row in split_act.matrix.entries] == matrix
            assert list(split_act.matrix.labels) == labels
            assert [list(row) for row in cert.r.entries] == r
            assert [list(row) for row in cert.s.entries] == s
            assert list(split_act.group.elements) == elements
            assert cert.a == act.matrix and cert.b == split_act.matrix
            assert verify_elementary_sse(cert)

    def test_non_partition_rejected(self):
        act = golden_mean_action()
        # state 1 keeps its self-loop but drops the in-edge from state 2
        d = SplitData("in", ((((0, 0, 0),),), (((0, 1, 0),),)))
        with pytest.raises(InputError, match="state 1 do not partition its in-edges"):
            in_split(act, d)

    def test_two_entry_edge_rejected(self):
        act = golden_mean_action()
        # the in-edge from state 2 to state 1 lacks its multiplicity index
        d = SplitData("in", ((((0, 0, 0), (1, 0)),), (((0, 1, 0),),)))
        with pytest.raises(InputError, match="^blocks at state 1 do not partition its in-edges$"):
            in_split(act, d)


class TestHigherBlockAction:
    def test_matches_higher_block_matrix(self):
        for act in (golden_mean_action(), swapped_two_shift(), six_state_action()):
            for n in (2, 3):
                block_act, chain, stages = higher_block_action(act, n)
                hb, _ = higher_block(act.presentation, n)
                assert block_act.matrix.entries == hb.matrix.entries
                assert all(map(verify_elementary_sse, chain.links))
                assert len(stages) == n

    def test_chain_transports_to_reduced_equivalence(self):
        act = six_state_action()
        block_act, chain, stages = higher_block_action(act, 3)
        reduced_links = [
            transport_certificate(link, stages[k], stages[k + 1])
            for k, link in enumerate(chain.links)
        ]
        transported = SseChain(tuple(reduced_links))
        assert all(map(verify_elementary_sse, transported.links))
        assert transported.a.entries == right_reduce(act).matrix.entries
        assert transported.b.entries == right_reduce(block_act).matrix.entries

    def test_stages_pass_closure_oracle(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(107)
        for _ in range(8):
            _, _, stages = higher_block_action(random_action(rng, max_states=4), 3)
            for stage in stages:
                check_built_group(stage.group, combinatorics)

    def test_invariants_preserved(self):
        rng = random.Random(73)
        for _ in range(8):
            act = random_action(rng, max_states=4)
            block_act, _, _ = higher_block_action(act, 2)
            r0 = right_reduce(act).matrix
            r1 = right_reduce(block_act).matrix
            assert char_poly_reciprocal(r0) == char_poly_reciprocal(r1)
            assert bowen_franks(r0) == bowen_franks(r1)


def assert_right_resolving(square):
    """factor_square builds all four codes right-resolving."""
    for code in (square.eta, square.eta_bar, square.theta1, square.theta2):
        assert is_right_resolving(code)


class TestFactorSquare:
    def test_identity_map(self):
        act = six_state_action()
        square = factor_square(act, act, tuple(range(6)))
        assert_right_resolving(square)
        assert square.theta1.edge_map == square.theta2.edge_map
        assert square_commute_failures(square) == []

    def test_triangle_in_split_square(self):
        act = triangle_action()
        data, nontrivial = orbit_preserving_in_split(act)
        assert nontrivial
        split_act, _ = in_split(act, data)
        square = factor_square(split_act, act, amalgamation_state_map(split_act))
        assert_right_resolving(square)
        assert square_commute_failures(square) == []

    def test_identification_map_rejected(self):
        with pytest.raises(PreconditionError, match=r"\(3,1\) and \(3,2\)"):
            factor_square(six_state_action(), five_state_action(), (0, 0, 1, 2, 3, 4))

    def test_non_equivariant_rejected(self):
        act = swapped_two_shift()
        ident = PermutationAction(act.presentation, group_from_generators(2, []))
        with pytest.raises(PreconditionError):
            factor_square(act, ident, (0, 1))

    def test_equivariance_checked_at_generator_indices(self):
        """The six-state group is cyclic of order four, generated by element
        1.  Listing g^3 before g^2 pairs the elements by no homomorphism,
        but the identity map is still equivariant at element 1, so the
        square is the same; listing g^3 first breaks it there."""
        act = six_state_action()
        e, g, g2, g3 = act.group.elements
        swapped = PermutationAction(act.presentation, reordered_group(6, (e, g, g3, g2)))
        assert swapped.group.generators == act.group.generators == (1,)
        assert factor_square(act, swapped, tuple(range(6))) == factor_square(act, act, tuple(range(6)))
        inverse = PermutationAction(act.presentation, reordered_group(6, (e, g3, g2, g)))
        with pytest.raises(PreconditionError, match="^state map does not intertwine the actions at element 1$"):
            factor_square(act, inverse, tuple(range(6)))
