"""Equivalence certificates, induced conjugacies, splittings, transport."""

import random
import re

import pytest

from sftact import (
    bowen_franks,
    char_poly_reciprocal,
    ElementarySse,
    factor_square,
    group_from_generators,
    higher_block,
    higher_block_action,
    identity_sse,
    in_split,
    induced_conjugacy,
    InputError,
    IntMatrix,
    out_split,
    PermGroup,
    PreconditionError,
    right_reduce,
    SftPresentation,
    SplitData,
    SseChain,
    transport_certificate,
    validate_action,
    verify_chain,
    verify_elementary_sse,
)
from sftact.sse import _check_intertwining

from helpers import (
    GOLDEN_MEAN,
    SIX_STATE_A,
    all_element_split_error,
    all_paths,
    amalgamation_state_map,
    dense_intertwining_error,
    direct_in_split,
    five_state_action,
    orbit_preserving_in_split,
    random_action,
    random_compatible_split,
    random_group_action,
    random_split,
    six_state_action,
    swapped_two_shift,
    triangle_action,
)


def golden_mean_action():
    return validate_action(SftPresentation.from_matrix(GOLDEN_MEAN), PermGroup.trivial(2))


def golden_mean_split_cert():
    d = SplitData("out", ((((0, 0, 0),), ((0, 1, 0),)), (((1, 0, 0),),)))
    return out_split(golden_mean_action(), d)


class TestVerify:
    def test_identity_certificate(self):
        assert verify_elementary_sse(identity_sse(SIX_STATE_A))

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
        cert = ElementarySse(a=m, b=m, r=IntMatrix.identity(2), s=m)
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
        cert = identity_sse(GOLDEN_MEAN)
        out = transport_certificate(cert, act, act)
        assert out.a.entries == GOLDEN_MEAN.entries
        assert out.r.entries == cert.r.entries

    def test_six_state_identity_collapses_selectors(self):
        act = six_state_action()
        out = transport_certificate(identity_sse(SIX_STATE_A), act, act)
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
        ident = validate_action(act.presentation, PermGroup.trivial(2))
        cert = identity_sse(act.matrix)
        with pytest.raises(PreconditionError, match="same group"):
            transport_certificate(cert, act, ident)

    def test_intertwining_failure_reported(self):
        act = six_state_action()
        elements = act.group.elements
        # same group with elements paired against their inverses
        reordered = PermGroup(
            6, (elements[0], elements[3], elements[2], elements[1])
        )
        mismatched = validate_action(act.presentation, reordered)
        with pytest.raises(PreconditionError, match="intertwine"):
            transport_certificate(identity_sse(SIX_STATE_A), act, mismatched)


    def test_index_check_matches_dense_oracle(self):
        rng = random.Random(89)
        outcomes = set()
        for _ in range(40):
            act, _ = random_group_action(rng, max_states=4)
            split_act, cert = out_split(act, random_compatible_split(rng, act, "out"))
            elements = split_act.group.elements
            rest = list(elements[1:])
            rng.shuffle(rest)
            reordered = PermGroup(split_act.group.degree, elements[:1] + tuple(rest))
            psi = validate_action(split_act.presentation, reordered)
            expected = dense_intertwining_error(cert, act, psi)
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
            expected = dense_intertwining_error(perturbed, act, psi)
            try:
                _check_intertwining(perturbed, act, psi)
                got = None
            except PreconditionError as err:
                got = str(err)
            assert got == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_s_intertwining_failure_reported(self):
        # R = A is all ones and intertwines any pair; S = I only equal actions
        full = SftPresentation.from_matrix(IntMatrix(((1, 1, 1),) * 3))
        phi = validate_action(full, group_from_generators(3, [(1, 0, 2)]))
        psi = validate_action(full, group_from_generators(3, [(0, 2, 1)]))
        cert = identity_sse(full.matrix)
        message = "S does not intertwine the actions at element 1"
        assert dense_intertwining_error(cert, phi, psi) == message
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            transport_certificate(cert, phi, psi)


class TestOutSplit:
    def test_trivial_partition_is_identity_shaped(self):
        act = golden_mean_action()
        split_act, cert = out_split(act, SplitData.trivial(act.presentation, "out"))
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
                    source = validate_action(act.presentation, sub)
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
        split_act, cert = in_split(act, SplitData.trivial(act.presentation, "in"))
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


class TestHigherBlockAction:
    def test_matches_higher_block_matrix(self):
        for act in (golden_mean_action(), swapped_two_shift(), six_state_action()):
            for n in (2, 3):
                block_act, chain, stages = higher_block_action(act, n)
                hb, _ = higher_block(act.presentation, n)
                assert block_act.matrix.entries == hb.matrix.entries
                assert verify_chain(chain)
                assert len(stages) == n

    def test_chain_transports_to_reduced_equivalence(self):
        act = six_state_action()
        block_act, chain, stages = higher_block_action(act, 3)
        reduced_links = [
            transport_certificate(link, stages[k], stages[k + 1])
            for k, link in enumerate(chain.links)
        ]
        transported = SseChain(tuple(reduced_links))
        assert verify_chain(transported)
        assert transported.a.entries == right_reduce(act).matrix.entries
        assert transported.b.entries == right_reduce(block_act).matrix.entries

    def test_invariants_preserved(self):
        rng = random.Random(73)
        for _ in range(8):
            act = random_action(rng, max_states=4)
            block_act, _, _ = higher_block_action(act, 2)
            r0 = right_reduce(act).matrix
            r1 = right_reduce(block_act).matrix
            assert char_poly_reciprocal(r0) == char_poly_reciprocal(r1)
            assert bowen_franks(r0) == bowen_franks(r1)


class TestFactorSquare:
    def test_identity_map(self):
        act = six_state_action()
        square = factor_square(act, act, tuple(range(6)))
        assert square.eta_bar.is_right_resolving()
        assert square.theta1.edge_map == square.theta2.edge_map

    def test_triangle_in_split_square(self):
        act = triangle_action()
        data, nontrivial = orbit_preserving_in_split(act)
        assert nontrivial
        split_act, _ = in_split(act, data)
        square = factor_square(split_act, act, amalgamation_state_map(split_act))
        assert square.eta.is_right_resolving()
        assert square.eta_bar.is_right_resolving()

    def test_identification_map_rejected(self):
        with pytest.raises(PreconditionError, match=r"\(3,1\) and \(3,2\)"):
            factor_square(six_state_action(), five_state_action(), (0, 0, 1, 2, 3, 4))

    def test_non_equivariant_rejected(self):
        act = swapped_two_shift()
        ident = validate_action(act.presentation, PermGroup.trivial(2))
        with pytest.raises(PreconditionError):
            factor_square(act, ident, (0, 1))
