"""Representation shifts, hom enumeration, presets, transfer matrices."""

import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from sftact import (
    AbelianGroupInvariants,
    CycleWord,
    ElementarySse,
    FiniteGroupTable,
    HnnData,
    InputError,
    IntMatrix,
    LimitExceededError,
    OneBlockCode,
    PermutationAction,
    PreconditionError,
    QuotientClassification,
    RepShift,
    SftPresentation,
    SftactError,
    SseChain,
    TwoBlockConjugacy,
    bowen_franks,
    build_repshift,
    burnside_counts,
    char_poly_reciprocal,
    classify_quotient,
    cyclic_group,
    dihedral_group,
    enumerate_cycles,
    enumerate_homs,
    evaluate_word,
    factor_square,
    fibered_preset,
    fixed_submatrix,
    flat_bundle_counts,
    group_from_generators,
    higher_block,
    higher_block_action,
    left_reduce,
    nonexpansive_witness,
    out_split,
    poly_lcm,
    quaternion_group,
    right_reduce,
    symmetric_group,
    tqft_matrix,
    trace_of_power,
    trace_sequence,
    transport_certificate,
    trivial_group,
)
from sftact.action import paired_groups
from sftact.intmatrix import _components
from sftact.jobs import emit_report, parse_abstract_group, parse_job, run_job
from sftact.repshift import check_word

from helpers import (
    FULL_TWO_SHIFT,
    PLAIN_MONODROMIES,
    SIX_STATE_A,
    alexander_polynomial,
    brute_conjugation,
    brute_is_group,
    check_built_group,
    check_group_table,
    composition_symmetric_table,
    conjugation_action,
    dense_product,
    dense_selectors,
    identity_certificate,
    permutation_dihedral_table,
    quaternion_arithmetic_table,
    plain_monodromy_fixed_counts,
    plain_orbits,
    recurrence_holds,
    reducible_action,
    six_state_action,
    swapped_two_shift,
    three_state_action,
    z48_with_swapped_products,
)


# Z3 as an explicit table whose identity is element 2: element k is k + 1 mod 3
Z3_IDENTITY_LAST = {"names": ["a", "b", "e"], "table": [[(i + j + 1) % 3 for j in range(3)] for i in range(3)]}


def substitute(word, images):
    out = []
    for gen, sign in word:
        image = images[gen]
        if sign == 1:
            out.extend(image)
        else:
            out.extend((g, -s) for g, s in reversed(image))
    return tuple(out)


def monodromy_fixed_count(hnn, group, n):
    """Independent oracle: iterate the generator-image substitution n times
    and count the homomorphisms it fixes."""
    words = [((k, 1),) for k in range(hnn.b_gens)]
    for _ in range(n):
        words = [substitute(w, hnn.phi_images) for w in words]
    count = 0
    for images in product(range(group.order), repeat=hnn.b_gens):
        if all(
            evaluate_word(words[k], images, group) == images[k]
            for k in range(hnn.b_gens)
        ):
            count += 1
    return count


# every named group of the job documents up to order 24, and the largest of each kind
NAMED_GROUPS = (
    [f"Z{n}" for n in (*range(1, 13), 720)] + [f"S{n}" for n in range(1, 7)]
    + [f"D{n}" for n in (*range(1, 13), 360)] + ["Q8"]
)


class TestGroupTables:
    def test_cyclic(self):
        z4 = cyclic_group(4)
        assert z4.order == 4
        assert z4.identity == 0
        assert z4.inverse[1] == 3

    def test_symmetric(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        assert sorted(s3.inverse) == list(range(6))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_matches_composition_oracle(self, n):
        s = symmetric_group(n)
        assert (s.names, s.table) == composition_symmetric_table(n)

    def test_dihedral(self):
        for n, order in ((1, 2), (2, 4), (3, 6), (4, 8)):
            assert dihedral_group(n).order == order

    @pytest.mark.parametrize("n", range(1, 13))
    def test_dihedral_matches_permutation_oracle(self, n):
        d = dihedral_group(n)
        assert (d.names, d.table) == permutation_dihedral_table(n)

    def test_largest_named_groups(self):
        assert cyclic_group(720).order == 720
        d360 = dihedral_group(360)
        assert d360.order == 720
        assert d360.names[d360.mul(d360.names.index("s5"), d360.names.index("s7"))] == "r2"

    @pytest.mark.parametrize(
        "build, n",
        [(cyclic_group, 0), (cyclic_group, 721), (dihedral_group, 0), (dihedral_group, 361),
         (symmetric_group, 7)],
    )
    def test_named_group_bounds(self, build, n):
        with pytest.raises(InputError, match=r"supported for 1 <= n <= (720|360|6)$"):
            build(n)

    def test_quaternion(self):
        q8 = quaternion_group()
        assert q8.order == 8
        i = q8.names.index("i")
        j = q8.names.index("j")
        k = q8.names.index("k")
        assert q8.mul(i, j) == k
        assert q8.mul(j, i) == q8.names.index("-k")
        assert q8.mul(i, i) == q8.names.index("-1")

    def test_quaternion_matches_arithmetic_oracle(self):
        q8 = quaternion_group()
        assert (q8.names, q8.table) == quaternion_arithmetic_table()

    def test_bad_table_rejected(self):
        with pytest.raises(InputError):
            FiniteGroupTable(names=("e", "g"), table=((0, 1), (1, 1)))


    def test_associativity_checked_exactly_past_order_24(self):
        table = z48_with_swapped_products()
        with pytest.raises(InputError, match="not associative"):
            FiniteGroupTable(names=tuple(str(k) for k in range(48)), table=table)

    def test_associativity_checked_at_every_generator(self):
        # Z/2 x (Z/7 with 1+3 and 1+5 exchanged), element (h, l) at index
        # 2l + h: the first greedy generator (1, 0) associates with every
        # pair, the second one, (0, 1), does not
        loop = [[(i + j) % 7 for j in range(7)] for i in range(7)]
        loop[1][3], loop[1][5] = loop[1][5], loop[1][3]
        table = [[2 * loop[a // 2][b // 2] + (a + b) % 2 for b in range(14)] for a in range(14)]
        assert not brute_is_group(table)
        with pytest.raises(InputError, match="not associative"):
            FiniteGroupTable(names=tuple(str(k) for k in range(14)), table=table)

    def test_associativity_matches_all_triples_oracle(self):
        rng = random.Random(53)
        bases = [cyclic_group(30), dihedral_group(4), symmetric_group(4), quaternion_group()]
        outcomes = set()
        for _ in range(40):
            base = rng.choice(bases)
            table = [list(row) for row in base.table]
            n = len(table)
            if rng.random() < 0.8:
                x = rng.randrange(1, n)
                y1, y2 = rng.sample(range(1, n), 2)
                table[x][y1], table[x][y2] = table[x][y2], table[x][y1]
            expected = brute_is_group(table)
            try:
                FiniteGroupTable(names=base.names, table=table)
                got = True
            except InputError:
                got = False
            assert got == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("name", NAMED_GROUPS)
    def test_named_group_passes_every_check(self, name):
        """A named group skips the entry scan and Light's test; the checks
        a job document's table gets pass on it, and find the same identity,
        inverses and generators, and sympy builds the same group."""
        combinatorics = pytest.importorskip("sympy.combinatorics")
        named = pytest.importorskip("sympy.combinatorics.named_groups")
        group = parse_abstract_group(name, "$")
        checked = FiniteGroupTable(names=group.names, table=group.table)
        assert checked == group
        assert (checked.identity, checked.inverse, checked.generators) == (
            group.identity, group.inverse, group.generators,
        )
        oracle = check_group_table(group, combinatorics)
        kind, n = name[0], int(name[1:])
        if kind == "Q":
            reference = (False, False, 2)
        else:
            built = {"Z": named.CyclicGroup, "S": named.SymmetricGroup, "D": named.DihedralGroup}[kind](n)
            reference = (built.is_cyclic, built.is_abelian, built.derived_subgroup().order())
        assert (oracle.is_cyclic, oracle.is_abelian, oracle.derived_subgroup().order()) == reference

    @pytest.mark.parametrize("entry", [1.0, 1.7, True, "1"])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(InputError, match="element indices"):
            FiniteGroupTable(names=("e", "g"), table=((0, entry), (1, 0)))

    @pytest.mark.parametrize("names", [("e", "a", "a,a"), ("e", "x,y", "z")])
    def test_comma_in_element_name_rejected(self, names):
        # state labels join element names with commas, so such names make
        # labels that collide or cannot be read back
        with pytest.raises(InputError, match="must not contain ','"):
            FiniteGroupTable(names=names, table=cyclic_group(3).table)


class TestWordEvaluation:
    def test_empty_word(self):
        z2 = cyclic_group(2)
        assert evaluate_word((), (1,), z2) == 0

    def test_cancellation(self):
        z4 = cyclic_group(4)
        assert evaluate_word(((0, 1), (0, -1)), (3,), z4) == 0

    def test_transposition_product(self):
        s3 = symmetric_group(3)
        a = s3.names.index("213")  # swap of first two points
        b = s3.names.index("132")  # swap of last two points
        product_name = s3.names[evaluate_word(((0, 1), (1, 1)), (a, b), s3)]
        assert product_name in ("231", "312")

    def test_index_out_of_range(self):
        with pytest.raises(InputError):
            evaluate_word(((1, 1),), (0,), cyclic_group(2))

    @pytest.mark.parametrize("letter", [(0.0, 1), (0, 1.0), (False, 1), (0, True)])
    def test_non_integer_letters_rejected(self, letter):
        with pytest.raises(InputError, match="non-integer"):
            check_word((letter,), 2)


class TestEnumerateHoms:
    def test_relator_cubes_in_z2(self):
        z2 = cyclic_group(2)
        homs = enumerate_homs(1, [((0, 1), (0, 1), (0, 1))], z2)
        assert homs == [(0,)]

    def test_free_rank_two_in_s3(self):
        assert len(enumerate_homs(2, [], symmetric_group(3))) == 36

    def test_trivial_target(self):
        assert enumerate_homs(3, [((0, 1), (1, -1))], trivial_group()) == [(0, 0, 0)]

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            enumerate_homs(4, [], symmetric_group(3), limit=100)

    def test_lexicographic_order(self):
        homs = enumerate_homs(2, [], cyclic_group(2))
        assert homs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matches_product_oracle(self):
        rng = random.Random(23)
        for group in (cyclic_group(4), symmetric_group(3), dihedral_group(4)):
            for _ in range(8):
                gens = rng.randint(0, 3)
                relators = [
                    tuple((rng.randrange(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 2) if gens else 0)
                ]
                expected = [
                    images for images in product(range(group.order), repeat=gens)
                    if all(evaluate_word(w, images, group) == group.identity for w in relators)
                ]
                assert enumerate_homs(gens, relators, group) == expected

    def test_many_generators_without_recursion(self):
        assert enumerate_homs(3000, [], trivial_group()) == [(0,) * 3000]


class TestPresets:
    """Each preset's monodromy abelianizes to a matrix whose characteristic
    polynomial is the knot's Alexander polynomial."""

    def test_trefoil_alexander(self):
        phi = fibered_preset("trefoil").phi_images
        assert phi == PLAIN_MONODROMIES["trefoil"]
        assert alexander_polynomial(phi) == (1, -1, 1)

    def test_figure8_alexander(self):
        phi = fibered_preset("figure8").phi_images
        assert phi == PLAIN_MONODROMIES["figure8"]
        assert alexander_polynomial(phi) == (1, -3, 1)

    def test_alexander_polynomials_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for name in ("trefoil", "figure8"):
            phi = fibered_preset(name).phi_images
            m = sympy.zeros(2, 2)
            for k, word in enumerate(phi):
                for i, sign in word:
                    m[i, k] += sign
            char = m.charpoly(t).all_coeffs()
            assert tuple(int(c) for c in reversed(char)) == alexander_polynomial(phi)

    def test_unknown_preset(self):
        with pytest.raises(InputError):
            fibered_preset("granny")


class TestBuildRepshift:
    def test_fields(self):
        assert tuple(RepShift.__annotations__) == ("presentation", "states", "group")

    def test_trivial_group_single_loop(self):
        shift = build_repshift(fibered_preset("trefoil"), trivial_group())
        assert shift.presentation.matrix.entries == ((1,),)

    def test_trefoil_z2_is_permutation_shift(self):
        shift = build_repshift(fibered_preset("trefoil"), cyclic_group(2))
        assert shift.presentation.num_states == 4
        for row in shift.presentation.matrix.entries:
            assert sum(row) == 1
        cols = list(zip(*shift.presentation.matrix.entries))
        assert all(sum(col) == 1 for col in cols)

    def test_trefoil_z2_period_counts(self):
        shift = build_repshift(fibered_preset("trefoil"), cyclic_group(2))
        counts = [trace_of_power(shift.presentation.matrix, n) for n in range(1, 7)]
        assert counts == [1, 1, 4, 1, 1, 4]

    def test_counts_match_monodromy_oracle(self):
        for name in ("trefoil", "figure8"):
            hnn = fibered_preset(name)
            for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
                shift = build_repshift(hnn, group)
                for n in range(1, 7):
                    assert trace_of_power(
                        shift.presentation.matrix, n
                    ) == monodromy_fixed_count(hnn, group, n)

    @pytest.mark.parametrize("degree", [3, 4])
    @pytest.mark.parametrize("name", ["trefoil", "figure8"])
    def test_counts_match_plain_permutation_oracle(self, name, degree):
        shift = build_repshift(fibered_preset(name), symmetric_group(degree))
        expected = plain_monodromy_fixed_counts(PLAIN_MONODROMIES[name], degree, 6)
        assert trace_sequence(shift.presentation.matrix, 6) == expected

    @pytest.mark.parametrize(
        "group", [cyclic_group(1), symmetric_group(3), quaternion_group()], ids=["Z1", "S3", "Q8"]
    )
    @pytest.mark.parametrize("name", ["trefoil", "figure8"])
    def test_trivial_homomorphism_is_a_kept_state_with_a_loop(self, name, group):
        shift = build_repshift(fibered_preset(name), group)
        k = shift.states.index((group.identity, group.identity))
        assert shift.presentation.has_edge((k, k, 0))

    def test_trefoil_s4_memory_peak(self):
        hnn, group = fibered_preset("trefoil"), symmetric_group(4)
        tracemalloc.start()
        try:
            build_repshift(hnn, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense 576 x 576 state matrix alone would take 2.6 MB
        assert peak < 1.5e6

    @pytest.mark.parametrize(
        "group, states, image_order",
        [(symmetric_group(3), 36, 6), (dihedral_group(4), 64, 4), (parse_abstract_group(Z3_IDENTITY_LAST, "$"), 9, 1)],
        ids=["S3", "D4", "Z3e2"],
    )
    def test_conjugations_are_brute_force_conjugation(self, group, states, image_order):
        shift = build_repshift(fibered_preset("trefoil"), group)
        assert shift.presentation.num_states == states
        # formed on first read, so an oversized shift can be refused first
        assert "conjugations" not in vars(shift)
        assert len(shift.conjugations) == len(group.generators)
        for c, perm in zip(group.generators, shift.conjugations):
            assert perm == brute_conjugation(shift, c)
        assert shift.conjugations is shift.conjugations
        assert conjugation_action(shift).group.order == image_order

    @pytest.mark.parametrize(
        "group",
        [symmetric_group(3), symmetric_group(4), dihedral_group(4), quaternion_group()],
        ids=["S3", "S4", "D4", "Q8"],
    )
    def test_conjugation_group_passes_closure_oracle(self, group):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        shift = build_repshift(fibered_preset("trefoil"), group)
        check_built_group(conjugation_action(shift).group, combinatorics)

    def test_abelian_group_conjugation_trivial(self):
        shift = build_repshift(fibered_preset("trefoil"), cyclic_group(5))
        assert conjugation_action(shift).group.order == 1
        assert shift.fixed_sets == (tuple(range(len(shift.states))),) * 5

    def test_inconsistent_hnn_reported(self):
        # U has a relator the amalgamating image violates
        bad = HnnData(
            b_gens=1,
            b_relators=(((0, 1), (0, 1)),),  # base of order dividing 2
            u_gens=(((0, 1),),),
            u_relators=(((0, 1), (0, 1)),),
            v_gens=(((0, 1),),),
            v_relators=(),
            phi_images=(((0, 1),),),
        )
        # terminal states satisfy the relator here, so this one builds
        build_repshift(bad, cyclic_group(2))
        worse = HnnData(
            b_gens=1,
            b_relators=(),
            u_gens=(((0, 1),),),
            u_relators=(((0, 1), (0, 1)),),
            v_gens=(((0, 1),),),
            v_relators=(),
            phi_images=(((0, 1),),),
        )
        with pytest.raises(InputError, match="relator"):
            build_repshift(worse, cyclic_group(4))

    def test_parallel_edges_rejected(self):
        # base free of rank two, U only its first generator: two base
        # homomorphisms share every state pair
        wide = HnnData(
            b_gens=2,
            b_relators=(),
            u_gens=(((0, 1),),),
            u_relators=(),
            v_gens=(((0, 1),),),
            v_relators=(),
            phi_images=(((0, 1),),),
        )
        with pytest.raises(PreconditionError, match="parallel"):
            build_repshift(wide, cyclic_group(2))


_ORACLE_GROUPS = {"S3": "S3", "S4": "S4", "D4": "D4", "Q8": "Q8", "Z5": "Z5", "Z3e2": Z3_IDENTITY_LAST}


@pytest.mark.parametrize("preset", ["trefoil", "figure8"])
@pytest.mark.parametrize("group_doc", list(_ORACLE_GROUPS.values()), ids=list(_ORACLE_GROUPS))
def test_table_route_matches_closed_conjugation_group(preset, group_doc):
    """Counts and recurrence, the orbits, both reductions, the TQFT basis,
    the repshift report's conjugation order and every element's fixed
    states agree with the conjugation group closed on the states."""
    group = parse_abstract_group(group_doc, "$.group")
    shift = build_repshift(fibered_preset(preset), group)
    oracle = conjugation_action(shift)
    assert shift.orbits == oracle.orbits
    assert left_reduce(shift).matrix == left_reduce(oracle).matrix
    report, expected = flat_bundle_counts(shift, 8), burnside_counts(oracle, 8)
    assert (report.counts, report.recurrence) == (expected.counts, expected.recurrence)
    tqft, reduced = tqft_matrix(shift), right_reduce(oracle)
    assert (tqft.reduced.matrix, tqft.reduced.orbits) == (reduced.matrix, reduced.orbits)
    assert tqft.basis == tuple(shift.presentation.label(i) for i in oracle.orbits.representatives)
    job = json.dumps({"command": "repshift", "input": {"hnn": {"preset": preset}, "group": group_doc}})
    assert run_job(parse_job(job))["result"]["conjugation_order"] == oracle.group.order
    assert shift.fixed_sets == tuple(
        tuple(i for i, image in enumerate(brute_conjugation(shift, c)) if image == i) for c in range(group.order)
    )


def test_table_route_closes_no_permutation_group(monkeypatch):
    """The TQFT matrix and the bundle counts come from the group's table
    and the generators' state maps: no group is closed on the states."""
    import sftact.action

    def refuse(*args, **kwargs):
        raise AssertionError("a permutation group was closed")

    original = sftact.action.group_from_generators
    for name, module in list(sys.modules.items()):
        if name == "sftact" or name.startswith("sftact."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    shift = build_repshift(fibered_preset("trefoil"), symmetric_group(3))
    assert len(tqft_matrix(shift).basis) == 11
    assert flat_bundle_counts(shift, 6).counts == (1, 2, 4, 2, 1, 8)


class TestTqftMatrix:
    def test_trivial_group(self):
        shift = build_repshift(fibered_preset("trefoil"), trivial_group())
        assert tqft_matrix(shift).reduced.matrix.entries == ((1,),)

    def test_state_matrix_never_made_dense(self):
        shift = build_repshift(fibered_preset("trefoil"), symmetric_group(3))
        tqft_matrix(shift)
        flat_bundle_counts(shift, 6)
        assert "entries" not in vars(shift.presentation.matrix)

    def test_selectors_built_only_when_read(self):
        shift = build_repshift(fibered_preset("trefoil"), symmetric_group(3))
        reduced = tqft_matrix(shift).reduced
        assert "u_selector" not in vars(reduced) and "v_selector" not in vars(reduced)
        act = conjugation_action(shift)
        a, n = act.matrix.entries, act.matrix.dim
        u, v = dense_selectors(n, plain_orbits(n, act.group.elements))
        assert (reduced.u_selector.entries, reduced.v_selector.entries) == (u, v)
        assert dense_product(u, a, v) == reduced.matrix.entries
        assert dense_product(tuple(zip(*v)), a, tuple(zip(*u))) == left_reduce(act).matrix.entries

    def test_abelian_case_is_state_matrix(self):
        shift = build_repshift(fibered_preset("trefoil"), cyclic_group(2))
        out = tqft_matrix(shift)
        assert out.reduced.matrix.entries == shift.presentation.matrix.entries

    def test_s3_matches_brute_orbit_adjacency(self):
        group = symmetric_group(3)
        shift = build_repshift(fibered_preset("trefoil"), group)
        out = tqft_matrix(shift)
        states = shift.states
        index = {s: k for k, s in enumerate(states)}
        mat = shift.presentation.matrix.entries

        def canon(s):
            return min(
                tuple(group.conjugate(x, c) for x in s) for c in range(group.order)
            )

        reps = sorted({canon(s) for s in states})
        orbit_index = {r: k for k, r in enumerate(reps)}
        brute = [[0] * len(reps) for _ in reps]
        for rep in reps:
            i = index[rep]
            succ = next(j for j in range(len(states)) if mat[i][j])
            brute[orbit_index[rep]][orbit_index[canon(states[succ])]] = 1
        assert out.reduced.matrix.entries == tuple(tuple(row) for row in brute)
        assert len(out.basis) == 11

    def test_higher_block_preserves_invariants(self):
        shift = build_repshift(fibered_preset("trefoil"), symmetric_group(3))
        block_act, _, _ = higher_block_action(conjugation_action(shift), 2)
        original = tqft_matrix(shift).reduced.matrix
        recoded = right_reduce(block_act).matrix
        assert char_poly_reciprocal(original) == char_poly_reciprocal(recoded)
        assert bowen_franks(original) == bowen_franks(recoded)


# Runs the CLI as its only child and prints the child's exit code, stdout,
# stderr and peak RSS in KiB as JSON.  In the test process itself neither
# RUSAGE_CHILDREN nor os.wait4 would measure the CLI alone: the first is the
# largest child reaped so far, and the second counts the pages a child
# starts with, so both can follow the size of the test process.
_MEASURED_CHILD = """
import json, resource, subprocess, sys
proc = subprocess.run(sys.argv[1:], capture_output=True, text=True, timeout=60)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak]))
"""


def run_measured_cli(tmp_path, command, input_doc, *flags):
    """(exit code, stdout, stderr, peak RSS in KiB) of ``sftact command`` on
    the job ``input_doc`` with the command-line ``flags``, run in a small
    wrapper process."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": command, "input": input_doc}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    wrapper = subprocess.run(
        [sys.executable, "-c", _MEASURED_CHILD, sys.executable, "-m", "sftact.cli", command, "--input", str(path), *flags],
        capture_output=True, text=True, env=env, timeout=90, check=True,
    )
    return json.loads(wrapper.stdout)


@pytest.mark.slow
def test_trefoil_s5_tqft_end_to_end(tmp_path):
    start = time.perf_counter()
    returncode, stdout, stderr, peak_kib = run_measured_cli(
        tmp_path, "tqft", {"hnn": {"preset": "trefoil"}, "group": "S5"}
    )
    elapsed = time.perf_counter() - start
    assert returncode == 0, stderr
    result = json.loads(stdout)["result"]
    assert len(result["basis"]) == len(result["matrix"]["entries"]) == 161
    assert elapsed < 10
    # no permutation group is closed on the 14400 states: about 29 MB, where
    # closing the order-120 conjugation group on them would take about 47 MB
    assert peak_kib < 40 * 1024


@pytest.mark.slow
@pytest.mark.parametrize("preset, counts", [
    ("trefoil", (1, 2, 11, 3, 2, 45, 1, 3, 41, 3, 1, 73)),
    ("figure8", (1, 2, 38, 6, 1, 41, 8, 10, 47, 7, 1, 57)),
])
def test_s5_bundle_counts_end_to_end(tmp_path, preset, counts):
    start = time.perf_counter()
    returncode, stdout, stderr, peak_kib = run_measured_cli(
        tmp_path, "bundle-counts", {"hnn": {"preset": preset}, "group": "S5"}, "--max-n", "12"
    )
    elapsed = time.perf_counter() - start
    assert returncode == 0, stderr
    result = json.loads(stdout)["result"]
    assert tuple(result["counts"]) == counts
    # every component of the shift is a single cycle, so each fixed
    # submatrix is a union of its cycles, each det(I - t A_g) divides the
    # identity's, and the recurrence is det(I - t A) of the shift itself
    matrix = build_repshift(fibered_preset(preset), symmetric_group(5)).presentation.matrix
    assert all(is_cycle for _, is_cycle in _components(matrix.sparse))
    assert tuple(result["recurrence"]) == char_poly_reciprocal(matrix).coefficients
    assert elapsed < 30
    assert peak_kib < 200 * 1024


@pytest.mark.slow
def test_trefoil_s5_repshift_refused_before_dense_matrix(tmp_path):
    returncode, stdout, stderr, peak_kib = run_measured_cli(
        tmp_path, "repshift", {"hnn": {"preset": "trefoil"}, "group": "S5"}
    )
    assert (returncode, stdout) == (3, "")
    assert stderr.startswith("budget exhausted: the representation shift has 14400 states,")
    assert stderr.count("\n") == 1 and "tqft and bundle-counts" in stderr
    # refused once the states are counted, before the dense state matrix of
    # about 207 million entries is formed
    assert peak_kib < 45 * 1024


class TestFlatBundleCounts:
    def test_trivial_group(self):
        shift = build_repshift(fibered_preset("trefoil"), trivial_group())
        assert flat_bundle_counts(shift, 5).counts == (1, 1, 1, 1, 1)

    def test_trefoil_z2(self):
        shift = build_repshift(fibered_preset("trefoil"), cyclic_group(2))
        report = flat_bundle_counts(shift, 12)
        assert report.counts == (1, 1, 4, 1, 1, 4) * 2
        assert recurrence_holds(report.recurrence, report.counts)

    def test_trefoil_s3_first_counts(self):
        shift = build_repshift(fibered_preset("trefoil"), symmetric_group(3))
        report = flat_bundle_counts(shift, 6)
        # branched covers: sphere, lens space of order three, quaternionic space
        assert report.counts[:3] == (1, 2, 4)
        assert recurrence_holds(report.recurrence, report.counts)

    def test_inner_action_divides_sums(self):
        for group in (cyclic_group(2), symmetric_group(3)):
            shift = build_repshift(fibered_preset("figure8"), group)
            report = flat_bundle_counts(shift, 8)
            # one trace row per element of G, averaged over all of G
            assert len(report.element_traces) == group.order
            for n in range(8):
                assert sum(row[n] for row in report.element_traces) == group.order * report.counts[n]


# One call per library entry point that takes a count, a bound or an index;
# each gets the bad value in that argument.
_INTEGER_ARGUMENTS = {
    "burnside_counts m": lambda x: burnside_counts(six_state_action(), x),
    "nonexpansive_witness m": lambda x: nonexpansive_witness(
        six_state_action(), classify_quotient(six_state_action()), x
    ),
    "higher_block n": lambda x: higher_block(SftPresentation(SIX_STATE_A), x),
    "higher_block_action n": lambda x: higher_block_action(six_state_action(), x),
    "enumerate_homs gens": lambda x: enumerate_homs(x, [], cyclic_group(2)),
    "enumerate_homs limit": lambda x: enumerate_homs(1, [], cyclic_group(2), limit=x),
    "build_repshift limit": lambda x: build_repshift(fibered_preset("trefoil"), cyclic_group(2), x),
    "cyclic_group n": lambda x: cyclic_group(x),
    "symmetric_group n": lambda x: symmetric_group(x),
    "dihedral_group n": lambda x: dihedral_group(x),
    "group_from_generators degree": lambda x: group_from_generators(x, []),
    "group_from_generators limit": lambda x: group_from_generators(2, [(1, 0)], x),
    "group_from_generators entry": lambda x: group_from_generators(3, [(1, 0, x)]),
    "enumerate_cycles length": lambda x: enumerate_cycles(SftPresentation(SIX_STATE_A), x, 5),
    "enumerate_cycles cap": lambda x: enumerate_cycles(SftPresentation(SIX_STATE_A), 2, x),
    "fixed_submatrix g": lambda x: fixed_submatrix(six_state_action(), x),
    "HnnData b_gens": lambda x: HnnData(
        b_gens=x, b_relators=(), u_gens=(), u_relators=(), v_gens=(), v_relators=(), phi_images=()
    ),
}


@pytest.mark.parametrize("bad", [2.0, True])
@pytest.mark.parametrize("call", list(_INTEGER_ARGUMENTS), ids=str)
def test_integer_arguments_reject_floats_and_bools(call, bad):
    with pytest.raises(InputError, match="must be an exact integer"):
        _INTEGER_ARGUMENTS[call](bad)


def _witness_at(g):
    """The witness construction for the order-two swap with element g in
    place of the classified one."""
    act = three_state_action()
    _, cycle = classify_quotient(act).witness
    return nonexpansive_witness(act, QuotientClassification((g, cycle)), 1)


def _trivial_action(rows):
    """The trivial group acting on the presentation of ``rows``."""
    matrix = IntMatrix(rows)
    return PermutationAction(SftPresentation(matrix), group_from_generators(matrix.dim, []))


_LOOP = SftPresentation(IntMatrix(((1,),)))
_FULL = SftPresentation(FULL_TWO_SHIFT)
_ONE_JOB = '{"command": "invariants", "input": {"matrix": [[1]]}}'

# What an entry point refuses, with the error family and the exact line it
# is refused with: integers out of range, empty or misshapen data, maps that
# are not what a construction needs, a certificate between other matrices
# than the actions'.  Each is the library's own refusal, never an exception
# from inside it; the family sets the CLI's exit code.
_OUT_OF_RANGE = {
    "group_from_generators degree -1": (
        InputError, "degree must be nonnegative", lambda: group_from_generators(-1, [])
    ),
    "nonexpansive_witness element 5 of 2": (
        InputError, "witness element 5 is not a non-identity element of the group", lambda: _witness_at(5)
    ),
    "nonexpansive_witness identity element": (
        InputError, "witness element 0 is not a non-identity element of the group", lambda: _witness_at(0)
    ),
    "transport_certificate other endpoints": (
        InputError,
        "certificate endpoints do not match the action matrices",
        lambda: transport_certificate(
            identity_certificate(SIX_STATE_A), three_state_action(), three_state_action()
        ),
    ),
    "out_split empty block": (
        InputError, "state 1 has an empty partition block", lambda: out_split(three_state_action(), (((),),) * 3)
    ),
    "OneBlockCode partial edge map": (
        PreconditionError, "edge map must be total on the source edge alphabet", lambda: OneBlockCode(_LOOP, _LOOP, {})
    ),
    "OneBlockCode image not an edge": (
        PreconditionError,
        "image (0, 0, 1) of edge (0, 0, 0) is not a target edge",
        lambda: OneBlockCode(_LOOP, _LOOP, {(0, 0, 0): (0, 0, 1)}),
    ),
    "OneBlockCode no state map": (
        PreconditionError,
        "edge map does not induce a state map (state 0 goes to both 0 and 1)",
        lambda: OneBlockCode(_FULL, _FULL, {e: (0, 0, 0) if e[:2] == (0, 0) else (1, 1, 0) for e in _FULL.edges}),
    ),
    "factor_square state map too short": (
        InputError,
        "state map must send every source state to a target state",
        lambda: factor_square(three_state_action(), three_state_action(), (0,)),
    ),
    "factor_square not a graph homomorphism": (
        PreconditionError,
        "state map is not a graph homomorphism: edge (1,1) has no image",
        lambda: factor_square(_trivial_action(((1, 1), (1, 1))), _trivial_action(((1, 1), (1, 0))), (1, 1)),
    ),
    "factor_square not onto": (
        PreconditionError,
        "state map is not onto the target states",
        lambda: factor_square(_trivial_action(((1,),)), _trivial_action(((1, 1), (1, 1))), (0,)),
    ),
    "factor_square orbit edges not bijective": (
        PreconditionError,
        "edges from state 1 into orbit 1 do not biject with their images",
        lambda: factor_square(_trivial_action(((0, 1), (1, 0))), _trivial_action(((1,),)), (0, 0)),
    ),
    "ElementarySse S of the wrong shape": (
        InputError,
        "S must be 6x6, got 2x2",
        lambda: ElementarySse(a=SIX_STATE_A, b=SIX_STATE_A, r=SIX_STATE_A, s=FULL_TWO_SHIFT),
    ),
    "SseChain no links": (InputError, "a chain needs at least one link", lambda: SseChain(())),
    "TwoBlockConjugacy one edge": (
        InputError,
        "need at least two edges to apply a two-block map",
        lambda: TwoBlockConjugacy(_LOOP, _LOOP, {}, {}).apply_forward(((0, 0, 0),)),
    ),
    "higher_block n 1": (InputError, "block length must be at least 2", lambda: higher_block(_FULL, 1)),
    "higher_block_action n 1": (
        InputError, "block length must be at least 2", lambda: higher_block_action(swapped_two_shift(), 1)
    ),
    "enumerate_cycles length 0": (InputError, "cycle length must be at least 1", lambda: enumerate_cycles(_FULL, 0, 5)),
    "enumerate_cycles cap 0": (InputError, "cap must be at least 1", lambda: enumerate_cycles(_FULL, 2, 0)),
    "CycleWord no edges": (InputError, "a cycle needs at least one edge", lambda: CycleWord(())),
    "FiniteGroupTable no names": (InputError, "a group needs at least the identity", lambda: FiniteGroupTable((), ())),
    "FiniteGroupTable repeated names": (
        InputError, "element names must be pairwise distinct", lambda: FiniteGroupTable(("e", "e"), ((0, 1), (1, 0)))
    ),
    "FiniteGroupTable non-square table": (
        InputError,
        "multiplication table must be square of the group order",
        lambda: FiniteGroupTable(("e", "a"), ((0, 1),)),
    ),
    "FiniteGroupTable no identity": (
        InputError, "multiplication table has no identity element", lambda: FiniteGroupTable(("a", "b"), ((1, 1),) * 2)
    ),
    "enumerate_homs gens -1": (
        InputError, "generator count must be nonnegative", lambda: enumerate_homs(-1, [], cyclic_group(2))
    ),
    "HnnData b_gens -1": (
        InputError,
        "generator count must be nonnegative",
        lambda: HnnData(b_gens=-1, b_relators=(), u_gens=(), u_relators=(), v_gens=(), v_relators=(), phi_images=()),
    ),
    "HnnData missing amalgamating image": (
        InputError,
        "need exactly one amalgamating image per U generator",
        lambda: HnnData(
            b_gens=1, b_relators=(), u_gens=(((0, 1),),), u_relators=(), v_gens=(((0, 1),),), v_relators=(),
            phi_images=(),
        ),
    ),
    "paired_groups degree -1": (InputError, "degree must be nonnegative", lambda: paired_groups([], [], -1, 0)),
    "PermutationAction degree mismatch": (
        InputError,
        "group degree 3 does not match state count 6",
        lambda: PermutationAction(SftPresentation(SIX_STATE_A), group_from_generators(3, [])),
    ),
    "IntMatrix label count": (
        InputError, "label count does not match matrix dimension", lambda: IntMatrix(((1,),), labels=("a", "b"))
    ),
    "AbelianGroupInvariants free rank -1": (
        InputError, "free rank must be nonnegative", lambda: AbelianGroupInvariants((), -1)
    ),
    "poly_lcm no polynomials": (InputError, "poly_lcm needs at least one polynomial", lambda: poly_lcm([])),
    "burnside_counts m 0": (InputError, "need at least one count", lambda: burnside_counts(three_state_action(), 0)),
    "point_windows m 0": (
        InputError, "block radius m must be at least 1", lambda: _witness_at(1)[0].point_windows(0)
    ),
    "nonexpansive_witness reducible presentation": (
        PreconditionError,
        "witness construction needs an irreducible presentation",
        lambda: nonexpansive_witness(reducible_action(), QuotientClassification((1, CycleWord(((0, 0, 0),)))), 1),
    ),
    "emit_report format yaml": (
        InputError, "unknown output format 'yaml'", lambda: emit_report(run_job(parse_job(_ONE_JOB)), "yaml")
    ),
}


@pytest.mark.parametrize("call", list(_OUT_OF_RANGE), ids=str)
def test_out_of_range_arguments_raise_input_errors(call):
    family, line, make = _OUT_OF_RANGE[call]
    with pytest.raises(SftactError, match=f"^{re.escape(line)}$") as raised:
        make()
    assert type(raised.value) is family
