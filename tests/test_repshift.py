"""Representation shifts, hom enumeration, presets, transfer matrices."""

import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from sftact import (
    FiniteGroupTable,
    HnnData,
    InputError,
    IntPolynomial,
    LimitExceededError,
    PreconditionError,
    bowen_franks,
    build_repshift,
    char_poly_reciprocal,
    cyclic_group,
    dihedral_group,
    enumerate_homs,
    evaluate_word,
    fibered_preset,
    flat_bundle_counts,
    higher_block_action,
    preset_alexander_polynomial,
    quaternion_group,
    recurrence_holds,
    right_reduce,
    symmetric_group,
    tqft_matrix,
    trace_of_power,
    trace_sequence,
    trivial_group,
)
from sftact.repshift import check_word

from helpers import (
    PLAIN_MONODROMIES,
    brute_is_group,
    permutation_dihedral_table,
    plain_monodromy_fixed_counts,
    z48_with_swapped_products,
)


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

    @pytest.mark.parametrize("entry", [1.0, 1.7, True, "1"])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(InputError, match="element indices"):
            FiniteGroupTable(names=("e", "g"), table=((0, entry), (1, 0)))


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
    def test_trefoil_alexander(self):
        assert preset_alexander_polynomial("trefoil") == IntPolynomial((1, -1, 1))
        fibered_preset("trefoil")

    def test_figure8_alexander(self):
        assert preset_alexander_polynomial("figure8") == IntPolynomial((1, -3, 1))
        fibered_preset("figure8")

    def test_unknown_preset(self):
        with pytest.raises(InputError):
            fibered_preset("granny")


class TestBuildRepshift:
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

    def test_conjugation_action_installed(self):
        shift = build_repshift(fibered_preset("trefoil"), symmetric_group(3))
        assert shift.presentation.num_states == 36
        assert shift.action.group.order == 6

    def test_abelian_group_conjugation_trivial(self):
        shift = build_repshift(fibered_preset("trefoil"), cyclic_group(5))
        assert shift.action.group.order == 1

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


class TestTqftMatrix:
    def test_trivial_group(self):
        shift = build_repshift(fibered_preset("trefoil"), trivial_group())
        assert tqft_matrix(shift).reduced.matrix.entries == ((1,),)

    def test_state_matrix_never_made_dense(self):
        shift = build_repshift(fibered_preset("trefoil"), symmetric_group(3))
        tqft_matrix(shift)
        flat_bundle_counts(shift, 6)
        assert "entries" not in vars(shift.presentation.matrix)

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
        block_act, _, _ = higher_block_action(shift.action, 2)
        original = tqft_matrix(shift).reduced.matrix
        recoded = right_reduce(block_act).matrix
        assert char_poly_reciprocal(original) == char_poly_reciprocal(recoded)
        assert bowen_franks(original) == bowen_franks(recoded)


@pytest.mark.slow
def test_trefoil_s5_tqft_end_to_end(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "tqft", "input": {"hnn": {"preset": "trefoil"}, "group": "S5"}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sftact.cli", "tqft", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert len(result["basis"]) == len(result["matrix"]["entries"]) == 161
    assert elapsed < 10
    # the largest child so far, in KiB on Linux
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 200 * 1024


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
            order = shift.action.group.order
            for n in range(8):
                assert sum(row[n] for row in report.element_traces) % order == 0
