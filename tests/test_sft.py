"""Presentations: trimming, irreducibility, higher blocks, cycle enumeration."""

import random

import pytest

from sftact import (
    CapExceededError,
    CycleWord,
    InputError,
    IntMatrix,
    PreconditionError,
    SftPresentation,
    enumerate_cycles,
    higher_block,
    is_irreducible,
    shortest_path,
    trace_of_power,
    trim_essential,
)

from helpers import GOLDEN_MEAN, SIX_STATE_A, all_pairs_higher_block, all_paths, networkx_digraph


def random_matrix(rng, max_states=5):
    n = rng.randint(1, max_states)
    return IntMatrix(
        tuple(tuple(1 if rng.random() < 0.45 else 0 for _ in range(n)) for _ in range(n))
    )


class TestTrimEssential:
    def test_already_essential(self):
        p, kept = trim_essential(IntMatrix(((1, 1), (1, 1))))
        assert kept == (0, 1)
        assert p.matrix.entries == ((1, 1), (1, 1))

    def test_drops_source_only_state(self):
        p, kept = trim_essential(IntMatrix(((0, 1), (0, 1))))
        assert kept == (1,)
        assert p.matrix.entries == ((1,),)

    def test_empty_output(self):
        p, kept = trim_essential(IntMatrix(((0,),)))
        assert p.is_empty and kept == ()

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(40):
            m = random_matrix(rng)
            p, _ = trim_essential(m)
            if p.is_empty:
                continue
            again, kept = trim_essential(p.matrix)
            assert again.matrix.entries == p.matrix.entries
            assert kept == tuple(range(p.num_states))

    def test_against_networkx(self):
        # a state survives when it is reached from a cycle and reaches one
        nx = pytest.importorskip("networkx")
        rng = random.Random(43)
        for _ in range(60):
            m = random_matrix(rng, max_states=9)
            graph = networkx_digraph(nx, m)
            cyclic = {s for c in nx.strongly_connected_components(graph) for s in c
                      if len(c) > 1 or graph.has_edge(s, s)}
            expected = tuple(
                s for s in range(m.dim)
                if cyclic & (nx.ancestors(graph, s) | {s}) and cyclic & (nx.descendants(graph, s) | {s})
            )
            p, kept = trim_essential(m)
            assert kept == expected
            if kept:
                assert p.matrix.entries == tuple(tuple(m.entries[i][j] for j in kept) for i in kept)
            else:
                assert p.is_empty

    def test_presentation_requires_essential(self):
        with pytest.raises(PreconditionError):
            SftPresentation(IntMatrix(((0, 1), (0, 1))))


class TestIrreducible:
    def test_full_shift(self):
        assert is_irreducible(SftPresentation(IntMatrix(((1, 1), (1, 1)))))

    def test_reducible_pair(self):
        p, _ = trim_essential(IntMatrix(((1, 1), (0, 1))))
        assert not is_irreducible(p)

    def test_six_state_fixture(self):
        assert is_irreducible(SftPresentation(SIX_STATE_A))

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            is_irreducible(SftPresentation.empty())

    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(47)
        for _ in range(60):
            p, _ = trim_essential(random_matrix(rng, max_states=9))
            if p.is_empty:
                continue
            assert is_irreducible(p) == nx.is_strongly_connected(networkx_digraph(nx, p.matrix))


class TestPathTypes:
    def test_cycle_requires_closure(self):
        with pytest.raises(InputError):
            CycleWord(((0, 1, 0),))


class TestHigherBlock:
    def test_full_shift_two_blocks(self):
        p = SftPresentation(IntMatrix(((1, 1), (1, 1))))
        hb, blocks = higher_block(p, 2)
        assert hb.num_states == 4
        assert sorted(blocks.values()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for k, b in blocks.items():
            for k2, b2 in blocks.items():
                assert hb.matrix.entries[k][k2] == (1 if b[1] == b2[0] else 0)

    def test_golden_mean_two_blocks(self):
        p = SftPresentation(GOLDEN_MEAN)
        hb, blocks = higher_block(p, 2)
        assert list(blocks.values()) == [(0, 0), (0, 1), (1, 0)]
        assert hb.matrix.entries == ((1, 1, 0), (0, 0, 1), (1, 1, 0))

    def test_preserves_periodic_counts(self):
        rng = random.Random(5)
        done = 0
        while done < 12:
            m = random_matrix(rng, max_states=4)
            p, _ = trim_essential(m)
            if p.is_empty:
                continue
            hb, _ = higher_block(p, rng.choice((2, 3)))
            for n in range(1, 6):
                assert trace_of_power(hb.matrix, n) == trace_of_power(p.matrix, n)
            done += 1

    def test_window_bijection_on_length_eight_paths(self):
        p = SftPresentation(GOLDEN_MEAN)
        for n in (2, 3):
            hb, blocks = higher_block(p, n)
            block_index = {b: k for k, b in blocks.items()}
            images = set()
            for path in all_paths(p, 8):
                states = (path[0][0],) + tuple(e[1] for e in path)
                word = tuple(
                    block_index[states[k : k + n]] for k in range(len(states) - n + 1)
                )
                for b, b2 in zip(word, word[1:]):
                    assert hb.matrix.entries[b][b2] == 1
                assert word not in images
                images.add(word)
            assert images == {
                (path[0][0],) + tuple(e[1] for e in path)
                for path in all_paths(hb, 8 - n + 1)
            }

    def test_blocks_in_lexicographic_order(self):
        rng = random.Random(17)
        done = 0
        while done < 30:
            p, _ = trim_essential(random_matrix(rng, max_states=5))
            if p.is_empty:
                continue
            n = rng.choice((2, 3, 4))
            entries, words = all_pairs_higher_block(p, n)
            hb, blocks = higher_block(p, n)
            assert list(blocks.values()) == words
            assert hb.matrix.entries == entries
            assert hb.matrix.labels == tuple(".".join(p.label(s) for s in w) for w in words)
            done += 1

    def test_rejects_multiplicities(self):
        p, _ = trim_essential(IntMatrix(((2,),)))
        with pytest.raises(PreconditionError):
            higher_block(p, 2)


class TestEnumerateCycles:
    def test_full_two_shift_squares(self):
        p, _ = trim_essential(IntMatrix(((2,),)))
        assert len(enumerate_cycles(p, 2, 100)) == 4

    def test_golden_mean_cubes(self):
        p = SftPresentation(GOLDEN_MEAN)
        words = enumerate_cycles(p, 3, 100)
        assert len(words) == 4 == trace_of_power(GOLDEN_MEAN, 3)

    def test_cap_enforcement(self):
        p = SftPresentation(GOLDEN_MEAN)
        with pytest.raises(CapExceededError):
            enumerate_cycles(p, 3, 2)

    def test_counts_match_traces(self):
        rng = random.Random(9)
        done = 0
        while done < 20:
            m = random_matrix(rng)
            p, _ = trim_essential(m)
            if p.is_empty:
                continue
            for n in range(1, 7):
                words = enumerate_cycles(p, n, 100000)
                assert len(words) == trace_of_power(p.matrix, n)
                assert len(set(w.edges for w in words)) == len(words)
                assert words == sorted(words, key=lambda w: w.edges)
            done += 1

    def test_long_cycles_without_recursion(self):
        p = SftPresentation(IntMatrix(((0, 1), (1, 0))))
        words = enumerate_cycles(p, 2000, 10)
        assert [w.states[:3] for w in words] == [(0, 1, 0), (1, 0, 1)]
        assert all(len(w) == 2000 for w in words)

    def test_phases_are_distinct_points(self):
        p, _ = trim_essential(IntMatrix(((2,),)))
        words = enumerate_cycles(p, 2, 100)
        canonical = {min(w.edges[k:] + w.edges[:k] for k in range(len(w))) for w in words}
        assert len(words) == 4 and len(canonical) == 3


class TestShortestPath:
    def test_trivial(self):
        p = SftPresentation(GOLDEN_MEAN)
        assert shortest_path(p, 0, 0) == ()

    def test_two_step(self):
        p = SftPresentation(GOLDEN_MEAN)
        path = shortest_path(p, 1, 1)
        assert path == ()
        hop = shortest_path(p, 1, 0)
        assert hop == ((1, 0, 0),)

    def test_unreachable(self):
        p, _ = trim_essential(IntMatrix(((1, 1), (0, 1))))
        assert shortest_path(p, 1, 0) is None
