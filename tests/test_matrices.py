"""Exact matrix and polynomial algebra, checked against independent oracles."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from sftact import (
    AbelianGroupInvariants,
    InputError,
    IntMatrix,
    IntPolynomial,
    bowen_franks,
    build_repshift,
    char_poly_reciprocal,
    fibered_preset,
    fixed_submatrix,
    flat_bundle_counts,
    mat_mul,
    poly_lcm,
    smith_normal_form,
    symmetric_group,
    trace_of_power,
    trace_sequence,
)

from helpers import (
    SIX_STATE_A,
    conjugation_action,
    dense_trace_of_power,
    fraction_divides,
    fraction_poly_lcm,
    networkx_digraph,
    primitive_form,
    scalar_char_poly_reciprocal,
    scalar_trace_sequence,
    six_state_action,
)
from sftact.matrices import _components, _pseudo_divide
from sftact.reduce import right_reduce


def brute_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = perm[i]
            length = 1
            seen[i] = True
            while j != i:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def mixed_matrix(rng, max_states=10):
    """Random block-triangular matrix under a random relabelling of states.

    The diagonal blocks are simple cycles, cycles with one edge of weight
    2, weighted self-loops, acyclic states, nilpotent blocks and dense
    blocks; random edges run only from earlier blocks to later ones, so
    the blocks that carry a cycle are the strongly connected components.
    """
    n = rng.randint(1, max_states)
    order = rng.sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    blocks = []
    while sum(map(len, blocks)) < n:
        start = sum(map(len, blocks))
        block = order[start:start + rng.randint(1, min(4, n - start))]
        kind = rng.choice(("cycle", "heavy cycle", "loops", "acyclic", "nilpotent", "dense"))
        if kind in ("cycle", "heavy cycle"):
            for k, s in enumerate(block):
                rows[s][block[(k + 1) % len(block)]] = 1
            if kind == "heavy cycle":
                rows[block[-1]][block[0]] = 2
        elif kind == "loops":
            for s in block:
                rows[s][s] = rng.randint(1, 3)
        elif kind == "nilpotent":
            for a, s in enumerate(block):
                for t in block[a + 1:]:
                    rows[s][t] = rng.randint(0, 2)
        elif kind == "dense":
            for s in block:
                for t in block:
                    rows[s][t] = rng.choice((0, 1, 1, 2))
        blocks.append(block)
    for a, earlier in enumerate(blocks):
        for later in blocks[a + 1:]:
            for s in earlier:
                for t in later:
                    if rng.random() < 0.2:
                        rows[s][t] = rng.randint(1, 2)
    return IntMatrix(tuple(tuple(r) for r in rows))


def all_ones(n):
    return IntMatrix(((1,) * n,) * n)


def heavy_column(rng, n):
    """A random 0-1 matrix whose one column holds entries near 10^6 in every row."""
    heavy = rng.randrange(n)
    return IntMatrix(tuple(
        tuple(rng.randint(10**5, 10**6) if j == heavy else int(rng.random() < 0.4) for j in range(n))
        for _ in range(n)
    ))


def slot_bound_matrices(rng):
    """Matrices at the edges of the packed kernels' slot bounds: entries up
    to 10^6, one heavy column, nilpotent matrices (strictly upper
    triangular, and the same under a relabelling of states) and all-ones
    matrices up to n = 40."""
    out = []
    for _ in range(8):
        n = rng.randint(1, 10)
        out.append(IntMatrix(tuple(
            tuple(rng.choice((0, rng.randint(1, 10**6))) for _ in range(n)) for _ in range(n)
        )))
        out.append(heavy_column(rng, rng.randint(1, 12)))
        n = rng.randint(1, 12)
        upper = [[rng.randint(0, 3) if j > i else 0 for j in range(n)] for i in range(n)]
        out.append(IntMatrix(tuple(map(tuple, upper))))
        relabel = rng.sample(range(n), n)
        out.append(IntMatrix(tuple(tuple(upper[relabel[i]][relabel[j]] for j in range(n)) for i in range(n))))
    out += [all_ones(n) for n in (1, 2, 3, 7, 16, 40)]
    # Hadamard's bound attained: a cycle of n states whose edges all weigh
    # r >= n has orthogonal rows of norm r, and the last step's slots hold
    # r^n, the largest of the bound's e_k
    for n in (2, 3, 5, 8):
        r = rng.randint(n, 10**3)
        out.append(IntMatrix(tuple(tuple(r if j == (i + 1) % n else 0 for j in range(n)) for i in range(n))))
    return out


def repeated_cycles(rng, dense):
    """A permutation matrix with two to four cycles of each of one or two
    lengths, and beside it, when ``dense``, a dense block that a cycle
    state reaches by one edge, all under a random relabelling of states.
    Returns the matrix and the largest L k over the lengths L, each with
    k cycles."""
    counts = {length: rng.randint(2, 4) for length in rng.sample(range(1, 5), rng.randint(1, 2))}
    lengths = [length for length, k in counts.items() for _ in range(k)]
    n = sum(lengths) + (rng.randint(1, 4) if dense else 0)
    order = rng.sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for length in lengths:
        cycle = order[start:start + length]
        for k, s in enumerate(cycle):
            rows[s][cycle[(k + 1) % length]] = 1
        start += length
    block = order[start:]
    for s in block:
        for t in block:
            rows[s][t] = rng.choice((0, 1, 1, 2))
    if block:
        rows[order[0]][block[0]] = 1
    return IntMatrix(tuple(map(tuple, rows))), max(length * k for length, k in counts.items())


def sparse_test_rows(rng, rows, cols):
    """Random dense rows with at least one zero row and one zero column."""
    out = [[rng.choice((0, 0, 1, 2)) for _ in range(cols)] for _ in range(rows)]
    out[rng.randrange(rows)] = [0] * cols
    zero_col = rng.randrange(cols)
    for row in out:
        row[zero_col] = 0
    return out


class TestTypes:
    def test_int_matrix_rejects_negative(self):
        with pytest.raises(InputError):
            IntMatrix(((1, -1), (0, 1)))

    def test_int_matrix_rejects_ragged(self):
        with pytest.raises(InputError):
            IntMatrix(((1, 1), (0,)))

    def test_int_matrix_rejects_duplicate_labels(self):
        with pytest.raises(InputError):
            IntMatrix(((1, 1), (1, 1)), labels=("a", "a"))

    def test_int_matrix_any_shape(self):
        m = IntMatrix(((1, 0, 2),))
        assert (m.rows, m.cols) == (1, 3)
        assert m.transpose().entries == ((1,), (0,), (2,))
        with pytest.raises(InputError, match="matrix must be square, got 1x3"):
            m.dim
        with pytest.raises(InputError, match="nonnegative"):
            IntMatrix(((1, -1),))

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, "1", None])
    def test_int_matrix_rejects_non_integers(self, bad):
        with pytest.raises(InputError, match="must be an exact integer"):
            IntMatrix(((1, 0), (bad, 1)))

    def test_int_matrix_rejects_empty(self):
        for empty in ((), ((),)):
            with pytest.raises(InputError, match="at least one row and one column"):
                IntMatrix(empty)

    def test_sparse_rows(self):
        m = IntMatrix(((0, 2, 0), (0, 0, 0), (1, 0, 3)))
        assert m.sparse == (((1, 2),), (), ((0, 1), (2, 3)))
        assert m.sparse is m.sparse
        assert m.transpose().sparse == (((2, 1),), ((0, 2),), ((2, 3),))

    def test_sparse_and_dense_construction_agree(self):
        rng = random.Random(23)
        shapes = set()
        for _ in range(80):
            rows, cols, inner = (rng.randint(1, 6) for _ in range(3))
            dense = sparse_test_rows(rng, rows, cols)
            sparse = [[(j, x) for j, x in enumerate(row) if x] for row in dense]
            labels = [f"s{i}" for i in range(rows)]
            a, b = IntMatrix(dense, labels), IntMatrix.from_sparse(sparse, cols, labels)
            assert a == b and hash(a) == hash(b)
            assert b.entries == a.entries == tuple(map(tuple, dense))
            assert b.sparse == a.sparse == tuple(map(tuple, sparse))
            assert IntMatrix(dense).transpose() == IntMatrix.from_sparse(sparse, cols).transpose()
            assert IntMatrix.from_sparse(sparse, cols).transpose().entries == tuple(zip(*dense))
            other = sparse_test_rows(rng, cols, inner)
            product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*other)] for row in dense]
            assert mat_mul(b, IntMatrix(other)) == mat_mul(a, IntMatrix(other)) == IntMatrix(product)
            shapes.add(rows == cols)
        assert shapes == {True, False}

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([((2, 1),), ()], "strictly increase within 0..1"),
            ([((-1, 1),), ()], "strictly increase within 0..1"),
            ([((1, 1), (0, 1)), ()], "strictly increase within 0..1"),
            ([(), ((0, 1), (0, 2))], "strictly increase within 0..1"),
            ([((0, 0),), ()], "must be positive"),
            ([((0, -1),), ()], "must be positive"),
            ([((0, True),), ()], "must be an exact integer"),
            ([((0, 1.0),), ()], "must be an exact integer"),
            ([((1.0, 1),), ()], "must be an exact integer"),
            ([], "at least one row and one column"),
        ],
        ids=["past-last", "negative-column", "unsorted", "duplicate", "zero",
             "negative", "bool", "float", "float-column", "no-rows"],
    )
    def test_from_sparse_rejects_bad_rows(self, rows, message):
        with pytest.raises(InputError, match=message):
            IntMatrix.from_sparse(rows, 2)

    def test_is_zero_one(self):
        assert IntMatrix(((0, 1, 1),)).is_zero_one()
        assert IntMatrix(((0,),)).is_zero_one()
        assert not IntMatrix(((0, 1), (2, 0))).is_zero_one()

    @pytest.mark.parametrize(
        "fn",
        [lambda m: trace_sequence(m, 3), char_poly_reciprocal, bowen_franks],
        ids=["trace_sequence", "char_poly_reciprocal", "bowen_franks"],
    )
    def test_state_functions_reject_rectangular(self, fn):
        with pytest.raises(InputError, match="matrix must be square, got 1x2"):
            fn(IntMatrix(((1, 1),)))

    def test_polynomial_trims_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert IntPolynomial(()).is_zero()
        assert IntPolynomial((0, 0)).is_zero()

    def test_polynomial_rejects_floats(self):
        with pytest.raises(InputError):
            IntPolynomial((1.0, 2))

    def test_invariants_divisibility_chain(self):
        with pytest.raises(InputError):
            AbelianGroupInvariants(torsion=(2, 3), free_rank=0)
        with pytest.raises(InputError):
            AbelianGroupInvariants(torsion=(1,), free_rank=0)


class TestMatMul:
    def test_identity(self):
        m = IntMatrix(((1, 2), (3, 4)))
        ident = IntMatrix(((1, 0), (0, 1)))
        assert mat_mul(ident, m).entries == m.entries

    def test_row_times_column(self):
        assert mat_mul(IntMatrix(((1, 1),)), IntMatrix(((1,), (1,)))).entries == ((2,),)

    def test_rectangular_factors(self):
        product = mat_mul(IntMatrix(((1, 2, 0),)), IntMatrix(((3,), (1,), (7,))))
        assert product == IntMatrix(((5,),))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            mat_mul(IntMatrix(((1, 1),)), IntMatrix(((1, 1),)))

    def test_selector_product_reproduces_reduction(self):
        reduced = right_reduce(six_state_action())
        product = mat_mul(
            mat_mul(reduced.u_selector, SIX_STATE_A), reduced.v_selector
        )
        assert product.entries == ((1, 2), (2, 1))


class TestTracePower:
    def test_full_two_shift(self):
        assert trace_of_power(IntMatrix(((2,),)), 3) == 8

    def test_golden_mean_fifth_power(self):
        # frozen from five exact squarings/multiplications by hand
        assert trace_of_power(IntMatrix(((1, 1), (1, 0))), 5) == 11

    def test_diagonal_sum(self):
        m = IntMatrix(((1, 3, 2), (1, 3, 2), (1, 3, 2)))
        assert trace_of_power(m, 1) == 6

    def test_against_naive_powers(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = IntMatrix(tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n)))
            for power in (1, 2, 3, 5, 8):
                assert trace_of_power(m, power) == dense_trace_of_power(m, power)

    def test_rejects_zero_power(self):
        with pytest.raises(InputError):
            trace_of_power(IntMatrix(((1,),)), 0)


class TestTraceSequence:
    def test_against_dense_powers(self):
        rng = random.Random(31)
        for _ in range(120):
            m = mixed_matrix(rng)
            # lengths below and above the dimension
            for length in (rng.randint(1, m.dim), m.dim + rng.randint(1, 6)):
                expected = [dense_trace_of_power(m, n) for n in range(1, length + 1)]
                assert trace_sequence(m, length) == expected

    def test_slot_bound_matrices(self):
        rng = random.Random(41)
        for m in slot_bound_matrices(rng):
            expected = scalar_trace_sequence(m, 12)
            # fewer traces than states stop the recursion early, with a narrower slot
            for length in (1, 2, 3, 12):
                assert trace_sequence(m, length) == expected[:length]

    def test_forty_powers(self):
        # entries of A^40 reach 40^39 (all ones) and exceed 10^200 (a heavy column)
        rng = random.Random(43)
        for m in (all_ones(1), all_ones(12), all_ones(40), heavy_column(rng, 8), heavy_column(rng, 20)):
            traces = trace_sequence(m, 40)
            assert traces == scalar_trace_sequence(m, 40)
            assert traces[-1] == dense_trace_of_power(m, 40)
        # far more powers than states: Newton's identities carry the traces past the factor's degree
        for n in (1, 2, 5, 12):
            m = IntMatrix(tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)))
            assert trace_sequence(m, 300) == scalar_trace_sequence(m, 300)

    def test_permutation_cycles(self):
        # cycles of lengths 1, 2 and 3 on six states
        m = IntMatrix(tuple(
            tuple(int(j == image) for j in range(6)) for image in (0, 2, 1, 4, 5, 3)
        ))
        assert trace_sequence(m, 7) == [1, 3, 4, 3, 1, 6, 1]
        # several cycles of one length, alone and beside a dense block
        rng = random.Random(47)
        for dense in (False, True) * 8:
            m, top = repeated_cycles(rng, dense)
            for length in (rng.randint(1, top - 1), top + rng.randint(1, 6)):
                assert trace_sequence(m, length) == [dense_trace_of_power(m, n) for n in range(1, length + 1)]

    def test_zero_length(self):
        assert trace_sequence(IntMatrix(((1, 1), (1, 0))), 0) == []

    def test_rejects_bad_length(self):
        for bad in (-1, True, 2.0):
            with pytest.raises(InputError):
                trace_sequence(IntMatrix(((1,),)), bad)


class TestComponents:
    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(37)
        for _ in range(150):
            if rng.random() < 0.6:
                m = mixed_matrix(rng, max_states=12)
            else:
                k = rng.randint(1, 9)
                m = IntMatrix(tuple(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(k)) for _ in range(k)))
            rows = m.entries
            graph = networkx_digraph(nx, m)
            expected = sorted(sorted(c) for c in nx.strongly_connected_components(graph))
            found = _components(m.sparse)
            assert sorted(states for states, _ in found) == expected
            for states, is_cycle in found:
                # a strongly connected set is one simple cycle exactly when
                # its edges, counted with weight, are as many as its states
                weight = sum(rows[i][j] for i in states for j in states)
                assert is_cycle == (weight == len(states))


class TestCharPolyReciprocal:
    def test_empty_dynamics(self):
        assert char_poly_reciprocal(IntMatrix(((0,),))).coefficients == (1,)

    def test_one_by_one(self):
        assert char_poly_reciprocal(IntMatrix(((2,),))).coefficients == (1, -2)

    def test_golden_mean(self):
        assert char_poly_reciprocal(IntMatrix(((1, 1), (1, 0)))).coefficients == (1, -1, -1)

    def test_against_determinant_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = IntMatrix(tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n)))
            p = char_poly_reciprocal(m)
            for t0 in (-2, -1, 0, 1, 2, 3):
                rows = tuple(
                    tuple((1 if i == j else 0) - t0 * m.entries[i][j] for j in range(n))
                    for i in range(n)
                )
                assert sum(c * t0**k for k, c in enumerate(p.coefficients)) == brute_det(rows)

    def test_against_sympy_charpoly(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)
        cases = []
        for _ in range(30):
            n = rng.randint(1, 12)
            cases.append(IntMatrix(tuple(tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(n)) for _ in range(n))))
        cases += [mixed_matrix(rng, max_states=12) for _ in range(60)]
        cases += slot_bound_matrices(rng)
        cases += [repeated_cycles(rng, dense)[0] for dense in (False, True) * 8]
        for m in cases:
            # det(I - t A) has t^j coefficient equal to the x^(n-j) one of det(x I - A)
            coeffs = sympy.Matrix(m.entries).charpoly().all_coeffs()
            expected = IntPolynomial(tuple(int(c) for c in coeffs))
            assert char_poly_reciprocal(m) == expected
            assert IntPolynomial(scalar_char_poly_reciprocal(m)) == expected

    @pytest.mark.slow
    def test_dense_eighty_against_scalar_recursion(self):
        rng = random.Random(80)
        m = IntMatrix(tuple(tuple(rng.randint(0, 3) for _ in range(80)) for _ in range(80)))
        assert char_poly_reciprocal(m) == IntPolynomial(scalar_char_poly_reciprocal(m))

    def test_zeta_exponential_identity(self):
        # exp(sum trace(a^n) t^n / n) * det(I - t a) = 1 through degree 8
        rng = random.Random(13)
        degree = 8
        for _ in range(10):
            n = rng.randint(1, 4)
            m = IntMatrix(tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n)))
            logs = [Fraction(0)] * (degree + 1)
            for k in range(1, degree + 1):
                logs[k] = Fraction(trace_of_power(m, k), k)
            exp = [Fraction(0)] * (degree + 1)
            exp[0] = Fraction(1)
            # E' = L' E, coefficientwise
            for k in range(1, degree + 1):
                exp[k] = sum(Fraction(j) * logs[j] * exp[k - j] for j in range(1, k + 1)) / k
            det = char_poly_reciprocal(m).coefficients
            prod = [Fraction(0)] * (degree + 1)
            for i, c in enumerate(det):
                for j in range(degree + 1 - i):
                    prod[i + j] += c * exp[j]
            assert prod[0] == 1
            assert all(c == 0 for c in prod[1:])


class TestPolyLcm:
    def test_idempotent(self):
        p = IntPolynomial((1, -1))
        assert poly_lcm([p, p]) == p

    def test_absorbs_factor(self):
        assert poly_lcm([IntPolynomial((1, -1)), IntPolynomial((1, 0, -1))]) == IntPolynomial((1, 0, -1))

    def test_coprime_product(self):
        out = poly_lcm([IntPolynomial((1, -2)), IntPolynomial((1, -1, -1))])
        assert out == IntPolynomial((1, -3, 1, 2))

    def test_divisibility_property(self):
        rng = random.Random(17)
        for _ in range(20):
            ps = []
            for _ in range(rng.randint(1, 3)):
                coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
                if not any(coeffs):
                    coeffs.append(1)
                ps.append(IntPolynomial(tuple(coeffs)))
            out = poly_lcm(ps)
            assert all(fraction_divides(p, out) for p in ps)

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            poly_lcm([IntPolynomial(())])


def _cycle_product(lengths, scale=1):
    """scale * prod (1 - t^L) over ``lengths``."""
    coeffs = [scale]
    for length in lengths:
        shifted = [0] * length + [-x for x in coeffs]
        coeffs = [a + b for a, b in zip(coeffs + [0] * length, shifted)]
    return IntPolynomial(tuple(coeffs))


def _times(p, q):
    out = [0] * (len(p.coefficients) + len(q.coefficients) - 1)
    for i, x in enumerate(p.coefficients):
        for j, y in enumerate(q.coefficients):
            out[i + j] += x * y
    return IntPolynomial(tuple(out))


def _dense_faddeev_factor(rng):
    """det(I - t A) of a random strongly connected matrix with a self-loop
    (so not a single cycle, and Faddeev-LeVerrier computes it)."""
    while True:
        n = rng.randint(2, 4)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        rows[0][0] = max(rows[0][0], 1)
        for i in range(n):  # a Hamiltonian cycle keeps the matrix irreducible
            rows[i][(i + 1) % n] = max(rows[i][(i + 1) % n], 1)
        poly = char_poly_reciprocal(IntMatrix(tuple(map(tuple, rows))))
        if poly.degree >= 1:
            return poly


class TestPolyOracles:
    """poly_lcm and the pseudo-remainder against Euclid over ``Fraction`` and sympy."""

    @staticmethod
    def _check_lcm(ps, sympy):
        out = poly_lcm(ps)
        assert out.coefficients == fraction_poly_lcm(ps)
        assert out.coefficients == primitive_form(out.coefficients)
        assert next(c for c in out.coefficients if c) > 0
        t = sympy.Symbol("t")
        acc = sympy.Poly(list(reversed(ps[0].coefficients)), t, domain="ZZ")
        for p in ps[1:]:
            acc = acc.lcm(sympy.Poly(list(reversed(p.coefficients)), t, domain="ZZ"))
        assert out.coefficients == primitive_form(int(c) for c in reversed(acc.all_coeffs()))
        for p in ps:
            assert fraction_divides(p, out)
        return out

    @staticmethod
    def _check_divides(p, q, sympy):
        """Checks the pseudo-division of q by p against sympy over the
        rationals, and returns its scale s, with s q = quot p + rem."""
        t = sympy.Symbol("t")

        def as_poly(coeffs):
            return sympy.Poly(list(reversed(coeffs)), t, domain="QQ")

        expected = fraction_divides(p, q)
        quot, rem = _pseudo_divide(q.coefficients, p.coefficients)
        assert (not rem) == expected
        assert len(rem) < len(p.coefficients)
        num, den = as_poly(q.coefficients), as_poly(p.coefficients)
        lhs = as_poly(quot) * den + as_poly(rem)
        if q.is_zero():
            assert lhs.is_zero
            return 1
        scale = lhs.LC() / num.LC()
        assert scale.is_integer and scale > 0
        assert lhs == num * scale
        exact_quot, exact_rem = sympy.div(num, den)
        assert exact_rem.is_zero == expected
        if expected:
            assert as_poly(quot) == exact_quot * scale
            if gcd(*p.coefficients) == 1:  # Gauss's lemma: no step scales
                assert scale == 1
        return int(scale)

    def test_cycle_products_with_shared_cyclotomic_factors(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(101)
        scales = set()
        for _ in range(40):
            ps = [
                _cycle_product(
                    [rng.randint(1, 12) for _ in range(rng.randint(1, 4))],
                    scale=rng.choice((1, -1, 2, -3)),
                )
                for _ in range(rng.randint(2, 4))
            ]
            out = self._check_lcm(ps, sympy)
            assert out.coefficients[0] == 1
            for p in ps:
                for q in ps:
                    scales.add(self._check_divides(p, q, sympy))
        assert scales - {1}, "some division takes the scaling branch"

    def test_faddeev_factors_of_random_matrices(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(202)
        leads, scales = set(), set()
        for _ in range(30):
            shared = _dense_faddeev_factor(rng)
            ps = [
                _times(shared, rng.choice((_dense_faddeev_factor(rng), _cycle_product([rng.randint(1, 6)]))))
                for _ in range(rng.randint(2, 3))
            ]
            leads.update(abs(p.coefficients[-1]) for p in ps)
            self._check_lcm(ps, sympy)
            scales.add(self._check_divides(shared, ps[0], sympy))
            scales.add(self._check_divides(ps[0], shared, sympy))
            scales.add(self._check_divides(_dense_faddeev_factor(rng), ps[-1], sympy))
        assert leads - {1}, "some input has a leading coefficient other than +-1"
        assert scales - {1}, "some division takes the scaling branch"

    def test_trefoil_s4_fixed_submatrix_polynomials(self):
        sympy = pytest.importorskip("sympy")
        shift = build_repshift(fibered_preset("trefoil"), symmetric_group(4), 10**6)
        act = conjugation_action(shift)
        ps = list(dict.fromkeys(
            char_poly_reciprocal(fixed_submatrix(act, g)) for g in range(act.group.order)
        ))
        assert max(p.degree for p in ps) == 576
        out = self._check_lcm(ps, sympy)
        assert flat_bundle_counts(shift, 3).recurrence == out


class TestSmithNormalForm:
    def test_two_torsion_pair(self):
        out = smith_normal_form(((0, -2), (-2, 0)))
        assert out.torsion == (2, 2) and out.free_rank == 0

    def test_single_four_torsion(self):
        out = smith_normal_form(((0, -1), (-4, 0)))
        assert out.torsion == (4,) and out.free_rank == 0

    def test_zero_matrix(self):
        out = smith_normal_form(((0, 0), (0, 0)))
        assert out.torsion == () and out.free_rank == 2

    def test_rejects_rectangular(self):
        with pytest.raises(InputError):
            smith_normal_form(((1, 2, 3),))

    def test_signed_rows(self):
        assert smith_normal_form([[-3, 0], [0, -6]]) == AbelianGroupInvariants((3, 6), 0)
        assert smith_normal_form(((-1,),)) == AbelianGroupInvariants((), 0)

    @pytest.mark.parametrize("rows", [((1, 0), (0, 1.0)), ((True, 0), (0, 1)), ((1, 2), (3,)), ()])
    def test_rejects_bad_rows(self, rows):
        with pytest.raises(InputError):
            smith_normal_form(rows)

    def test_coprime_diagonal_needs_the_gcd_lcm_pass(self):
        assert smith_normal_form(((2, 0), (0, 3))) == AbelianGroupInvariants((6,), 0)
        assert smith_normal_form(((4, 0, 0), (0, 6, 0), (0, 0, 0))) == AbelianGroupInvariants((2, 12), 1)
        # the diagonal phase leaves 6, 6, 3, 21: pairs (6, 3) and (6, 21) need
        # gcd/lcm too, not only neighbours
        rows = ((6, 0, 0, 0), (0, 6, 0, 0), (0, 0, 9, 12), (0, 0, 12, 9))
        assert smith_normal_form(rows) == AbelianGroupInvariants((3, 3, 6, 42), 0)

    def test_against_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(43)
        seen = set()
        for k in range(60):
            n = rng.randint(1, 12)
            kind = k % 3
            if kind == 0:  # small signed entries
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            elif kind == 1:  # sparse entries up to 10^6 in absolute value
                rows = [[rng.randint(-10**6, 10**6) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
            else:  # rank at most r: a product of n x r and r x n factors
                r = rng.randint(0, n - 1)
                x = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
                y = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
                rows = [[sum(x[i][m] * y[m][j] for m in range(r)) for j in range(n)] for i in range(n)]
            factors = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
            out = smith_normal_form(rows)
            assert out.torsion == tuple(d for d in factors if d > 1)
            assert out.free_rank == factors.count(0)
            seen.add((kind, bool(out.torsion), out.free_rank > 0))
        assert {(0, True, False), (1, True, False), (2, True, True)} <= seen

    def test_determinant_is_torsion_product(self):
        rng = random.Random(19)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            det = brute_det(rows)
            out = smith_normal_form(rows)
            if out.free_rank == 0:
                prod = 1
                for d in out.torsion:
                    prod *= d
                assert abs(det) == prod
                checked += 1
            else:
                assert det == 0

    def test_invariant_under_unimodular_moves(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            base = smith_normal_form(rows)
            for _ in range(6):
                kind = rng.randrange(3)
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                if kind == 0:
                    for k in range(n):
                        rows[i][k] += c * rows[j][k]
                elif kind == 1:
                    for k in range(n):
                        rows[k][i] += c * rows[k][j]
                else:
                    rows[i], rows[j] = rows[j], rows[i]
            moved = smith_normal_form(rows)
            assert moved == base


class TestBowenFranks:
    def test_six_state_reductions_differ(self):
        act = six_state_action()
        from sftact.reduce import left_reduce

        right = bowen_franks(right_reduce(act).matrix)
        left = bowen_franks(left_reduce(act).matrix)
        assert right.torsion == (2, 2)
        assert left.torsion == (4,)
        assert right != left

    def test_against_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(41)
        cases = []
        for _ in range(40):
            n = rng.randint(1, 7)
            cases.append(IntMatrix(tuple(tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(n))))
        cases += [mixed_matrix(rng, max_states=8) for _ in range(40)]
        seen_torsion = seen_free = False
        for m in cases:
            factors = invariant_factors(sympy.eye(m.dim) - sympy.Matrix(m.entries), domain=sympy.ZZ)
            found = bowen_franks(m)
            assert found.torsion == tuple(abs(int(d)) for d in factors if abs(d) > 1)
            assert found.free_rank == sum(1 for d in factors if d == 0)
            seen_torsion |= bool(found.torsion)
            seen_free |= found.free_rank > 0
        assert seen_torsion and seen_free
