"""Exact integer polynomial algebra and the counting engine on matrices.

Everything here runs on Python's unbounded integers; polynomial gcds use
pseudo-remainders, so no rational or floating-point number is formed
anywhere in the package.

The matrix type, ``IntMatrix``, and its product ``mat_mul`` live in
``intmatrix``, which ``sftact`` exports them from and which a job that
counts nothing compiles alone; ``matrices.mat_mul`` still names the product.
This module holds integer polynomials with the constant term first
(``IntPolynomial``, used for reciprocal characteristic polynomials and
linear recurrences), the invariant factors of an integer matrix cokernel
(``AbelianGroupInvariants``, used for Bowen-Franks groups), and the
operations that count.

Every periodic-point count goes through one engine, ``_zeta``, which
walks the strongly connected components of a matrix once: det(I - t A)
is the product of the factors of the components and trace(A^n) the sum
of their traces.  k components that are single cycles of length L give
(1 - t^L)^k and kL points of every period divisible by L.  Any other
component runs the Faddeev-LeVerrier recursion on packed matrices: a
packed matrix is one Python integer per column, each entry in a bit slot
of fixed width, so a product costs one big-integer addition per nonzero
entry of the submatrix rather than n scalar multiply-adds
(``_times_packed``).  Its traces follow from its factor by Newton's
identities, so a call that wants m traces runs at most m steps.  The
slot width comes from one a priori bound, Hadamard's inequality on
minors, proved where it is used.
"""

from __future__ import annotations

from collections import deque
from math import gcd, inf, isqrt
from operator import mul, sub

from .errors import InputError, InternalError
from .records import record
# mat_mul is imported back because perfbench/spans.py times it as matrices.mat_mul
from .intmatrix import IntMatrix, _check_int, _check_rows, _components, _principal_rows, mat_mul


@record
class IntPolynomial:
    """Integer polynomial, constant term first.

    Trailing zero coefficients are trimmed; the zero polynomial is the
    empty coefficient tuple.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = [
            _check_int(c, "polynomial coefficient") for c in self.coefficients
        ]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients


@record
class AbelianGroupInvariants:
    """Invariant factors (torsion) and free rank of a finitely generated
    abelian group, in particular of an integer matrix cokernel.

    The torsion list d_1 | d_2 | ... consists of integers >= 2.
    """

    torsion: tuple
    free_rank: int

    def __post_init__(self):
        tors = tuple(_check_int(d, "torsion coefficient") for d in self.torsion)
        if any(d < 2 for d in tors):
            raise InputError("torsion coefficients must be at least 2")
        for a, b in zip(tors, tors[1:]):
            if b % a:
                raise InputError(f"torsion coefficients must form a divisibility chain, {a} does not divide {b}")
        _check_int(self.free_rank, "free rank")
        if self.free_rank < 0:
            raise InputError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tors)


# ---------------------------------------------------------------------------
# raw helpers: sparse rows of (j, entry) pairs, and packed matrices, which
# hold column j as the integer sum of entry (i, j) * 2^(i * width)

def _columns_by_entry(sparse):
    """The columns of a, given by its sparse rows, grouped by entry: a pair
    (ones, weighted) where ones[j] lists the rows at which column j holds
    1, and weighted holds a triple (j, x, ks) for each other entry x of
    each column j, with ks the rows at which column j holds x."""
    ones = [[] for _ in sparse]
    weighted = {}
    for k, row in enumerate(sparse):
        for j, x in row:
            if x == 1:
                ones[j].append(k)
            elif (j, x) in weighted:
                weighted[j, x].append(k)
            else:
                weighted[j, x] = [k]
    return ones, [(j, x, ks) for (j, x), ks in weighted.items()]


def _times_packed(cols, columns):
    """The packed product p @ a, for p packed as ``cols`` and a given by
    ``_columns_by_entry``: column j of p @ a is the sum over its entries x
    of x times the sum of the columns ks of p.  That is one big-integer
    addition per nonzero entry of a, and one multiplication per distinct
    entry other than 1 in a column.

    Packing is linear, so the product is exact whatever the slot values;
    a slot reads back its entry only while the entry fits the slot width.
    """
    ones, weighted = columns
    get = cols.__getitem__
    out = [sum(map(get, ks)) for ks in ones]
    for j, x, ks in weighted:
        out[j] += x * sum(map(get, ks))
    return out


# ---------------------------------------------------------------------------
# operations

def _faddeev_leverrier(sparse, steps):
    """The coefficients of t^0 .. t^steps in det(I - t a), for a given by
    its sparse rows, by ``steps`` steps of the Faddeev-LeVerrier recursion
    on packed matrices.

    Write det(x I - a) = sum_j c_j x^j and adj(x I - a) = sum_k M_k x^(n-k).
    Then c_n = 1, M_1 = I and M_(k+1) = a M_k + c_(n-k) I, with
    M_(n+1) = 0, and c_(n-k) = -trace(a M_k) / k, the t^k coefficient of
    det(I - t a), is an exact division over the integers.  Step k forms
    M_k a, which equals a M_k since M_k is a polynomial in a.

    Slot bound: let e_k be the k-th elementary symmetric function of the
    numbers ceil(|a_i|) over the rows a_i of a, with |.| the Euclidean
    norm.  By Hadamard's inequality a k x k minor of a on the rows T is at
    most the product of |a_i| over i in T in absolute value, so a signed
    sum of k x k minors on distinct row sets is at most e_k.  Step k reads
    a M_k = M_(k+1) - c_(n-k) I.  An entry of adj(x I - a) is, up to sign,
    an (n-1) x (n-1) minor of x I - a; expanding it along its x entries
    writes its x^(n-k-1) coefficient, an entry of M_(k+1), as a signed sum
    of k x k minors of a on distinct row sets.  That bounds the entries
    off the diagonal.  On the diagonal, (M_(k+1))_ii is (-1)^k times the
    sum of the principal k x k minors that avoid row i, and c_(n-k) is
    (-1)^k times the sum of all of them, so (a M_k)_ii is -(-1)^k times
    the sum of the principal k x k minors through row i.  Every entry of
    a M_k is therefore at most e_k in absolute value, and with E the
    largest e_k for k <= steps, slots of w = E.bit_length() + 1 bits hold
    every product the steps form, with the bias 2^(w-1) added: each biased
    slot lies in 1 .. 2^w - 1, so no slot borrows from the next.
    """
    n = len(sparse)
    e = [1] + [0] * steps
    for row in sparse:
        square = sum(x * x for _, x in row)
        if square:
            # ceil(sqrt(q)) is 1 + isqrt(q - 1) for q >= 1
            norm = 1 + isqrt(square - 1)
            for k in range(steps, 0, -1):
                e[k] += norm * e[k - 1]
    width = max(e).bit_length() + 1
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    shifts = range(0, n * width, width)
    bias = sum([half << shift for shift in shifts])
    columns = _columns_by_entry(sparse)
    c = [1] + [0] * steps
    am = [0] * n
    for k in range(1, steps + 1):
        am = _times_packed([col + (c[k - 1] << shift) for col, shift in zip(am, shifts)], columns)
        t = sum([((col + bias) >> shift) & mask for col, shift in zip(am, shifts)]) - n * half
        if t % k:
            raise InternalError(f"Faddeev-LeVerrier division by {k} is not exact")
        c[k] = -(t // k)
    return c


def _zeta(a: IntMatrix, m: int, with_det: bool):
    """(traces, det): [trace(a^n) for n = 1..m], and det(I - t a) as an
    IntPolynomial when ``with_det`` is true, else None.

    Walks the strongly connected components of ``a`` once; the factors of
    det(I - t a) multiply and the traces add.  k components that are
    single cycles of length L give (1 - t^L)^k and kL points of every
    period divisible by L.  Any other component gives the Faddeev-LeVerrier
    factor c of its submatrix and, by Newton's identities, the traces
    p_n = -n c_n - sum_(0<k<n) c_k p_(n-k), with c_k = 0 past the degree
    of c; without the determinant the recursion stops after min(size, m)
    steps and no product is formed.
    """
    a.dim  # raises the square error on a rectangular matrix
    sparse = a.sparse
    traces = [0] * m
    cycles = {}  # cycle length -> number of components that are such a cycle
    factors = []  # the Faddeev-LeVerrier factors of the other components
    for states, is_cycle in _components(sparse):
        size = len(states)
        if is_cycle:
            cycles[size] = cycles.get(size, 0) + 1
            continue
        rows = _principal_rows(sparse, states)
        if size == 1 and not rows[0]:
            continue
        c = _faddeev_leverrier(rows, size if with_det else min(size, m))
        factors.append(c)
        tail = c[1:]
        recent = deque(maxlen=len(tail))  # p_(n-1), p_(n-2), ..., newest first
        for n in range(1, m + 1):
            p = (-n * c[n] if n < len(c) else 0) - sum(map(mul, tail, recent))
            recent.appendleft(p)
            traces[n - 1] += p
    coeffs = [1]
    for length, k in cycles.items():
        for n in range(length, m + 1, length):
            traces[n - 1] += k * length
        for _ in range(k if with_det else 0):
            # times 1 - t^length: one subtraction per coefficient, no product
            coeffs += [0] * length
            coeffs[length:] = map(sub, coeffs[length:], coeffs)
    if not with_det:
        return traces, None
    for factor in factors:
        coeffs = _poly_mul_coeffs(factor, coeffs)
    return traces, IntPolynomial(coeffs)


def trace_sequence(a: IntMatrix, m: int) -> list:
    """[trace(a^n) for n = 1..m], the period-n point counts of the shift
    presented by a."""
    _check_int(m, "sequence length")
    if m < 0:
        raise InputError("sequence length must be nonnegative")
    return _zeta(a, m, False)[0]


def trace_of_power(a: IntMatrix, n: int) -> int:
    """trace(a^n), the number of period-n points of the shift presented by a."""
    _check_int(n, "power")
    if n < 1:
        raise InputError("power must be at least 1")
    return trace_sequence(a, n)[-1]


def char_poly_reciprocal(a: IntMatrix) -> IntPolynomial:
    """det(I - t a) as an exact integer polynomial in t.

    The reciprocal zeta function of the shift presented by ``a``: the
    coefficients c of det(I - t a) give the linear recurrence
    sum_k c_k trace(a^(n-k)) = 0 satisfied by the trace sequence.
    """
    return _zeta(a, 0, True)[1]


def _primitive(coeffs):
    """Content-1 integer form with the lowest nonzero coefficient positive."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return ()
    content = 0
    for x in coeffs:
        content = gcd(content, x)
    coeffs = [x // content for x in coeffs]
    lowest = next(x for x in coeffs if x != 0)
    if lowest < 0:
        coeffs = [-x for x in coeffs]
    return tuple(coeffs)


def _pseudo_remainder(num, den):
    """An integer multiple of the remainder of num divided by den.

    Coefficient lists, constant first, den nonzero.  Each step scales the
    dividend by lc(den) / g and subtracts (c / g) t^k den, where c is its
    leading coefficient and g = gcd(c, lc(den)), so every coefficient stays
    an integer; the result is a nonzero integer multiple of the remainder
    over the rationals (Knuth, TAOCP vol. 2, section 4.6.1).
    """
    rem = list(num)
    size, lead = len(den), den[-1]
    while len(rem) >= size:
        c = rem[-1]
        if c % lead:
            g = gcd(c, lead)
            scale, q = lead // g, c // g
            rem = [x * scale for x in rem]
        else:
            q = c // lead
        shift = len(rem) - size
        rem[shift:] = [x - q * y for x, y in zip(rem[shift:], den)]
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _poly_gcd_coeffs(p, q):
    """Primitive gcd of two primitive integer coefficient tuples, by the
    primitive pseudo-remainder sequence (Cohen, section 3.3)."""
    a, b = p, q
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _exact_quotient(num, den):
    """num / den for integer coefficient tuples when den divides num in
    Z[t]: every quotient coefficient is an exact integer division."""
    rem = list(num)
    size, lead = len(den), den[-1]
    quot = [0] * (len(rem) - size + 1)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + size - 1] // lead
        if q:
            quot[k] = q
            rem[k:k + size] = [x - q * y for x, y in zip(rem[k:k + size], den)]
    return tuple(quot)


def _poly_mul_coeffs(p, q):
    """Product of two coefficient tuples; zero coefficients of ``p`` are
    skipped, so pass the sparser factor first."""
    out = [0] * (len(p) + len(q) - 1)
    size = len(q)
    for i, x in enumerate(p):
        if x:
            out[i:i + size] = [o + x * y for o, y in zip(out[i:i + size], q)]
    return tuple(out)


def poly_lcm(ps) -> IntPolynomial:
    """Least common multiple of nonzero integer polynomials over the rationals.

    The result is primitive with its lowest nonzero coefficient positive,
    so polynomials arising as det(I - t A) keep constant term +1.  Each
    step divides the product of two primitive polynomials by their
    primitive gcd; by Gauss's lemma the quotient has integer coefficients
    and is again primitive with its lowest coefficient positive.
    """
    ps = list(ps)
    if not ps:
        raise InputError("poly_lcm needs at least one polynomial")
    coeffs = []
    for p in ps:
        if p.is_zero():
            raise InputError("poly_lcm is undefined for the zero polynomial")
        coeffs.append(_primitive(p.coefficients))
    acc = coeffs[0]
    for p in coeffs[1:]:
        acc = _exact_quotient(_poly_mul_coeffs(acc, p), _poly_gcd_coeffs(acc, p))
    return IntPolynomial(acc)


def smith_normal_form(rows) -> AbelianGroupInvariants:
    """Invariant factors and free rank of the cokernel of a square matrix
    given by its rows of integers, of any sign.

    Two phases (Cohen, A Course in Computational Algebraic Number Theory,
    section 2.4).  Diagonalise: move the least nonzero entry of the remaining
    block into the corner, divide its row and column by it with integer
    row and column operations, and move the least remainder left in them
    into the corner until both are clear.  Normalise: replace each pair
    (d_i, d_j), i < j, with (gcd, lcm), which keeps the group
    Z/d_i + Z/d_j, so the diagonal becomes a divisibility chain.
    """
    a = [list(row) for row in _check_rows(rows)]
    n = len(a)
    if len(a[0]) != n:
        raise InputError(f"Smith form corner reduction needs a square matrix, got {n}x{len(a[0])}")

    diag = []
    for t in range(n):
        sizes = [min(filter(None, map(abs, row[t:])), default=inf) for row in a[t:]]
        size = min(sizes)
        if size == inf:
            break
        i = t + sizes.index(size)
        j = t + list(map(abs, a[i][t:])).index(size)
        while True:
            a[t], a[i] = a[i], a[t]
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            top = a[t]
            p = top[t]
            for row in a[t + 1:]:
                q = row[t] // p
                if q:
                    row[t:] = [x - q * y for x, y in zip(row[t:], top[t:])]
            live = [row for row in a[t:] if row[t]]
            for k in range(t + 1, n):
                q = top[k] // p
                if q:
                    for row in live:
                        row[k] -= q * row[t]
            rest = [(abs(a[k][t]), k, t) for k in range(t + 1, n) if a[k][t]]
            rest += [(abs(top[k]), t, k) for k in range(t + 1, n) if top[k]]
            if not rest:
                break
            _, i, j = min(rest)
        diag.append(abs(a[t][t]))

    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return AbelianGroupInvariants(
        torsion=tuple(d for d in diag if d >= 2),
        free_rank=n - len(diag),
    )


def bowen_franks(a: IntMatrix) -> AbelianGroupInvariants:
    """Bowen-Franks group of a shift of finite type: cokernel of I - A."""
    n = a.dim
    return smith_normal_form(
        [[int(i == j) - a.entries[i][j] for j in range(n)] for i in range(n)]
    )
