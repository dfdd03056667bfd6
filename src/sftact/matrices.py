"""Exact integer matrix and polynomial algebra.

Everything here runs on Python's unbounded integers; polynomial gcds use
pseudo-remainders, so no rational or floating-point number is formed
anywhere in the package.

The central objects are nonnegative integer matrices of any shape
(``IntMatrix``: square ones present shifts of finite type, rectangular
ones are selectors and equivalence certificates), integer polynomials
with the constant term first (``IntPolynomial``, used for reciprocal
characteristic polynomials and linear recurrences), and the invariant
factors of an integer matrix cokernel (``AbelianGroupInvariants``, used
for Bowen-Franks groups).  A matrix is stored as its sparse rows and
validated once, when it is built; products, transposes and submatrices
work on sparse rows, and the dense rows are derived only on demand, for
reports and for the Smith form behind Bowen-Franks groups.

Every periodic-point count goes through one engine: ``trace_sequence``
and ``char_poly_reciprocal`` split the matrix into its strongly connected
components, since det(I - t A) is the product of the factors of the
components and trace(A^n) the sum of their traces.  A component that is
a single cycle of length L contributes 1 - t^L and L points of every
period divisible by L; any other component is handled with sparse
products on its own submatrix.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from math import gcd
from operator import ge

from .errors import InputError
from .records import record


def _check_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an exact integer, got {x!r}")
    return x


def _check_rows(entries) -> tuple:
    """``entries`` as a tuple of equally long, nonempty tuples of exact
    integers, checked in whole-matrix passes rather than entry by entry."""
    rows = tuple(map(tuple, entries))
    if set(map(type, chain.from_iterable(rows))) - {int}:
        # some entry is not a plain int: find it, accepting int subclasses but bool
        for x in chain.from_iterable(rows):
            _check_int(x, "matrix entry")
    if not rows or not rows[0]:
        raise InputError("matrix entry needs at least one row and one column")
    if len(set(map(len, rows))) > 1:
        raise InputError("matrix entry has ragged rows")
    return rows


def _check_sparse(rows, cols: int) -> tuple:
    """``rows`` as a tuple of sparse rows of (column, entry) pairs, checked
    in whole-matrix passes: columns strictly increase within 0..cols-1 in
    each row, and entries are positive exact integers."""
    _check_int(cols, "column count")
    rows = tuple(tuple(map(tuple, row)) for row in rows)
    if not rows or cols < 1:
        raise InputError("matrix entry needs at least one row and one column")
    flat = [v for row in rows for pair in row for v in pair]
    if set(map(type, flat)) - {int}:
        for v in flat:
            _check_int(v, "sparse matrix column or entry")
    columns, values = flat[0::2], flat[1::2]
    if values and min(values) < 1:
        raise InputError("sparse matrix entries must be positive")
    # i * cols + j strictly increases exactly when each row's columns do
    keys = [i * cols + j for i, row in enumerate(rows) for j, _ in row]
    if columns and (min(columns) < 0 or max(columns) >= cols or any(map(ge, keys, keys[1:]))):
        raise InputError(f"sparse matrix columns must strictly increase within 0..{cols - 1}")
    return rows


def _principal_rows(sparse, states):
    """Sparse rows of the principal submatrix on the ascending ``states``."""
    position = {s: k for k, s in enumerate(states)}
    return [tuple((position[j], x) for j, x in sparse[s] if j in position) for s in states]


@record
class IntMatrix:
    """Matrix of nonnegative integers, of any shape, stored as sparse rows.

    A square matrix presents a shift of finite type and ``dim`` counts its
    states; selectors and certificate factors are rectangular.  Row i of
    ``sparse`` holds the (column, entry) pairs of its nonzero entries with
    columns increasing, and ``cols`` is the column count.  ``IntMatrix(entries)``
    builds a matrix from dense rows and ``from_sparse`` from sparse ones;
    either way it is validated once, in whole-matrix passes.  The dense
    ``entries`` are derived only when read.  Optional ``labels`` name the
    rows; they must be pairwise distinct.
    """

    sparse: tuple
    cols: int
    labels: tuple | None

    def __init__(self, entries, labels=None):
        rows = _check_rows(entries)
        if min(chain.from_iterable(rows)) < 0:
            raise InputError("matrix entries must be nonnegative")
        columns = range(len(rows[0]))
        sparse = tuple(tuple((j, row[j]) for j in compress(columns, row)) for row in rows)
        self._store(sparse, len(rows[0]), labels)

    @classmethod
    def from_sparse(cls, rows, cols: int, labels=None) -> "IntMatrix":
        """The matrix with the given sparse rows and column count."""
        matrix = cls.__new__(cls)
        matrix._store(_check_sparse(rows, cols), cols, labels)
        return matrix

    def _store(self, sparse, cols, labels):
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(sparse):
                raise InputError("label count does not match matrix dimension")
            if len(set(labels)) != len(labels):
                raise InputError("state labels must be pairwise distinct")
        object.__setattr__(self, "sparse", sparse)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "labels", labels)

    @property
    def rows(self) -> int:
        return len(self.sparse)

    @property
    def dim(self) -> int:
        """The number of states; the matrix must be square."""
        if self.rows != self.cols:
            raise InputError(f"matrix must be square, got {self.rows}x{self.cols}")
        return self.rows

    @cached_property
    def entries(self) -> tuple:
        """The dense rows, for reports and dense algorithms."""
        out = []
        for row in self.sparse:
            dense = [0] * self.cols
            for j, x in row:
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i + 1)

    def principal(self, states) -> "IntMatrix":
        """The principal submatrix on the ascending ``states``, with their labels."""
        labels = None if self.labels is None else tuple(self.labels[i] for i in states)
        return IntMatrix.from_sparse(_principal_rows(self.sparse, states), len(states), labels)

    def transpose(self) -> "IntMatrix":
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                cols[j].append((i, x))
        return IntMatrix.from_sparse(cols, self.rows, labels=self.labels)

    def is_zero_one(self) -> bool:
        return all(x == 1 for row in self.sparse for _, x in row)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_sparse([((i, 1),) for i in range(n)], n)


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

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


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
# raw helpers on rows of ints: dense nested sequences or sparse (j, entry) lists

def _times_sparse(p, sparse):
    """The dense product p @ a, with a given by its sparse rows."""
    n = len(sparse)
    out = []
    for row in p:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                for j, w in sparse[k]:
                    acc[j] += x * w
        out.append(acc)
    return out


def _components(sparse):
    """Strongly connected components of the digraph with sparse rows
    ``sparse``, by Tarjan's algorithm with an explicit stack.

    Returns a list of (states, is_cycle) pairs covering every state once,
    with states ascending.  ``is_cycle`` marks a component that is a
    single simple cycle: each of its states has exactly one out-edge
    inside the component, of weight 1.
    """
    n = len(sparse)
    index = [-1] * n
    low = [0] * n
    component_of = [-1] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        # the depth-first path, each state with its unexplored out-edges
        path = [(root, iter(sparse[root]))]
        while path:
            v, edges = path[-1]
            for j, _ in edges:
                if index[j] < 0:
                    index[j] = low[j] = counter
                    counter += 1
                    stack.append(j)
                    path.append((j, iter(sparse[j])))
                    break
                if component_of[j] < 0 and index[j] < low[v]:
                    low[v] = index[j]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] < index[v]:
                    continue
                label = len(components)
                states = []
                while not states or states[-1] != v:
                    states.append(stack.pop())
                    component_of[states[-1]] = label
                states.sort()
                is_cycle = all(
                    [x for j, x in sparse[s] if component_of[j] == label] == [1]
                    for s in states
                )
                components.append((states, is_cycle))
    return components


def _cyclic_parts(a: IntMatrix):
    """The components of ``a`` that carry a cycle, as (states, sub) pairs.

    ``sub`` is None for a single simple cycle and otherwise the sparse rows
    of the principal submatrix on ``states``.  det(I - t a) is the product
    of the factors of these parts, and trace(a^n) the sum of their traces.
    """
    a.dim  # raises the square error on a rectangular matrix
    sparse = a.sparse
    for states, is_cycle in _components(sparse):
        if is_cycle:
            yield states, None
            continue
        sub = _principal_rows(sparse, states)
        if len(states) > 1 or sub[0]:
            yield states, sub


# ---------------------------------------------------------------------------
# operations

def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two integer matrices of compatible shapes, row by
    sparse row; entries are nonnegative, so no sum cancels to zero."""
    if a.cols != b.rows:
        raise InputError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    rows, b_rows = [], b.sparse
    for row in a.sparse:
        acc = {}
        for k, x in row:
            for j, y in b_rows[k]:
                acc[j] = acc.get(j, 0) + x * y
        rows.append(tuple(sorted(acc.items())))
    return IntMatrix.from_sparse(rows, b.cols)


def trace_sequence(a: IntMatrix, m: int) -> list:
    """[trace(a^n) for n = 1..m], the period-n point counts of the shift
    presented by a.

    Summed over the components of ``a`` that carry a cycle: a single cycle
    of length L has L points of every period divisible by L, and any other
    component carries its power P_n = P_(n-1) @ a forward, one sparse
    product per n.
    """
    _check_int(m, "sequence length")
    if m < 0:
        raise InputError("sequence length must be nonnegative")
    out = [0] * m
    for states, sub in _cyclic_parts(a):
        size = len(states)
        if sub is None:
            for n in range(size, m + 1, size):
                out[n - 1] += size
            continue
        power = [[int(i == j) for j in range(size)] for i in range(size)]
        for n in range(m):
            power = _times_sparse(power, sub)
            out[n] += sum(power[i][i] for i in range(size))
    return out


def trace_of_power(a: IntMatrix, n: int) -> int:
    """trace(a^n), the number of period-n points of the shift presented by a."""
    _check_int(n, "power")
    if n < 1:
        raise InputError("power must be at least 1")
    return trace_sequence(a, n)[-1]


def _faddeev_leverrier(sparse):
    """Coefficients of det(I - t a), constant first, for a given by its
    sparse rows; the Faddeev-LeVerrier divisions are exact over the
    integers."""
    n = len(sparse)
    # char poly of a: lam^n + c[n-1] lam^(n-1) + ... + c[0], with c[n] = 1
    c = [0] * (n + 1)
    c[n] = 1
    # am holds a @ M_(k-1), with M_0 = 0 and M_k = a @ M_(k-1) + c[n-k+1] I;
    # M_k is a polynomial in a, so it commutes with a
    am = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += c[n - k + 1]
        am = _times_sparse(am, sparse)
        t = sum(am[i][i] for i in range(n))
        assert t % k == 0, "Faddeev-LeVerrier division must be exact"
        c[n - k] = -(t // k)
    # det(I - t a) has t^j coefficient c[n - j]
    return tuple(c[n - j] for j in range(n + 1))


def char_poly_reciprocal(a: IntMatrix) -> IntPolynomial:
    """det(I - t a) as an exact integer polynomial in t.

    The reciprocal zeta function of the shift presented by ``a``: the
    coefficients c of det(I - t a) give the linear recurrence
    sum_k c_k trace(a^(n-k)) = 0 satisfied by the trace sequence.
    The determinant is the product of its factors over the components of
    ``a`` that carry a cycle: 1 - t^L for a single cycle of length L, and
    the Faddeev-LeVerrier recursion on the submatrix of any other.
    """
    coeffs = (1,)
    for states, sub in _cyclic_parts(a):
        if sub is None:
            factor = (1,) + (0,) * (len(states) - 1) + (-1,)
        else:
            factor = _faddeev_leverrier(sub)
        coeffs = _poly_mul_coeffs(factor, coeffs)
    return IntPolynomial(coeffs)


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


def poly_divides(p: IntPolynomial, q: IntPolynomial) -> bool:
    """True when p divides q over the rationals (p nonzero)."""
    if p.is_zero():
        raise InputError("division by the zero polynomial")
    if q.is_zero():
        return True
    if q.degree < p.degree:
        return False
    return not _pseudo_remainder(q.coefficients, p.coefficients)


def smith_normal_form(rows) -> AbelianGroupInvariants:
    """Invariant factors and free rank of the cokernel of a square matrix
    given by its rows of integers, of any sign.

    Standard integer row/column reduction with exact arithmetic, pivoting
    on the entry of minimal absolute value to bound coefficient growth.
    """
    a = [list(row) for row in _check_rows(rows)]
    n = len(a)
    if len(a[0]) != n:
        raise InputError(f"Smith form corner reduction needs a square matrix, got {n}x{len(a[0])}")

    def find_pivot(t):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    diag = []
    for t in range(n):
        piv = find_pivot(t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
            done = True
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                if q:
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    done = False
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(t, n):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    done = False
            if done:
                bad = None
                for i in range(t + 1, n):
                    for j in range(t + 1, n):
                        if a[i][j] % a[t][t]:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                # fold the offending row in so the pivot can shrink
                for j in range(t, n):
                    a[t][j] += a[bad][j]
            piv = find_pivot(t)
        diag.append(abs(a[t][t]))

    # enforce the divisibility chain d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
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
