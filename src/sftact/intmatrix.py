"""Nonnegative integer matrices of any shape, stored as sparse rows.

Square matrices present shifts of finite type; rectangular ones are
selectors and equivalence certificates.  A matrix is stored as its sparse
rows and validated once, when it is built, in whole-matrix passes;
products, transposes and submatrices work on sparse rows, and the dense
rows are derived only on demand, for reports and for the Smith form
behind Bowen-Franks groups.  The strongly connected components of a
matrix's digraph are here too, for trimming presentations and for the
counting engine of ``matrices``, which imports this module: a job that
counts nothing compiles the matrix type without the engine.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
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
