"""Exact sparse linear algebra over the rationals.

Everything downstream (cohomology differentials, derivation systems,
Kaehler relation spans) reduces to kernels, solves and quotients of
sparse rational matrices, so this module fixes the conventions once:

* scalars are ``fractions.Fraction`` (arbitrary precision, canonical
  reduced form with positive denominator);
* elimination is fraction-free: rows are scaled to integers and reduced
  by integer cross-multiplication with per-row gcd normalisation, so
  intermediate entries never leave ZZ; fractions appear only when the
  final reduced echelon form is normalised;
* reduced row echelon form (pivot entries 1, pivot columns cleared) is
  the canonical basis representation for every subspace, which makes
  subspace equality a syntactic check;
* linear solves return the canonical solution with all free coordinates
  set to zero, so computed witnesses are reproducible.

Cost contract: the bookkeeping around the elimination is linear in the
nonzeros it touches.  Empty rows never reach the eliminator; back
substitution walks each row's own pivot columns through a column ->
pivot map, so it costs O(nnz of the echelon rows) updates rather than
O(rank^2) lookups; kernel generators and projections onto a quotient are
built as sparse rows, and reducing a sparse vector against a subspace
touches only the pivot columns present in the vector.

All functions are pure and deterministic: the same input yields the
bit-identical output.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError

Vec = tuple  # tuple of Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def vector(values: Iterable) -> Vec:
    return tuple(_as_fraction(v) for v in values)


def zero_vector(n: int) -> Vec:
    return (_ZERO,) * n


class SparseMatrix:
    """Immutable sparse rational matrix in triplet form.

    Entries are stored as a position -> Fraction map with no explicit
    zeros and no duplicate positions.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Mapping = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        cleaned = {}
        items = data.items() if isinstance(data, Mapping) else data
        for (i, j), value in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry position ({i}, {j}) out of range")
            value = _as_fraction(value)
            if value:
                cleaned[(i, j)] = value
        self._data = cleaned

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets: Iterable) -> "SparseMatrix":
        data = {}
        for i, j, value in triplets:
            if (i, j) in data:
                raise ValueError(f"duplicate entry position ({i}, {j})")
            data[(i, j)] = value
        return cls(rows, cols, data)

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence]) -> "SparseMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        data = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            for j, value in enumerate(row):
                value = _as_fraction(value)
                if value:
                    data[(i, j)] = value
        return cls(rows, cols, data)

    @classmethod
    def from_rows(cls, row_dicts: Sequence[Mapping[int, Fraction]], cols: int) -> "SparseMatrix":
        data = {}
        for i, row in enumerate(row_dicts):
            for j, value in row.items():
                if value:
                    data[(i, j)] = _as_fraction(value)
        return cls(len(row_dicts), cols, data)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, {})

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return len(self._data)

    def entry(self, i: int, j: int) -> Fraction:
        return self._data.get((i, j), _ZERO)

    def triplets(self):
        """Sorted (row, col, value) triplets; the canonical serialisation."""
        return [(i, j, self._data[(i, j)]) for (i, j) in sorted(self._data)]

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        for (i, j), value in self._data.items():
            out[i][j] = value
        return out

    def column(self, j: int) -> Vec:
        col = [_ZERO] * self.rows
        for (i, jj), value in self._data.items():
            if jj == j:
                col[i] = value
        return tuple(col)

    def matvec(self, v: Sequence) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"matvec: vector length {len(v)} != {self.cols} columns"
            )
        out = [_ZERO] * self.rows
        for (i, j), value in self._data.items():
            vj = v[j]
            if vj:
                out[i] += value * vj
        return tuple(out)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self._data.items()}
        )

    def to_dense(self):
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), value in self._data.items():
            out[i][j] = value
        return tuple(tuple(row) for row in out)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _gcd_normalize(row: dict) -> None:
    g = 0
    for value in row.values():
        g = gcd(g, value)
        if g == 1:
            return
    if g > 1:
        for col in row:
            row[col] //= g


def _entries(v, n: int) -> dict:
    """Nonzero entries of a length-n vector, given as a dense sequence or
    as a column -> value mapping, as a column -> Fraction dict."""
    if isinstance(v, (dict, Mapping)):
        out = {j: _as_fraction(x) for j, x in v.items() if x}
        if out and not (min(out) >= 0 and max(out) < n):
            raise DimensionMismatchError(f"vector has a column outside range({n})")
        return out
    if len(v) != n:
        raise DimensionMismatchError(f"vector length {len(v)} != {n}")
    return {j: _as_fraction(x) for j, x in enumerate(v) if x}


def _integer_rows(rows: Iterable, cols: int):
    """Scale rational rows (dicts or dense sequences) to integer dicts."""
    out = []
    for row in rows:
        items = _entries(row, cols)
        if not items:
            out.append({})
            continue
        den = 1
        for value in items.values():
            den = lcm(den, value.denominator)
        int_row = {
            j: value.numerator * (den // value.denominator)
            for j, value in items.items()
        }
        _gcd_normalize(int_row)
        out.append(int_row)
    return out


def _eliminate(int_rows, stop_col: int):
    """Forward fraction-free elimination on integer rows.

    Returns (pivots, remainder): pivots is a list of (pivot column,
    integer row) in strictly increasing column order, remainder holds
    rows whose leading column is >= stop_col.  Pivot selection (sparsest
    candidate, ties by original order) is deterministic.
    """
    buckets = {}
    heap = []

    def push(seq, row):
        lead = min(row)
        if lead in buckets:
            buckets[lead].append((seq, row))
        else:
            buckets[lead] = [(seq, row)]
            heapq.heappush(heap, lead)

    for seq, row in enumerate(int_rows):
        if row:
            push(seq, dict(row))

    pivots = []
    remainder = []
    while heap:
        lead = heapq.heappop(heap)
        candidates = buckets.pop(lead, None)
        if candidates is None:
            continue
        if lead >= stop_col:
            remainder.extend(row for _, row in candidates)
            for other in sorted(buckets):
                remainder.extend(row for _, row in buckets[other])
            buckets.clear()
            break
        best = min(range(len(candidates)), key=lambda t: (len(candidates[t][1]), candidates[t][0]))
        pseq, prow = candidates[best]
        pivot_value = prow[lead]
        for idx, (seq, row) in enumerate(candidates):
            if idx == best:
                continue
            factor = row[lead]
            new = {col: pivot_value * value for col, value in row.items()}
            for col, value in prow.items():
                updated = new.get(col, 0) - factor * value
                if updated:
                    new[col] = updated
                elif col in new:
                    del new[col]
            if new:
                _gcd_normalize(new)
                push(seq, new)
        pivots.append((lead, prow))
    return pivots, remainder


def _back_substitute(pivots):
    """Turn forward-eliminated pivot rows into reduced echelon fraction rows.

    Rows are reduced from the last pivot up.  A reduced row is zero on
    every other pivot column, so subtracting it from a row clears one
    pivot column and never fills another: the pivot columns to clear are
    exactly the row's own, found through the column -> pivot index map
    and cleared in increasing order.
    """
    cols = [c for c, _ in pivots]
    index = {c: idx for idx, c in enumerate(cols)}
    out = [None] * len(pivots)
    for idx in range(len(pivots) - 1, -1, -1):
        col, row = pivots[idx]
        lead = row[col]
        frow = {c: Fraction(v, lead) for c, v in row.items()}
        for later in sorted(index[c] for c in row if c != col and c in index):
            coef = frow[cols[later]]
            for c, v in out[later].items():
                updated = frow.get(c, _ZERO) - coef * v
                if updated:
                    frow[c] = updated
                elif c in frow:
                    del frow[c]
        out[idx] = frow
    return cols, out


def rref_rows(rows: Iterable, cols: int):
    """Reduced row echelon form of a list of rows.

    Returns (pivot_columns, echelon_rows) with echelon_rows a list of
    column -> Fraction dicts, pivot entries equal to 1.
    """
    pivots, _ = _eliminate(_integer_rows(rows, cols), cols)
    return _back_substitute(pivots)


def _nonempty_rows(m: SparseMatrix):
    """The nonzero rows of m as column -> value dicts, in row order."""
    rows = {}
    for (i, j), value in m._data.items():
        if i in rows:
            rows[i][j] = value
        else:
            rows[i] = {j: value}
    return [rows[i] for i in sorted(rows)]


def rank(m: SparseMatrix) -> int:
    pivots, _ = _eliminate(_integer_rows(_nonempty_rows(m), m.cols), m.cols)
    return len(pivots)


class Subspace:
    """Subspace of QQ^n held by its reduced echelon basis."""

    __slots__ = ("ambient_dim", "pivots", "_rows", "_index")

    def __init__(self, ambient_dim: int, pivots: Sequence[int], rows):
        self.ambient_dim = ambient_dim
        self.pivots = tuple(pivots)
        self._rows = tuple(dict(r) for r in rows)
        self._index = {c: idx for idx, c in enumerate(self.pivots)}

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        pivots, rows = rref_rows(vectors, ambient_dim)
        return cls(ambient_dim, pivots, rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis_matrix(self) -> SparseMatrix:
        return SparseMatrix.from_rows(self._rows, self.ambient_dim)

    def basis_vectors(self):
        out = []
        for row in self._rows:
            v = [_ZERO] * self.ambient_dim
            for col, value in row.items():
                v[col] = value
            out.append(tuple(v))
        return out

    def basis_rows(self):
        """The reduced echelon basis as column -> Fraction dicts."""
        return [dict(row) for row in self._rows]

    def reduce(self, v):
        """Subtract the projection onto this subspace; result has zero
        coordinates on all pivot columns.

        A dense vector gives a dense list, a column -> value mapping a
        dict.  The basis is reduced, so clearing one pivot column never
        fills another, and only the pivot columns present in v are
        visited.
        """
        out = _entries(v, self.ambient_dim)
        index = self._index
        for pivot in sorted(c for c in out if c in index):
            coef = out[pivot]
            for col, value in self._rows[index[pivot]].items():
                updated = out.get(col, _ZERO) - coef * value
                if updated:
                    out[col] = updated
                elif col in out:
                    del out[col]
        if isinstance(v, (dict, Mapping)):
            return out
        dense = [_ZERO] * self.ambient_dim
        for col, value in out.items():
            dense[col] = value
        return dense

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(m: SparseMatrix) -> Subspace:
    """Solution space of m v = 0, canonicalised to reduced echelon form.

    The generator of free column f is e_f minus row[f] e_pivot summed
    over the echelon rows; all generators are built as sparse rows in one
    pass over the echelon rows' nonzeros.
    """
    pivot_cols, rows = rref_rows(_nonempty_rows(m), m.cols)
    pivot_set = set(pivot_cols)
    generators = {
        free: {free: _ONE} for free in range(m.cols) if free not in pivot_set
    }
    for pivot, row in zip(pivot_cols, rows):
        for col, value in row.items():
            if col != pivot:
                generators[col][pivot] = -value
    return Subspace.from_spanning(m.cols, list(generators.values()))


def solve_linear(m: SparseMatrix, b: Sequence) -> Optional[Vec]:
    """Canonical solution of m x = b, or None when b is not in the image.

    Free coordinates of the solution are zero.  A length mismatch is a
    usage error (DimensionMismatchError), reported distinctly from "no
    solution".
    """
    if len(b) != m.rows:
        raise DimensionMismatchError(
            f"solve: right-hand side length {len(b)} != {m.rows} rows"
        )
    aug_col = m.cols
    rows = m.row_dicts()
    for i, value in enumerate(b):
        value = _as_fraction(value)
        if value:
            rows[i][aug_col] = value
    pivots, remainder = _eliminate(_integer_rows(rows, aug_col + 1), aug_col)
    if any(remainder):
        return None
    pivot_cols, echelon = _back_substitute(pivots)
    x = [_ZERO] * m.cols
    for pivot, row in zip(pivot_cols, echelon):
        x[pivot] = row.get(aug_col, _ZERO)
    return tuple(x)


class QuotientSpace:
    """Quotient of QQ^n by a subspace, with explicit project and lift.

    Quotient coordinates are read off on the non-pivot (representative)
    columns of the denominator subspace, so project(lift(q)) == q holds
    exactly and project(v) == 0 precisely when v lies in the subspace.
    """

    __slots__ = ("ambient_dim", "subspace", "rep_cols")

    def __init__(self, ambient_dim: int, subspace: Subspace):
        if subspace.ambient_dim != ambient_dim:
            raise DimensionMismatchError(
                f"subspace ambient {subspace.ambient_dim} != {ambient_dim}"
            )
        self.ambient_dim = ambient_dim
        self.subspace = subspace
        pivot_set = set(subspace.pivots)
        self.rep_cols = tuple(c for c in range(ambient_dim) if c not in pivot_set)

    @property
    def dim(self) -> int:
        return len(self.rep_cols)

    def project(self, v):
        """Quotient coordinates of v: a tuple for a dense vector, a
        coordinate -> value dict for a column -> value mapping."""
        reduced = self.subspace.reduce(v)
        if isinstance(reduced, dict):
            # representative column c is quotient coordinate c - #{pivots < c}
            pivots = self.subspace.pivots
            return {
                c - bisect_left(pivots, c): value
                for c, value in sorted(reduced.items())
            }
        return tuple(reduced[c] for c in self.rep_cols)

    def lift(self, q: Sequence) -> Vec:
        if len(q) != self.dim:
            raise DimensionMismatchError(
                f"lift: vector length {len(q)} != quotient dimension {self.dim}"
            )
        v = [_ZERO] * self.ambient_dim
        for c, value in zip(self.rep_cols, q):
            v[c] = _as_fraction(value)
        return tuple(v)

    def __repr__(self):
        return f"QuotientSpace(dim={self.dim}, ambient={self.ambient_dim})"


def quotient_space(ambient_dim: int, sub: Subspace) -> QuotientSpace:
    return QuotientSpace(ambient_dim, sub)


def rref_with_transform(vectors: Sequence[Sequence], cols: int):
    """Reduced echelon form with row-operation tracking.

    Returns a list of (echelon_row, combination, pivot_col) for every
    nonzero echelon row, where combination gives the coefficients over
    the input vectors that produce echelon_row.  Pivoting is restricted
    to the first ``cols`` columns; rows that vanish there are dropped.
    Vectors are dense sequences or column -> value mappings.
    """
    k = len(vectors)
    rows = []
    for i, v in enumerate(vectors):
        row = _entries(v, cols)
        row[cols + i] = _ONE
        rows.append(row)
    pivots, _ = _eliminate(_integer_rows(rows, cols + k), cols)
    pivot_cols, echelon = _back_substitute(pivots)
    out = []
    for pivot, row in zip(pivot_cols, echelon):
        vec_part = [_ZERO] * cols
        combo = [_ZERO] * k
        for col, value in row.items():
            if col < cols:
                vec_part[col] = value
            else:
                combo[col - cols] = value
        out.append((tuple(vec_part), tuple(combo), pivot))
    return out
