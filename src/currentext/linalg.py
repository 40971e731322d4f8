"""Exact sparse linear algebra over the rationals.

Everything downstream (cohomology differentials, derivation systems,
Kaehler relation spans) reduces to kernels, solves and quotients of
sparse rational matrices, so this module fixes the conventions once:

* public values are ``fractions.Fraction`` (arbitrary precision,
  canonical reduced form with positive denominator);
* one row form is held inside: an integer row {col: int}.  A
  SparseMatrix holds its nonzero rows in that form over one positive
  denominator for the whole matrix (row i is {col: int} / den, in
  lowest terms), as the structure tables and the cochains hold their
  integers, and a Subspace holds its echelon rows in it;
* rows are combined in one place, the row step _row_step
  (prow[col] * row - row[col] * prow), so forward elimination, back
  substitution and reduction against a subspace never leave ZZ; the
  first two divide each new row by the gcd of its entries;
* reduced row echelon form (pivot entries 1, pivot columns cleared) is
  the canonical basis of every subspace.  It is stored as primitive
  integer rows with a positive pivot entry, one per reduced row, so the
  form stays canonical and subspace equality a syntactic check;
* linear solves return the canonical solution with all free coordinates
  set to zero, so computed witnesses are reproducible;
* one elimination serves every right-hand side of a matrix: _solve_rows
  takes augmented integer rows with one column per right-hand side,
  eliminates once and returns sparse integer solutions; solve_many
  builds those rows from a matrix and its right-hand sides and makes the
  solutions dense Fractions, and solve_linear is its one-column case.

Cost contract: the bookkeeping around the elimination is linear in the
nonzeros it touches, and a Fraction is built only where a public
accessor reads a value, one per output entry.  The accessors that build
Fractions are SparseMatrix.triplets, Subspace.basis_rows (and
basis_matrix, built from them), Subspace.reduce, the QuotientSpace
coordinates (project, lift), the solutions of solve_many and
solve_linear, and the rows of rref_with_transform, which has no reader
in the package: it is kept for the benchmark tracer, which looks it up
by name, and for the test oracle of the cohomology representatives,
which tracks row operations with it.  Quotient
coordinates are read off the echelon rows once, by
QuotientSpace._coordinates: an integer row over one denominator, from
Subspace._residue, which project turns into Fractions and which a
caller that wants integers (the Kaehler classes, kappa) reads as it
is; _over_lcm brings such rows over one denominator.  A matrix's
integer rows go to the eliminator as they are, divided by their gcd
when it is not 1.  Values that cross the public boundary are scaled to
integer rows over one denominator (int entries are taken as they are):
the vectors given to Subspace.from_spanning, rref_with_transform and
Subspace.reduce, the right-hand sides of solve_many (dense, or sparse
{row: value} mappings) and the {(i, j): value} mapping that the
SparseMatrix constructor takes.  Integer rows a caller builds
itself go in through SparseMatrix._from_integer_rows,
Subspace._from_integer_rows or, augmented with right-hand sides,
_solve_rows, with no conversion; _solve_rows returns each solution as
{pivot: (num, lead)}, so a caller that wants integers builds no
Fraction.  Empty rows never reach the eliminator, and single-entry
input rows never reach a row step: the eliminator first peels them
(_peel).  A row {c: v} with c below the stop column fixes c, with pivot
row {c: 1}; c is struck from every other row, and a row left with one
entry fixes its column in turn, found through a column -> rows index,
so the peel is linear in the nonzeros.  Back substitution walks each
row's own pivot columns through a column -> pivot map, one row step
per pivot column the row holds, rather than O(rank^2) lookups;
kernel generators are built as sparse integer rows, and reducing a
sparse vector against a subspace takes one row step per pivot column
present in the vector.

All functions are pure and deterministic: the same input yields the
bit-identical output.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from itertools import filterfalse
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError

Vec = tuple  # tuple of Fraction

_ZERO = Fraction(0)


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
    """Immutable sparse rational matrix held as integer rows over one
    denominator.

    Nonzero row i is stored as {col: int} in _rows[i], and its entries
    are those ints over _den: no stored int is zero, _den is positive,
    and the gcd of _den and every stored int is 1, so the form is
    canonical and == compares the stored integers.  Zero rows are not
    stored.  The constructor takes a {(i, j): value} mapping, so no
    position can be given twice.  The eliminator reads these integer
    rows as they are; triplets() returns Fractions.
    """

    __slots__ = ("rows", "cols", "_rows", "_den")

    def __init__(self, rows: int, cols: int, data: Mapping = {}):  # read, never mutated
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        grouped = {}
        for (i, j), value in data.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry position ({i}, {j}) out of range")
            value = _as_fraction(value)
            if value:
                grouped.setdefault(i, {})[j] = value
        # over the lcm of the reduced denominators the form is in lowest
        # terms already: an entry with the highest power of a prime p in
        # its denominator keeps a numerator prime to p
        den = lcm(*[value.denominator for row in grouped.values() for value in row.values()])
        self._den = den
        self._rows = {
            i: {j: value.numerator * (den // value.denominator) for j, value in row.items()}
            for i, row in grouped.items()
        }

    @classmethod
    def _from_integer_rows(cls, rows: int, cols: int, int_rows: Mapping, den: int = 1):
        """The rows x cols matrix whose row i is int_rows[i] / den.

        The caller vouches for the input: integer values, positions in
        range, den positive.  Empty rows are dropped, and the rows and
        den are divided by their gcd.
        """
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        g = _content(den, (row.values() for row in int_rows.values()))
        m._den = den // g
        m._rows = {i: row if g == 1 else {j: v // g for j, v in row.items()}
                   for i, row in int_rows.items() if row}
        return m

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
        return cls._from_integer_rows(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, {})

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    def triplets(self):
        """Sorted (row, col, value) triplets; the canonical serialisation."""
        den = self._den
        out = []
        for i in sorted(self._rows):
            row = self._rows[i]
            out.extend((i, j, Fraction(row[j], den)) for j in sorted(row))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.shape == other.shape
            and self._den == other._den
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _content(den: int, rows) -> int:
    """The gcd of den and every int of the integer rows in rows (each an
    iterable of ints): the factor that brings rows / den to lowest terms."""
    g = den
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *row)
    return g


def _scaled_row(row: Mapping) -> tuple:
    """(den, {col: den * value}) for a column -> nonzero int or Fraction
    mapping, den the lcm of the values' denominators."""
    den = lcm(*[value.denominator for value in row.values()])
    if den == 1:
        return 1, {j: value.numerator for j, value in row.items()}
    return den, {j: value.numerator * (den // value.denominator) for j, value in row.items()}


def _over_lcm(rows: Mapping) -> tuple:
    """(den, {key: row}) for a key -> (lead, integer row) mapping: every
    row / lead brought over den, the lcm of the leads."""
    den = lcm(*[lead for lead, _ in rows.values()])
    return den, {key: row if lead == den else {c: value * (den // lead) for c, value in row.items()}
                 for key, (lead, row) in rows.items()}


def _dense(row: Mapping, den: int, n: int) -> Vec:
    """The length-n Fraction tuple of an integer row {col: int} over den."""
    out = [_ZERO] * n
    for col, value in row.items():
        out[col] = Fraction(value, den)
    return tuple(out)


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries: row itself when
    that gcd is 1, a new dict otherwise."""
    g = 0
    for value in row.values():
        g = gcd(g, value)
        if g == 1:
            return row
    return {col: value // g for col, value in row.items()} if g > 1 else row


def _entries(v, n: int) -> dict:
    """Nonzero entries of a length-n vector, given as a dense sequence or
    as a column -> value mapping, as a column -> value dict: an int is
    taken as it is, any other value through _as_fraction.

    Each value is tested after it is converted, since a string "0" is
    truthy; a value that is false as given (a zero int or Fraction) is
    skipped without converting it.
    """
    if isinstance(v, Mapping):
        items = v.items()
    elif len(v) != n:
        raise DimensionMismatchError(f"vector length {len(v)} != {n}")
    else:
        items = enumerate(v)
    out = {j: y for j, x in items if x and (y := x if type(x) is int else _as_fraction(x))}
    if out and not (min(out) >= 0 and max(out) < n):
        raise DimensionMismatchError(f"vector has a column outside range({n})")
    return out


def _integer_rows(rows: Iterable, cols: int):
    """Primitive integer rows of rational rows (dicts or dense sequences).

    int entries are read as they are, so rows that are integer already
    (the Kaehler relations) cost no Fraction per entry.
    """
    return [_primitive(_scaled_row(_entries(row, cols))[1]) for row in rows]


def _matrix_rows(m: SparseMatrix):
    """The nonzero rows of m as primitive integer rows, in row order."""
    rows = m._rows
    return [_primitive(rows[i]) for i in sorted(rows)]


def _row_step(prow: dict, row: dict, col: int) -> dict:
    """prow[col] * row - row[col] * prow, a new dict that is zero on col:
    the one place where rows are combined.  No input is mutated."""
    a, b = prow[col], row[col]
    new = {c: a * value for c, value in row.items()}
    for c, value in prow.items():
        updated = new.get(c, 0) - b * value
        if updated:
            new[c] = updated
        elif c in new:
            del new[c]
    return new


def _peel(int_rows, stop_col: int):
    """The columns that single-entry rows fix, and the rows left to
    eliminate once those columns are struck.

    A row with one entry, at a column c < stop_col, puts e_c in the row
    space; striking c from every other row subtracts a multiple of e_c,
    so the row space stays the same.  A struck row is made primitive
    again and dropped when it is empty; when one entry below stop_col is
    left, it fixes that column in turn.  Such a cascade finds the rows
    to strike next through a column -> rows index, built once at the
    first cascade, so the peel stays linear in the nonzeros.  Returns
    (fixed, rows): the fixed columns, sorted, and the other rows, every
    fixed column struck: first the rows that met no fixed column, in
    input order, then the struck ones.  A single-entry row at stop_col
    or beyond stays in rows.  When no row fixes a column, the input
    comes back as it is after one pass over the row lengths.
    """
    singles = [c for row in int_rows if len(row) == 1 for c in row if c < stop_col]
    if not singles:
        return (), int_rows
    fixed = set(singles)
    cascade = []

    def strike(row):
        row = _primitive({c: value for c, value in row.items() if c not in fixed})
        if len(row) == 1 and (c := next(iter(row))) < stop_col:
            fixed.add(c)
            cascade.append(c)
            return None
        return row or None

    # filter tests every row in C; the rows it leaves out are the
    # single-entry rows counted in singles and the rows to strike, which
    # are listed before the first strike can add to fixed
    live = list(filter(fixed.isdisjoint, int_rows))
    if len(live) + len(singles) < len(int_rows):
        for row in list(filterfalse(fixed.isdisjoint, int_rows)):
            if len(row) > 1 and (row := strike(row)):
                live.append(row)
    if cascade:
        index = {}
        for idx, row in enumerate(live):
            for c in row:
                index.setdefault(c, []).append(idx)
        while cascade:
            c = cascade.pop()
            for idx in index.get(c, ()):
                if (row := live[idx]) is not None and c in row:
                    live[idx] = strike(row)
        live = [row for row in live if row]
    return sorted(fixed), live


def _eliminate(int_rows, stop_col: int):
    """Forward fraction-free elimination on primitive integer rows.

    Returns (pivots, remainder): pivots is a list of (pivot column,
    integer row) in strictly increasing column order, remainder holds
    rows whose leading column is >= stop_col.  Pivot selection is
    deterministic: first every column that a single-entry row fixes,
    directly or once fixed columns are struck (_peel), with pivot row
    {c: 1}; then, on the rows left, the sparsest candidate of the lowest
    leading column, ties by the order _peel returns.  The fixed pivots
    are merged into the pivot list by column.  The input rows are never
    mutated, so pivot and remainder rows may be input rows.
    """
    fixed, int_rows = _peel(int_rows, stop_col)
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
            push(seq, row)

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
        prow = candidates[best][1]
        for idx, (seq, row) in enumerate(candidates):
            if idx != best and (new := _row_step(prow, row, lead)):
                push(seq, _primitive(new))
        pivots.append((lead, prow))
    if fixed:
        # two increasing runs: the sort merges them in one pass
        pivots.extend((c, {c: 1}) for c in fixed)
        pivots.sort(key=itemgetter(0))
    return pivots, remainder


def _back_substitute(pivots):
    """Turn forward-eliminated pivot rows into reduced echelon integer rows.

    Returns (pivot_columns, rows): each row is primitive with a positive
    pivot entry, and divided by that entry it is the reduced echelon row,
    so the form is canonical.  Rows are reduced from the last pivot up.
    A reduced row is zero on every other pivot column, so a row step
    against it clears one pivot column and never fills another: the
    pivot columns to clear are exactly the row's own.
    """
    cols = [c for c, _ in pivots]
    index = {c: idx for idx, c in enumerate(cols)}
    out = [None] * len(pivots)
    for idx in range(len(pivots) - 1, -1, -1):
        col, row = pivots[idx]
        for later in sorted(index[c] for c in row if c != col and c in index):
            row = _primitive(_row_step(out[later], row, cols[later]))
        out[idx] = row if row[col] > 0 else {c: -value for c, value in row.items()}
    return cols, out


def rank(m: SparseMatrix) -> int:
    pivots, _ = _eliminate(_matrix_rows(m), m.cols)
    return len(pivots)


class Subspace:
    """Subspace of QQ^n held by its reduced echelon basis, as the integer
    rows _back_substitute returns; the accessors build Fractions."""

    __slots__ = ("ambient_dim", "pivots", "_rows", "_index")

    def __init__(self, ambient_dim: int, pivots: Sequence[int], rows):
        self.ambient_dim = ambient_dim
        self.pivots = tuple(pivots)
        self._rows = tuple(dict(r) for r in rows)
        self._index = {c: idx for idx, c in enumerate(self.pivots)}

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        pivots, _ = _eliminate(_integer_rows(vectors, ambient_dim), ambient_dim)
        return cls(ambient_dim, *_back_substitute(pivots))

    @classmethod
    def _from_integer_rows(cls, ambient_dim: int, rows: Iterable) -> "Subspace":
        """The span of integer rows {col: int}, which the caller vouches
        for: int values, none zero, columns in range(ambient_dim).  They
        go to the eliminator as they are, divided by their gcd when it is
        not 1."""
        pivots, _ = _eliminate([_primitive(row) for row in rows], ambient_dim)
        return cls(ambient_dim, *_back_substitute(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis_matrix(self) -> SparseMatrix:
        return SparseMatrix.from_rows(self.basis_rows(), self.ambient_dim)

    def basis_rows(self):
        """The reduced echelon basis as column -> Fraction dicts."""
        return [
            {col: Fraction(value, row[c]) for col, value in row.items()}
            for c, row in zip(self.pivots, self._rows)
        ]

    def _residue(self, v):
        """(den, row): v minus its projection, an integer row over den.

        The basis is reduced, so a row step clearing one pivot column
        never fills another: only the pivot columns present in v are
        visited, and each step multiplies den by the pivot entry it uses.
        """
        den, out = _scaled_row(_entries(v, self.ambient_dim))
        for pivot in sorted(c for c in out if c in self._index):
            row = self._rows[self._index[pivot]]
            out = _row_step(row, out, pivot)
            den *= row[pivot]
        return den, out

    def reduce(self, v):
        """Subtract the projection onto this subspace; result has zero
        coordinates on all pivot columns.

        A dense vector gives a dense list, a column -> value mapping a
        dict, of Fractions.
        """
        den, out = self._residue(v)
        if isinstance(v, Mapping):
            return {col: Fraction(value, den) for col, value in out.items()}
        return list(_dense(out, den, self.ambient_dim))

    def contains(self, v) -> bool:
        return not self._residue(v)[1]

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

    m's integer rows go to the eliminator as they are.  The generator of
    free column f is e_f minus (row[f] / row[pivot]) e_pivot summed over
    the echelon rows.  The terms of every generator are collected in one
    pass over the echelon rows' nonzeros; each generator is negated (it
    spans the same line), scaled by the lcm of its pivot entries to an
    integer row, and the generators are eliminated once more.
    """
    pivots, _ = _eliminate(_matrix_rows(m), m.cols)
    pivot_cols, rows = _back_substitute(pivots)
    pivot_set = set(pivot_cols)
    terms = {free: [] for free in range(m.cols) if free not in pivot_set}
    for pivot, row in zip(pivot_cols, rows):
        for col, value in row.items():
            if col != pivot:
                terms[col].append((pivot, value, row[pivot]))
    generators = []
    for free, column in terms.items():
        den = lcm(*[lead for _, _, lead in column])
        generators.append(_primitive(
            {free: -den} | {pivot: value * (den // lead) for pivot, value, lead in column}
        ))
    pivots, _ = _eliminate(generators, m.cols)
    return Subspace(m.cols, *_back_substitute(pivots))


def _augmented_rows(m: SparseMatrix, bs: Sequence) -> list:
    """The primitive integer rows of [m | bs], in row order: right-hand
    side t is column m.cols + t.  Each b is a dense sequence of length
    m.rows or a sparse row -> value mapping; int entries are taken as
    they are."""
    aug = m.cols
    extra = {}
    for t, b in enumerate(bs):
        for i, value in _entries(b, m.rows).items():
            extra.setdefault(i, {})[aug + t] = value
    # row i of [m | bs] is (ints | b_i) / den: scale it by den and by the
    # lcm q of the denominators of den * b_i, then make it primitive
    den = m._den
    rows = []
    for i in sorted(m._rows.keys() | extra.keys()):
        row = m._rows.get(i, {})
        if i in extra:
            q, scaled = _scaled_row({col: den * value for col, value in extra[i].items()})
            row = {j: value * q for j, value in row.items()} | scaled
        rows.append(_primitive(row))
    return rows


def _solve_rows(rows, cols: int, k: int) -> list:
    """Canonical solutions of augmented primitive integer rows: columns
    below cols are the unknowns, column cols + t is right-hand side t.

    One elimination serves all k right-hand sides, with pivots taken
    among the unknowns only.  The remainder rows then span exactly the
    combinations of the rows that vanish on the unknowns, so right-hand
    side t has no solution precisely when its column is nonzero in some
    remainder row.  Otherwise the pivot rows, reduced, give the solution
    with free coordinates zero; it is unique, so it is the one a solve of
    right-hand side t alone returns.  Returns, for each t, None or the
    sparse solution {pivot: (num, lead)}, whose coordinate at pivot is
    num / lead, in increasing pivot order.
    """
    pivots, remainder = _eliminate(rows, cols)
    inconsistent = {col for row in remainder for col in row}
    out = [None if cols + t in inconsistent else {} for t in range(k)]
    for pivot, row in zip(*_back_substitute(pivots)):
        lead = row[pivot]
        for col, value in row.items():
            if col >= cols and (solution := out[col - cols]) is not None:
                solution[pivot] = (value, lead)
    return out


def solve_many(m: SparseMatrix, bs: Sequence) -> list[Optional[Vec]]:
    """Canonical solutions of m x = b for every b in bs, in order, with
    None for each b that is not in the image.

    Each b is a dense sequence of length m.rows or a sparse row -> value
    mapping; int entries are taken as they are, so an integer right-hand
    side costs no Fraction on the way in.  One elimination of [m | bs]
    serves all of them (_solve_rows), and each solution is returned dense
    with its free coordinates zero.  A dense b of the wrong length, or a
    mapping with a row outside range(m.rows), raises
    DimensionMismatchError.
    """
    for b in bs:
        if not isinstance(b, Mapping) and len(b) != m.rows:
            raise DimensionMismatchError(
                f"solve: right-hand side length {len(b)} != {m.rows} rows"
            )
    out = []
    for solution in _solve_rows(_augmented_rows(m, bs), m.cols, len(bs)):
        if solution is None:
            out.append(None)
            continue
        x = [_ZERO] * m.cols
        for pivot, (num, lead) in solution.items():
            x[pivot] = Fraction(num, lead)
        out.append(tuple(x))
    return out


def solve_linear(m: SparseMatrix, b: Sequence) -> Optional[Vec]:
    """Canonical solution of m x = b, or None when b is not in the image.

    Free coordinates of the solution are zero.  A length mismatch is a
    usage error (DimensionMismatchError), reported distinctly from "no
    solution".
    """
    return solve_many(m, [b])[0]


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

    def _coordinates(self, v) -> tuple:
        """(den, {coordinate: int}): the quotient coordinates of v as an
        integer row over den, in coordinate order, read off
        Subspace._residue.  Representative column c is coordinate
        c - #{pivots < c}; a unit vector {t: 1} takes at most one row
        step, with the echelon row of pivot t."""
        den, out = self.subspace._residue(v)
        pivots = self.subspace.pivots
        return den, {c - bisect_left(pivots, c): value for c, value in sorted(out.items())}

    def project(self, v):
        """Quotient coordinates of v: a tuple for a dense vector, a
        coordinate -> value dict for a column -> value mapping."""
        den, coords = self._coordinates(v)
        if isinstance(v, Mapping):
            return {q: Fraction(value, den) for q, value in coords.items()}
        return _dense(coords, den, self.dim)

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
        den, row = _scaled_row(_entries(v, cols))
        row[cols + i] = den
        rows.append(_primitive(row))
    pivots, _ = _eliminate(rows, cols)
    pivot_cols, echelon = _back_substitute(pivots)
    out = []
    for pivot, row in zip(pivot_cols, echelon):
        vec_part = [_ZERO] * cols
        combo = [_ZERO] * k
        lead = row[pivot]
        for col, value in row.items():
            if col < cols:
                vec_part[col] = Fraction(value, lead)
            else:
                combo[col - cols] = Fraction(value, lead)
        out.append((tuple(vec_part), tuple(combo), pivot))
    return out
