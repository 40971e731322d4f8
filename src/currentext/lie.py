"""Finite-dimensional Lie algebras given by rational structure constants.

A LieAlgebra stores the bracket table [b_i, b_j] = sum_k c[i][j][k] b_k
sparsely for i < j; the i > j case is derived by antisymmetry.  Raw
input entries are kept so that the validator can report antisymmetry
violations in malformed tables instead of silently symmetrising them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, NotInDerivedAlgebraError
from .linalg import (
    SparseMatrix,
    Subspace,
    Vec,
    _as_fraction,
    kernel_basis,
    quotient_space,
    rank,
    solve_linear,
    vector,
)

_ZERO = Fraction(0)


class LieAlgebra:
    """Lie algebra over QQ given by sparse structure constants."""

    __slots__ = ("labels", "_raw", "_table")

    def __init__(self, labels: Sequence[str], entries: Iterable = ()):
        """entries: iterable of (i, j, k, coefficient) meaning the
        b_k-coordinate of [b_i, b_j]."""
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        raw = {}
        for i, j, k, value in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"structure constant index ({i},{j},{k}) out of range")
            value = _as_fraction(value)
            if not value:
                continue
            key = (i, j)
            row = raw.setdefault(key, {})
            if k in row:
                raise ValueError(f"duplicate structure constant at ({i},{j},{k})")
            row[k] = value
        self._raw = raw
        # canonical i<j table; prefer the given orientation, mirror the other
        table = {}
        for (i, j), row in raw.items():
            if i == j:
                continue  # diagonal entries are validation failures, not brackets
            if i < j:
                if (i, j) not in table:
                    table[(i, j)] = dict(row)
            else:
                if (j, i) not in raw:
                    table[(j, i)] = {k: -v for k, v in row.items()}
        self._table = table

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket_basis(self, i: int, j: int) -> dict:
        """Coordinates of [b_i, b_j] as a sparse index -> Fraction map."""
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), {})
        row = self._table.get((j, i), {})
        return {k: -v for k, v in row.items()}

    def bracket(self, u: Sequence, v: Sequence) -> Vec:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError("bracket operands must match the algebra dimension")
        out = [_ZERO] * self.dim
        nz_u = [(i, _as_fraction(x)) for i, x in enumerate(u) if x]
        nz_v = [(j, _as_fraction(x)) for j, x in enumerate(v) if x]
        for i, a in nz_u:
            for j, b in nz_v:
                if i == j:
                    continue
                coef = a * b
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += coef * c
        return tuple(out)

    def ad(self, i: int) -> SparseMatrix:
        """Matrix of ad(b_i): column j holds the coordinates of [b_i, b_j]."""
        data = {}
        for j in range(self.dim):
            for k, c in self.bracket_basis(i, j).items():
                data[(k, j)] = c
        return SparseMatrix(self.dim, self.dim, data)

    def element(self, coords: Sequence) -> "Element":
        return Element(self, vector(coords))

    def basis_element(self, i: int) -> "Element":
        coords = [_ZERO] * self.dim
        coords[i] = Fraction(1)
        return Element(self, tuple(coords))

    def structure_entries(self):
        """Canonical sorted (i, j, k, coefficient) triplets with i < j."""
        out = []
        for (i, j) in sorted(self._table):
            row = self._table[(i, j)]
            for k in sorted(row):
                out.append((i, j, k, row[k]))
        return out

    def relabel(self, labels: Sequence[str]) -> "LieAlgebra":
        if len(labels) != self.dim:
            raise DimensionMismatchError("label count must match dimension")
        return LieAlgebra(labels, self.structure_entries())

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, labels={list(self.labels)})"


def same_algebra(a: LieAlgebra, b: LieAlgebra) -> bool:
    """Structural identity of algebras.

    Independently constructed copies of the same algebra (for example a
    corner current algebra built twice) must interoperate, so parent
    checks compare labels and bracket tables rather than object ids.
    """
    return a is b or (a.labels == b.labels and a._table == b._table)


class Element:
    """Vector in a LieAlgebra, kept with its parent for bracket arithmetic."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: LieAlgebra, coords: Sequence):
        if len(coords) != parent.dim:
            raise DimensionMismatchError("element length must match the algebra dimension")
        self.parent = parent
        self.coords = vector(coords)

    def bracket(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.parent, self.parent.bracket(self.coords, other.coords))

    def _check(self, other):
        if not same_algebra(other.parent, self.parent):
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return Element(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return Element(self.parent, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, scalar):
        scalar = _as_fraction(scalar)
        return Element(self.parent, tuple(scalar * a for a in self.coords))

    def __neg__(self):
        return Element(self.parent, tuple(-a for a in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and same_algebra(other.parent, self.parent)
            and other.coords == self.coords
        )

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        terms = [
            f"{c}*{self.parent.labels[i]}" for i, c in enumerate(self.coords) if c
        ]
        return " + ".join(terms) if terms else "0"


class ValidationReport:
    """Outcome of validate_lie: every violated axiom with its defect."""

    __slots__ = ("antisymmetry_violations", "jacobi_violations")

    def __init__(self, antisymmetry_violations, jacobi_violations):
        self.antisymmetry_violations = list(antisymmetry_violations)
        self.jacobi_violations = list(jacobi_violations)

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_violations

    def __repr__(self):
        return (
            f"ValidationReport(ok={self.ok}, "
            f"antisymmetry={self.antisymmetry_violations}, "
            f"jacobi={self.jacobi_violations})"
        )


def validate_lie(L: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity on all basis triples."""
    anti = []
    for (i, j), row in sorted(L._raw.items()):
        if i == j:
            for k in sorted(row):
                anti.append((i, j, k, row[k]))
            continue
        mirror = L._raw.get((j, i))
        if mirror is None:
            continue
        if i > j:
            continue  # reported once, from the (i, j) with i < j
        for k in sorted(set(row) | set(mirror)):
            defect = row.get(k, _ZERO) + mirror.get(k, _ZERO)
            if defect:
                anti.append((i, j, k, defect))
    jacobi = []
    n = L.dim
    for i, j, k in combinations(range(n), 3):
        defect = [_ZERO] * n
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = L.bracket_basis(a, b)
            for t, coef in inner.items():
                for s, c2 in L.bracket_basis(t, c).items():
                    defect[s] += coef * c2
        if any(defect):
            jacobi.append(((i, j, k), tuple(defect)))
    return ValidationReport(anti, jacobi)


def killing_form(L: LieAlgebra):
    """Killing form matrix B(x, y) = trace(ad x . ad y) and the
    semisimplicity flag det B != 0 (Cartan's criterion over QQ)."""
    n = L.dim
    ads = [L.ad(i).row_dicts() for i in range(n)]
    matrix = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            trace = _ZERO
            for k in range(n):
                row_i = ads[i][k]
                for l, v in row_i.items():
                    w = ads[j][l].get(k)
                    if w:
                        trace += v * w
            matrix[i][j] = trace
            matrix[j][i] = trace
    dense = tuple(tuple(row) for row in matrix)
    semisimple = rank(SparseMatrix.from_dense(dense)) == n if n else True
    return dense, semisimple


class DerivationSpace:
    """Basis of der(L) inside all dim x dim matrices.

    ``all_inner`` records whether ad(L) already spans the whole space,
    which is the case exactly when L is semisimple in the catalog.
    """

    __slots__ = ("parent", "basis", "all_inner", "contains_inner")

    def __init__(self, parent, basis, all_inner, contains_inner):
        self.parent = parent
        self.basis = tuple(basis)
        self.all_inner = all_inner
        self.contains_inner = contains_inner

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"DerivationSpace(dim={self.dim}, all_inner={self.all_inner})"


def derivations(L: LieAlgebra) -> DerivationSpace:
    """Solve D[b_i,b_j] = [D b_i, b_j] + [b_i, D b_j] for matrices D.

    Unknowns are the n^2 matrix entries D[r][c] in row-major order.
    """
    n = L.dim
    rows = []
    for i, j in combinations(range(n), 2):
        bracket = L.bracket_basis(i, j)
        for k in range(n):
            row = {}

            def add(r, c, value):
                if value:
                    idx = r * n + c
                    updated = row.get(idx, _ZERO) + value
                    if updated:
                        row[idx] = updated
                    elif idx in row:
                        del row[idx]

            for l, coef in bracket.items():
                add(k, l, coef)
            for r in range(n):
                add(r, i, -L.bracket_basis(r, j).get(k, _ZERO))
                add(r, j, -L.bracket_basis(i, r).get(k, _ZERO))
            rows.append(row)
    system = SparseMatrix.from_rows(rows, n * n)
    kernel = kernel_basis(system)
    basis = []
    for flat in kernel.basis_vectors():
        basis.append(tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n)))
    ad_span = Subspace.from_spanning(
        n * n, [tuple(x for row in L.ad(i).to_dense() for x in row) for i in range(n)]
    )
    contains_inner = all(
        kernel.contains(v) for v in ad_span.basis_vectors()
    )
    all_inner = contains_inner and ad_span.dim == kernel.dim
    return DerivationSpace(L, basis, all_inner, contains_inner)


def bracket_pair_matrix(L: LieAlgebra):
    """Matrix of the bracket map Lambda^2 L -> L: column (i, j) with
    i < j holds the coordinates of [b_i, b_j]."""
    n = L.dim
    pairs = list(combinations(range(n), 2))
    data = {}
    for t, (i, j) in enumerate(pairs):
        for k, c in L.bracket_basis(i, j).items():
            data[(k, t)] = c
    return pairs, SparseMatrix(n, len(pairs), data)


def perfect_witness(L: LieAlgebra, x) -> list:
    """Write x as an exact finite sum of commutators.

    Returns [(mu_1, nu_1), ...] of Elements with x = sum [mu_t, nu_t].
    Raises NotInDerivedAlgebraError with the defect class in L/[L, L]
    when x is not a sum of commutators.
    """
    coords = x.coords if isinstance(x, Element) else vector(x)
    if len(coords) != L.dim:
        raise DimensionMismatchError("element length must match the algebra dimension")
    pairs, matrix = bracket_pair_matrix(L)
    solution = solve_linear(matrix, coords)
    if solution is None:
        derived = Subspace.from_spanning(
            L.dim, [matrix.column(t) for t in range(len(pairs))]
        )
        defect = quotient_space(L.dim, derived).project(coords)
        raise NotInDerivedAlgebraError(defect)
    witness = []
    total = [_ZERO] * L.dim
    for t, coef in enumerate(solution):
        if not coef:
            continue
        i, j = pairs[t]
        mu = [_ZERO] * L.dim
        mu[i] = coef
        nu = [_ZERO] * L.dim
        nu[j] = Fraction(1)
        witness.append((Element(L, mu), Element(L, nu)))
        for k, c in L.bracket_basis(i, j).items():
            total[k] += coef * c
    assert tuple(total) == tuple(coords), "witness recombination failed"
    return witness


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    pairs, matrix = bracket_pair_matrix(L)
    return Subspace.from_spanning(L.dim, [matrix.column(t) for t in range(len(pairs))])


def is_perfect(L: LieAlgebra) -> bool:
    return derived_subalgebra(L).dim == L.dim


def direct_sum(*algebras: LieAlgebra) -> LieAlgebra:
    """Direct sum with componentwise brackets; duplicate labels get a
    positional suffix so the result stays readable."""
    labels = []
    seen = {}
    for idx, alg in enumerate(algebras):
        for s in alg.labels:
            if s in seen or any(s == t for other in algebras[idx + 1:] for t in other.labels):
                labels.append(f"{s}.{idx + 1}")
                seen[s] = True
            else:
                labels.append(s)
                seen[s] = True
    entries = []
    offset = 0
    for alg in algebras:
        for i, j, k, c in alg.structure_entries():
            entries.append((i + offset, j + offset, k + offset, c))
        offset += alg.dim
    return LieAlgebra(labels, entries)


def lie_from_matrices(labels: Sequence[str], mats: Sequence[Sequence[Sequence]]) -> LieAlgebra:
    """Structure constants of a matrix Lie algebra spanned by ``mats``.

    The matrices must be linearly independent and closed under the
    commutator; both conditions are checked exactly.
    """
    n = len(mats)
    if n == 0:
        return LieAlgebra(labels, ())
    d = len(mats[0])
    mats = [tuple(tuple(_as_fraction(x) for x in row) for row in m) for m in mats]

    def flat(m):
        return tuple(x for row in m for x in row)

    span = SparseMatrix.from_dense([flat(m) for m in mats]).transpose()
    if rank(span) != n:
        raise ValueError("matrix basis is not linearly independent")
    entries = []
    for i, j in combinations(range(n), 2):
        a, b = mats[i], mats[j]
        comm = [
            [
                sum((a[r][t] * b[t][c] - b[r][t] * a[t][c] for t in range(d)), _ZERO)
                for c in range(d)
            ]
            for r in range(d)
        ]
        coords = solve_linear(span, flat(comm))
        if coords is None:
            raise ValueError(f"commutator of basis elements {i}, {j} leaves the span")
        for k, c in enumerate(coords):
            if c:
                entries.append((i, j, k, c))
    return LieAlgebra(labels, entries)


def realify(L: LieAlgebra, imag_prefix: str = "i") -> LieAlgebra:
    """View L with complexified scalars as a rational algebra of twice
    the dimension, on the basis (b_0, ..., b_{n-1}, i b_0, ..., i b_{n-1})."""
    n = L.dim
    labels = list(L.labels) + [imag_prefix + s for s in L.labels]
    entries = []
    for i, j, k, c in L.structure_entries():
        entries.append((i, j, k, c))
        entries.append((i, n + j, n + k, c))
        entries.append((j, n + i, n + k, -c))
        entries.append((n + i, n + j, k, -c))
    return LieAlgebra(labels, entries)
