"""Universal invariant symmetric bilinear forms.

The symmetric square S2(L) carries the derivation action
D.(x . y) = Dx . y + x . Dy.  Quotienting S2(L) by the span of that
action yields the universal target V(L), and the composite
kappa(x, y) = [x . y] is the universal invariant form: every symmetric
bilinear form that is killed by all derivations factors uniquely
through kappa, and factor_through computes that factorisation.

Everything up to the quotient is integer.  Each generator D.(b_i . b_j)
of the action span is a sparse integer row formed from the nonzero
entries of the integer derivation columns (DerivationSpace._columns),
and the rows reach the eliminator as they are.  kappa on the symmetric
basis is read off the echelon rows of that span, one unit vector at a
time (QuotientSpace._coordinates), and kept as integer rows over one
denominator; factor_through solves against those rows as they are.
BilinearForm.invariance_defect sums integers over the nonzero entries
of each derivation.  The public values (kappa, kappa_table,
kappa_basis, the dense derivation basis, FactorMap) stay Fractions,
built when they are read, and every operand length is checked
(DimensionMismatchError).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    NotInvariantError,
    NotSymmetricError,
)
from .lie import DerivationSpace, LieAlgebra, derivations
from .linalg import (
    SparseMatrix,
    Subspace,
    Vec,
    _as_fraction,
    _dense,
    _over_lcm,
    quotient_space,
    rank,
    solve_many,
    vector,
)

_ZERO = Fraction(0)


class SymSquare:
    """Index bookkeeping for the symmetric square of an n-dim space."""

    __slots__ = ("parent", "pairs", "index")

    def __init__(self, parent: LieAlgebra):
        self.parent = parent
        self.pairs = tuple(combinations_with_replacement(range(parent.dim), 2))
        self.index = {pair: t for t, pair in enumerate(self.pairs)}

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def flat(self, i: int, j: int) -> int:
        return self.index[(i, j) if i <= j else (j, i)]

    def product_coords(self, x: Sequence, y: Sequence) -> Vec:
        """Coordinates of the symmetrised tensor x . y."""
        if len(x) != self.parent.dim or len(y) != self.parent.dim:
            raise DimensionMismatchError(
                "symmetric product operands must match the algebra dimension"
            )
        out = [_ZERO] * self.dim
        nz_x = [(i, _as_fraction(a)) for i, a in enumerate(x) if a]
        nz_y = [(j, _as_fraction(b)) for j, b in enumerate(y) if b]
        for i, a in nz_x:
            for j, b in nz_y:
                out[self.flat(i, j)] += a * b
        return tuple(out)


class BilinearForm:
    """Bilinear map L x L -> QQ^w given by its values on basis pairs."""

    __slots__ = ("dim", "target_dim", "values")

    def __init__(self, dim: int, target_dim: int, values):
        self.dim = dim
        self.target_dim = target_dim
        self.values = tuple(
            tuple(vector(v) for v in row) for row in values
        )
        if len(self.values) != dim or any(len(row) != dim for row in self.values):
            raise DimensionMismatchError("bilinear form table must be square")
        for row in self.values:
            for v in row:
                if len(v) != target_dim:
                    raise DimensionMismatchError("bilinear form value has wrong length")

    @classmethod
    def from_matrix(cls, matrix) -> "BilinearForm":
        n = len(matrix)
        return cls(n, 1, [[(entry,) for entry in row] for row in matrix])

    def value(self, i: int, j: int) -> Vec:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis pair ({i}, {j}) out of range({self.dim})")
        return self.values[i][j]

    def symmetry_defect(self) -> Optional[tuple]:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.values[i][j] != self.values[j][i]:
                    return (i, j)
        return None

    def invariance_defect(self, ders: DerivationSpace) -> Optional[tuple]:
        """First (derivation index, i, j) with beta(Dx,y) + beta(x,Dy) != 0.

        The sums are integer: beta is scaled to integers over one
        denominator, each D to its integer columns (a positive scale
        changes no zero test), and only their nonzero entries are visited."""
        if ders.parent.dim != self.dim:
            raise DimensionMismatchError("derivations act on an algebra of another dimension")
        n, w = self.dim, self.target_dim
        den = lcm(*[v.denominator for row in self.values for value in row for v in value])
        beta = [[[(a, v.numerator * (den // v.denominator)) for a, v in enumerate(value) if v]
                 for value in row] for row in self.values]
        for d_idx, columns in enumerate(ders._columns()):
            for i in range(n):
                for j in range(i, n):
                    if not (columns[i] or columns[j]):
                        continue
                    total = [0] * w
                    for r, c in columns[i]:
                        for a, v in beta[r][j]:
                            total[a] += c * v
                    for r, c in columns[j]:
                        for a, v in beta[i][r]:
                            total[a] += c * v
                    if any(total):
                        return (d_idx, i, j)
        return None


class UniversalFormSpace:
    """V(L) together with the universal form kappa.

    _kappa holds kappa on the symmetric basis as integer rows over one
    denominator, (den, rows): rows[t] / den is kappa of symmetric pair t,
    read off the echelon rows of the action span (QuotientSpace.
    _coordinates).  kappa_table and kappa_basis build Fractions when
    they are read.
    """

    __slots__ = ("parent", "sym", "ders", "v_space", "_kappa")

    def __init__(self, parent, sym, ders, v_space):
        self.parent = parent
        self.sym = sym
        self.ders = ders
        self.v_space = v_space
        den, rows = _over_lcm({t: v_space._coordinates({t: 1}) for t in range(sym.dim)})
        self._kappa = (den, list(rows.values()))

    @property
    def dim(self) -> int:
        return self.v_space.dim

    @property
    def kappa_table(self) -> tuple:
        """kappa of every symmetric basis pair, in SymSquare order, as
        Fraction tuples in the canonical V(L) coordinates."""
        den, rows = self._kappa
        return tuple(_dense(row, den, self.dim) for row in rows)

    def kappa_basis(self, i: int, j: int) -> Vec:
        """kappa(b_i, b_j) in the canonical V(L) coordinates."""
        n = self.parent.dim
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"basis pair ({i}, {j}) out of range({n})")
        den, rows = self._kappa
        return _dense(rows[self.sym.flat(i, j)], den, self.dim)

    def kappa(self, x: Sequence, y: Sequence) -> Vec:
        return self.v_space.project(self.sym.product_coords(x, y))

    def kappa_form(self) -> BilinearForm:
        n = self.parent.dim
        return BilinearForm(
            n, self.dim, [[self.kappa_basis(i, j) for j in range(n)] for i in range(n)]
        )

    def __repr__(self):
        return f"UniversalFormSpace(dim V = {self.dim}, parent dim = {self.parent.dim})"


def v_space_and_kappa(L: LieAlgebra) -> UniversalFormSpace:
    """Build V(L) = S2(L) / <der(L).S2(L)> and kappa = projection of
    the symmetrised tensor.

    The action span is generated from a basis of der(L) applied to the
    symmetric basis vectors; linearity of the action makes that span
    the full <der(L).S2(L)>.

    This is the derivation quotient.  Neeb-Wockel's V(g) = S2(g) / g.S2(g)
    quotients by the adjoint action instead; the two agree on semisimple
    L, where every derivation is inner, and differ elsewhere: dim V is
    1 here against 2 for gl2, 0 against 3 for heis3 and 0 against 6 for
    abelian:3.  The criterion V(abelian:n) = 0 refers to this definition.
    """
    ders = derivations(L)
    sym = SymSquare(L)
    flat = sym.flat
    generators = []
    for columns in ders._columns():
        for i, j in sym.pairs:
            # D.(b_i . b_j) = sum_r D[r][i] b_r . b_j + D[r][j] b_i . b_r
            if not (columns[i] or columns[j]):
                continue
            out = {}
            for r, c in columns[i]:
                t = flat(r, j)
                out[t] = out.get(t, 0) + c
            for r, c in columns[j]:
                t = flat(i, r)
                out[t] = out.get(t, 0) + c
            generators.append({t: c for t, c in out.items() if c})
    sub = Subspace._from_integer_rows(sym.dim, generators)
    return UniversalFormSpace(L, sym, ders, quotient_space(sym.dim, sub))


class FactorMap:
    """Linear map V(L) -> QQ^w produced by factor_through."""

    __slots__ = ("source", "target_dim", "matrix")

    def __init__(self, source: UniversalFormSpace, target_dim: int, matrix):
        self.source = source
        self.target_dim = target_dim
        self.matrix = tuple(tuple(row) for row in matrix)

    def apply(self, v_coords: Sequence) -> Vec:
        if len(v_coords) != self.source.dim:
            raise DimensionMismatchError(
                f"V(L) coordinates have length {len(v_coords)}, not {self.source.dim}"
            )
        return tuple(
            sum((row[t] * v_coords[t] for t in range(len(v_coords)) if v_coords[t]), _ZERO)
            for row in self.matrix
        )

    def rank(self) -> int:
        return rank(SparseMatrix.from_dense(self.matrix)) if self.matrix else 0

    def kernel_dim(self) -> int:
        return self.source.dim - self.rank()

    def is_identity(self) -> bool:
        if self.target_dim != self.source.dim:
            return False
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(self.target_dim)
            for j in range(self.source.dim)
        )

    def __repr__(self):
        return f"FactorMap({self.source.dim} -> {self.target_dim})"


def factor_through(F: UniversalFormSpace, beta: BilinearForm) -> FactorMap:
    """Unique linear map phi with beta = phi o kappa.

    beta must be symmetric and derivation invariant; both preconditions
    are checked and reported with witnesses.  Existence and uniqueness
    then follow because kappa's values span V(L); the result is verified
    on all basis pairs before returning.
    """
    if beta.dim != F.parent.dim:
        raise DimensionMismatchError("form dimension does not match the algebra")
    pair = beta.symmetry_defect()
    if pair is not None:
        raise NotSymmetricError(pair)
    witness = beta.invariance_defect(F.ders)
    if witness is not None:
        raise NotInvariantError(witness)
    v = F.dim
    w = beta.target_dim
    # kappa values on the symmetric basis span V, so K has full column rank
    # and the canonical solve is the unique solution.
    den, rows = F._kappa
    kappa_rows = SparseMatrix._from_integer_rows(F.sym.dim, v, dict(enumerate(rows)), den)
    values = [beta.value(*pair) for pair in F.sym.pairs]
    matrix = solve_many(kappa_rows, [tuple(value[a] for value in values) for a in range(w)])
    if None in matrix:
        raise InternalConsistencyError(
            "invariant symmetric form failed to factor through kappa"
        )
    result = FactorMap(F, w, matrix)
    n = F.parent.dim
    for i in range(n):
        for j in range(i, n):
            if result.apply(F.kappa_basis(i, j)) != beta.value(i, j):
                raise InternalConsistencyError(
                    "factorisation check failed on a basis pair"
                )
    return result
