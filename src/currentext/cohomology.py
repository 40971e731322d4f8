"""Chevalley-Eilenberg cochain complexes with trivial coefficients.

Cochain spaces C^p(L, QQ^m) are indexed by strictly increasing p-tuples
of basis indices times a coefficient index.  The differential is fixed
once and for all as

    (d psi)(x_0, ..., x_p) =
        sum_{i<j} (-1)^{i+j} psi([x_i, x_j], x_0, ..., ^x_i, ..., ^x_j, ..., x_p)

so that for a 1-cochain beta we get (d beta)(x, y) = -beta([x, y]).
Any consistent sign convention yields the same cohomology, but witnesses
must be reproducible, so this one is canonical throughout the package.

Cost contract: the differential is assembled from the nonzero brackets
only (each pair a < b with [x_a, x_b] != 0 times the (p-1)-subsets of
the other indices), with rows and columns placed by the lexicographic
rank of their index tuples, so assembly costs O(nnz) rather than a visit
to every target tuple.  Kernels, projections and representatives are
then computed on sparse rows (see ``linalg`` for the elimination costs).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    NotACocycleError,
    ResourceCeilingError,
)
from .lie import LieAlgebra, same_algebra
from .linalg import (
    SparseMatrix,
    Subspace,
    Vec,
    _as_fraction,
    kernel_basis,
    quotient_space,
    rref_with_transform,
    solve_linear,
    vector,
    zero_vector,
)

_ZERO = Fraction(0)

DEFAULT_COCHAIN_CEILING = 200_000


class CochainSpace:
    """Basis bookkeeping for C^p(L, QQ^m) with trivial coefficients."""

    __slots__ = ("parent", "degree", "coeff_dim", "tuples", "index")

    def __init__(self, parent: LieAlgebra, degree: int, coeff_dim: int):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        self.parent = parent
        self.degree = degree
        self.coeff_dim = coeff_dim
        self.tuples = tuple(combinations(range(parent.dim), degree))
        self.index = {t: r for r, t in enumerate(self.tuples)}

    @property
    def dim(self) -> int:
        return len(self.tuples) * self.coeff_dim

    def flat(self, tup, a: int) -> int:
        return self.index[tup] * self.coeff_dim + a

    def unflat(self, idx: int):
        return self.tuples[idx // self.coeff_dim], idx % self.coeff_dim


def _guard(n: int, degree: int, coeff_dim: int, ceiling: Optional[int]):
    limit = DEFAULT_COCHAIN_CEILING if ceiling is None else ceiling
    needed = comb(n, degree) * coeff_dim
    if needed > limit:
        raise ResourceCeilingError(needed, limit)


def _tuple_rank(tup, n: int, binom) -> int:
    """Position of the increasing sequence ``tup`` in combinations(range(n), k).

    Lexicographic rank: comb(n, k) - 1 - sum_i comb(n - 1 - c_i, k - i),
    with binom[a][b] = comb(a, b).
    """
    k = len(tup)
    r = binom[n][k] - 1
    for i, c in enumerate(tup):
        r -= binom[n - 1 - c][k - i]
    return r


def ce_differential(
    L: LieAlgebra, p: int, m: int, *, ceiling: Optional[int] = None
) -> SparseMatrix:
    """Matrix of the differential C^p(L, QQ^m) -> C^{p+1}(L, QQ^m).

    Only nonzero brackets contribute: the entry of target tuple
    rest + {a, b} (a < b at positions i < j) in source tuple rest + {k}
    gains (-1)^(i+j) (-1)^#{t in rest : t < k} [x_a, x_b]_k.  Trivial
    coefficients make the matrix a block-diagonal expansion of the
    scalar (m = 1) differential.
    """
    if not (0 <= p <= L.dim):
        raise ValueError(f"degree {p} out of range for dim {L.dim}")
    _guard(L.dim, p + 1, m, ceiling)
    n = L.dim
    binom = [[comb(a, b) for b in range(p + 2)] for a in range(n + 1)]
    scalar = {}
    if p >= 1:
        for a, b in combinations(range(n), 2):
            bracket = L.bracket_basis(a, b)
            if not bracket:
                continue
            terms = [(k, (c, -c)) for k, c in bracket.items()]
            others = [t for t in range(n) if t != a and t != b]
            for rest in combinations(others, p - 1):
                i = bisect_left(rest, a)
                j = bisect_left(rest, b) + 1
                row = _tuple_rank(sorted(rest + (a, b)), n, binom)
                for k, signed in terms:
                    if k in rest:
                        continue
                    pos = bisect_left(rest, k)
                    term = signed[(i + j + pos) % 2]
                    key = (row, _tuple_rank(sorted(rest + (k,)), n, binom))
                    value = scalar.get(key)
                    value = term if value is None else value + term
                    if value:
                        scalar[key] = value
                    else:
                        scalar.pop(key, None)
    data = {}
    for (row, col), value in scalar.items():
        for a in range(m):
            data[(row * m + a, col * m + a)] = value
    return SparseMatrix(binom[n][p + 1] * m, binom[n][p] * m, data)


class Cocycle2:
    """Alternating bilinear map on L with values in QQ^m.

    Values are stored for i < j only; i > j is derived by negation and
    the diagonal is zero, so the stored object is alternating by
    construction.
    """

    __slots__ = ("parent", "coeff_dim", "values", "note")

    def __init__(self, parent: LieAlgebra, coeff_dim: int, values=(), note: Optional[str] = None):
        self.parent = parent
        self.coeff_dim = coeff_dim
        table = {}
        items = values.items() if hasattr(values, "items") else values
        for (i, j), value in items:
            if not (0 <= i < j < parent.dim):
                raise ValueError(f"cocycle table key ({i}, {j}) must satisfy i < j")
            value = vector(value)
            if len(value) != coeff_dim:
                raise DimensionMismatchError("cocycle value has wrong coefficient length")
            if any(value):
                table[(i, j)] = value
        self.values = table
        self.note = note

    @classmethod
    def zero(cls, parent: LieAlgebra, coeff_dim: int, note: Optional[str] = None) -> "Cocycle2":
        return cls(parent, coeff_dim, {}, note)

    @classmethod
    def from_flat(cls, parent: LieAlgebra, coeff_dim: int, flat: Sequence) -> "Cocycle2":
        space = CochainSpace(parent, 2, coeff_dim)
        if len(flat) != space.dim:
            raise DimensionMismatchError("flat cocycle vector has wrong length")
        table = {}
        for r, (i, j) in enumerate(space.tuples):
            value = tuple(
                _as_fraction(flat[r * coeff_dim + a]) for a in range(coeff_dim)
            )
            if any(value):
                table[(i, j)] = value
        return cls(parent, coeff_dim, table)

    def value(self, i: int, j: int) -> Vec:
        if i == j:
            return zero_vector(self.coeff_dim)
        if i < j:
            return self.values.get((i, j), zero_vector(self.coeff_dim))
        v = self.values.get((j, i))
        return tuple(-x for x in v) if v else zero_vector(self.coeff_dim)

    def flat(self) -> Vec:
        space = CochainSpace(self.parent, 2, self.coeff_dim)
        out = [_ZERO] * space.dim
        for (i, j), value in self.values.items():
            base = space.index[(i, j)] * self.coeff_dim
            for a, x in enumerate(value):
                out[base + a] = x
        return tuple(out)

    def apply(self, u: Sequence, v: Sequence) -> Vec:
        out = [_ZERO] * self.coeff_dim
        nz_u = [(i, _as_fraction(a)) for i, a in enumerate(u) if a]
        nz_v = [(j, _as_fraction(b)) for j, b in enumerate(v) if b]
        for i, a in nz_u:
            for j, b in nz_v:
                if i == j:
                    continue
                coef = a * b
                for t, x in enumerate(self.value(i, j)):
                    out[t] += coef * x
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "Cocycle2") -> "Cocycle2":
        if not same_algebra(other.parent, self.parent) or other.coeff_dim != self.coeff_dim:
            raise DimensionMismatchError("cocycle mismatch in addition")
        table = dict(self.values)
        for key, value in other.values.items():
            current = table.get(key)
            merged = value if current is None else tuple(a + b for a, b in zip(current, value))
            if any(merged):
                table[key] = merged
            elif key in table:
                del table[key]
        return Cocycle2(self.parent, self.coeff_dim, table)

    def __neg__(self) -> "Cocycle2":
        return Cocycle2(
            self.parent,
            self.coeff_dim,
            {k: tuple(-x for x in v) for k, v in self.values.items()},
        )

    def __sub__(self, other: "Cocycle2") -> "Cocycle2":
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle2)
            and same_algebra(other.parent, self.parent)
            and other.coeff_dim == self.coeff_dim
            and other.values == self.values
        )

    def entries(self):
        """Sorted (i, j, value tuple) triplets; canonical serialisation."""
        return [(i, j, self.values[(i, j)]) for (i, j) in sorted(self.values)]

    def cocycle_defect(self) -> Optional[tuple]:
        """First basis triple violating the cocycle identity, or None.

        The identity checked is psi([x,y],z) - psi([x,z],y) + psi([y,z],x) = 0,
        equivalently the vanishing of the differential fixed above.
        """
        L = self.parent
        for i, j, k in combinations(range(L.dim), 3):
            total = [_ZERO] * self.coeff_dim
            for (a, b, c, sgn) in ((i, j, k, 1), (i, k, j, -1), (j, k, i, 1)):
                for t, coef in L.bracket_basis(a, b).items():
                    for s, x in enumerate(self.value(t, c)):
                        total[s] += sgn * coef * x
            if any(total):
                return ((i, j, k), tuple(total))
        return None

    def __repr__(self):
        return (
            f"Cocycle2(dim L = {self.parent.dim}, coeff_dim = {self.coeff_dim}, "
            f"nonzero pairs = {len(self.values)})"
        )


class OneCochain:
    """Linear map L -> QQ^m given by its values on the basis."""

    __slots__ = ("parent", "coeff_dim", "values")

    def __init__(self, parent: LieAlgebra, coeff_dim: int, values):
        self.parent = parent
        self.coeff_dim = coeff_dim
        self.values = tuple(vector(v) for v in values)
        if len(self.values) != parent.dim:
            raise DimensionMismatchError("one-cochain table must cover the basis")
        for v in self.values:
            if len(v) != coeff_dim:
                raise DimensionMismatchError("one-cochain value has wrong length")

    @classmethod
    def zero(cls, parent: LieAlgebra, coeff_dim: int) -> "OneCochain":
        return cls(parent, coeff_dim, [zero_vector(coeff_dim)] * parent.dim)

    @classmethod
    def from_flat(cls, parent: LieAlgebra, coeff_dim: int, flat: Sequence) -> "OneCochain":
        if len(flat) != parent.dim * coeff_dim:
            raise DimensionMismatchError("flat one-cochain has wrong length")
        return cls(
            parent,
            coeff_dim,
            [flat[i * coeff_dim:(i + 1) * coeff_dim] for i in range(parent.dim)],
        )

    def flat(self) -> Vec:
        return tuple(x for v in self.values for x in v)

    def apply(self, coords: Sequence) -> Vec:
        out = [_ZERO] * self.coeff_dim
        for i, c in enumerate(coords):
            if c:
                c = _as_fraction(c)
                for a, x in enumerate(self.values[i]):
                    out[a] += c * x
        return tuple(out)

    def coboundary(self) -> Cocycle2:
        """(d beta)(x, y) = -beta([x, y])."""
        L = self.parent
        table = {}
        for i, j in combinations(range(L.dim), 2):
            total = [_ZERO] * self.coeff_dim
            for k, c in L.bracket_basis(i, j).items():
                for a, x in enumerate(self.values[k]):
                    total[a] -= c * x
            if any(total):
                table[(i, j)] = tuple(total)
        return Cocycle2(L, self.coeff_dim, table)

    def __eq__(self, other):
        return (
            isinstance(other, OneCochain)
            and same_algebra(other.parent, self.parent)
            and other.values == self.values
        )

    def __repr__(self):
        return f"OneCochain(dim L = {self.parent.dim}, coeff_dim = {self.coeff_dim})"


class Cohomology:
    """H^p(L, QQ^m) with echelon-normalised representatives.

    Representatives are cocycle vectors whose classes form the reduced
    echelon basis of ker d^p / im d^{p-1} in the canonical quotient
    coordinates, so the output is deterministic.
    """

    __slots__ = (
        "parent",
        "degree",
        "coeff_dim",
        "dimension",
        "space",
        "representatives",
        "quotient",
        "class_rows",
        "class_pivots",
    )

    def __init__(self, parent, degree, coeff_dim, dimension, space,
                 representatives, quotient, class_rows, class_pivots):
        self.parent = parent
        self.degree = degree
        self.coeff_dim = coeff_dim
        self.dimension = dimension
        self.space = space
        self.representatives = tuple(representatives)
        self.quotient = quotient
        self.class_rows = tuple(class_rows)
        self.class_pivots = tuple(class_pivots)

    def class_coordinates(self, flat_vec: Sequence) -> Vec:
        """Coordinates of a cocycle's class in the representative basis."""
        q = list(self.quotient.project(flat_vec))
        coords = []
        for pivot, row in zip(self.class_pivots, self.class_rows):
            c = q[pivot]
            coords.append(c)
            if c:
                for col, value in enumerate(row):
                    if value:
                        q[col] -= c * value
        if any(q):
            raise InternalConsistencyError(
                "vector class lies outside the cocycle span; input is not a cocycle"
            )
        return tuple(coords)

    def representative_cocycles(self):
        if self.degree != 2:
            raise ValueError("representative_cocycles applies to degree 2 only")
        return [
            Cocycle2.from_flat(self.parent, self.coeff_dim, v)
            for v in self.representatives
        ]

    def __repr__(self):
        return (
            f"Cohomology(H^{self.degree}, dim = {self.dimension}, "
            f"coeff_dim = {self.coeff_dim})"
        )


def cohomology(
    L: LieAlgebra, p: int, m: int, *, ceiling: Optional[int] = None
) -> Cohomology:
    """Compute H^p(L, QQ^m) = ker d^p / im d^{p-1} with representatives."""
    if p < 1:
        raise ValueError("cohomology degree must be at least 1")
    d_up = ce_differential(L, p, m, ceiling=ceiling)
    space = CochainSpace(L, p, m)
    cocycles = kernel_basis(d_up)
    if p == 1:
        image = Subspace.zero(space.dim)  # trivial coefficients: d^0 = 0
    else:
        d_down = ce_differential(L, p - 1, m, ceiling=ceiling)
        image = Subspace.from_spanning(
            space.dim, d_down.transpose().row_dicts()
        )
    quotient = quotient_space(space.dim, image)
    z_rows = cocycles.basis_rows()
    projected = [quotient.project(row) for row in z_rows]
    reduced = rref_with_transform(projected, quotient.dim)
    representatives = []
    class_rows = []
    class_pivots = []
    for vec_part, combo, pivot in reduced:
        rep = [_ZERO] * space.dim
        for t, coef in enumerate(combo):
            if coef:
                for col, value in z_rows[t].items():
                    rep[col] += coef * value
        representatives.append(tuple(rep))
        class_rows.append(vec_part)
        class_pivots.append(pivot)
    dimension = len(representatives)
    if dimension != cocycles.dim - image.dim:
        raise InternalConsistencyError(
            "cohomology dimension bookkeeping failed (is d o d = 0 violated?)"
        )
    return Cohomology(
        L, p, m, dimension, space, representatives, quotient, class_rows, class_pivots
    )


class CoboundaryWitness:
    """Result of coboundary_witness: either a primitive or the class."""

    __slots__ = ("beta", "class_coordinates", "cohomology")

    def __init__(self, beta, class_coordinates, cohomology_result):
        self.beta = beta
        self.class_coordinates = class_coordinates
        self.cohomology = cohomology_result

    @property
    def is_exact(self) -> bool:
        return self.beta is not None

    def __repr__(self):
        if self.is_exact:
            return "CoboundaryWitness(exact)"
        return f"CoboundaryWitness(class = {[str(c) for c in self.class_coordinates]})"


def coboundary_witness(
    psi: Cocycle2,
    *,
    h2: Optional[Cohomology] = None,
    ceiling: Optional[int] = None,
) -> CoboundaryWitness:
    """Find beta with (d beta) = psi, or the class of psi in H^2.

    psi must be a cocycle; otherwise NotACocycleError carries the first
    violating basis triple.  The returned primitive is the canonical
    solution of the linear system, so repeated runs agree bit for bit.
    """
    defect = psi.cocycle_defect()
    if defect is not None:
        raise NotACocycleError(*defect)
    L = psi.parent
    m = psi.coeff_dim
    delta1 = ce_differential(L, 1, m, ceiling=ceiling)
    flat = psi.flat()
    solution = solve_linear(delta1, flat)
    if solution is not None:
        beta = OneCochain.from_flat(L, m, solution)
        return CoboundaryWitness(beta, None, None)
    if h2 is None:
        h2 = cohomology(L, 2, m, ceiling=ceiling)
    return CoboundaryWitness(None, h2.class_coordinates(flat), h2)
