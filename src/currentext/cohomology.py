"""Chevalley-Eilenberg cochain complexes with trivial coefficients.

Only the scalar complex C^p(L, QQ) is assembled.  Its basis is the
strictly increasing p-tuples of basis indices, and outside a matrix a
cochain is keyed by them: a scalar cochain is {p-tuple: value}, and one
with values in QQ^m is {p-tuple: m-tuple}, as in Cocycle2.values.  Only
matrix rows and columns number the tuples, by lexicographic rank in
combinations(range(dim L), p), read off one table of binomials per
degree (_rank_table): the rank of t is comb(n, p) - 1 minus a sum of one
table entry per position.  Assembly never builds a target tuple; it
adds the entries of the two inserted indices to prefix sums cached per
source less one index (_assemble).  Trivial coefficients QQ^m are a tensor
factor: C^p(L, QQ^m) = C^p(L, QQ) (x) QQ^m, the differential is d (x) id,
and H^p(L, QQ^m) = H^p(L, QQ) (x) QQ^m.  So the scalar complex is solved
once and each coefficient slot a of a cochain, {t: value[a]}, is handled
by the scalar answer.  The differential is fixed once and for all as

    (d psi)(x_0, ..., x_p) =
        sum_{i<j} (-1)^{i+j} psi([x_i, x_j], x_0, ..., ^x_i, ..., ^x_j, ..., x_p)

so that for a 1-cochain beta we get (d beta)(x, y) = -beta([x, y]).
Any consistent sign convention yields the same cohomology, but witnesses
must be reproducible, so this one is canonical throughout the package.

Weight-zero block: call a basis element x_t a torus element when ad(x_t)
is diagonal in the basis with a nonzero eigenvalue (h (x) e_s in
sl2 (x) fun:n*X, the diagonal h1, h2 of sl3).  Torus elements commute,
every basis element is a weight vector for them, and a basis tuple's
weight is the sum of its entries' weights.  The Lie derivative
L_x = d i_x + i_x d of a torus element acts on each weight space of
cochains by a scalar, so every nonzero-weight subcomplex is acyclic
(Hochschild-Serre; Fuks, ch. 1): H^p is the cohomology of the weight-zero
cochains, and a cocycle's class is the class of its weight-zero part.
cohomology() assembles and solves only that block, its tuples kept in
lexicographic order.  The renumbering is monotone and the reduced echelon
form of a block-diagonal matrix is the union of the blocks' forms, so
the representatives are exactly those of the whole complex.  With an
empty torus (heis3, abelian:n, so3) every tuple has weight zero and the
block is the whole complex, on the same code path.

The torus weights are kept as integers: they are read off the integer
bracket table, so every eigenvalue is scaled by the one positive bracket
denominator, which changes no weight sum from zero to nonzero, and the
weight-zero tuples are found by summing ints.
cohomology() reads the torus once and lists the weight-zero tuples of each
degree once, and hands them to ce_differential as its sources.

Ideal classes: the product classes of the basis (lie._product_classes)
span commuting ideals L_s, and L is their direct sum.  In degree 2 the
block leaves out every pair (x, y) with x in L_s, y in L_t, s != t and
L_s or L_t perfect, for any Lie algebra.  For a, b in L_s and y in L_t,
[a, y] = [b, y] = 0, so (d omega)(a, b, y) = -omega([a, b], y), and a
cocycle vanishes on [L_s, L_s] x L_t; on a perfect L_s that is all of
L_s x L_t, and the same holds with s and t swapped.  A coboundary
(d beta)(x, y) = -beta([x, y]) vanishes there too.  So those columns are
zero coordinates of both Z^2 and B^2: the kernel, image, quotient and
class rows are those of the whole block, renumbered monotonically, and
the representatives are the same.  A column left out reaches only the
triples of classes (s, s, t) and (s, t, t), which no kept column
reaches, so the class maps check a cochain's entries on those pairs with
its entries of nonzero weight.  Pairs across two classes that are not
perfect stay in the block: they carry the H^1 (x) H^1 part of H^2 (as
in gl2 + gl2).  This is the Kuenneth split of a direct sum
(Kassel-Loday 1982) read in degree 2: H^2 of the sum is the sum of the
H^2(L_s) and of the H^1(L_s) (x) H^1(L_t) for s < t.

Representatives: the class space is the reduced echelon form, in the
quotient coordinates of ker d^p / im d^{p-1} (linalg.QuotientSpace),
spanned by the classes of the integer kernel rows, and rep_k is the lift
of class row k: the row's entries at the image's representative
columns, zero on every pivot column of the image.  The residue of a
cocycle z modulo the image is z - b with b a coboundary, so the lift is
a cocycle; it is the one cocycle of class k that vanishes on the
image's pivot columns, so it does not depend on the order in which the
eliminator picks its pivots, and no row operation is tracked.

Cost contract: the differential is assembled by one routine from the
nonzero brackets only (for each source tuple, the pairs a < b bracketing
into one of its indices), so assembly costs O(nnz) rather than a visit to
every target tuple; ce_differential runs it on every tuple or on the
sources it is given, the weight-zero block that cohomology() solves.
Assembly sums ints: it reads the algebra's integer bracket table, the
structure constants scaled by the lcm of their denominators and built
once with the algebra, and that lcm becomes the one denominator of the
matrix's integer rows, which the eliminator then reads as they are.
Kernels, projections and representatives are then computed on sparse
rows (see ``linalg`` for the elimination costs), and m costs only the
expansion of the scalar answer, never a bigger matrix.  The resource
ceiling counts the full coefficient spaces C^{p+1} and C^p with their
factor m, before anything is assembled, however small the block.  A
cochain given to Cohomology's class maps is split by weight: its
weight-zero entries are read through the block, and d^p is applied to
the others to check that they form a cocycle.

Cochain form: Cocycle2 and OneCochain share one integer form, held by
their base _IntegerCochain: integer m-tuples over one positive
denominator, in lowest terms (the gcd of the denominator and every entry
is 1, linalg._content), as a SparseMatrix holds its rows.  The form is
canonical, so == compares the coefficient dimension and the stored
integers.  The public constructors check and convert their input and
scale it to that form; the package's own routines build cochains from
integers directly (_from_integers), in O(nnz) with no Fraction, and
divide by the gcd once.  Sums, negation, restriction, gluing and the
twist work on the integers; values, value, slot, entries and apply, and
the error payloads, build Fractions only when they are read.
Cocycle2.cocycle_defect evaluates d psi from the same nonzero brackets
against the nonzero values of psi, in O(bracket nnz * n * m), without
visiting the comb(n, 3) triples, and OneCochain.coboundary costs
O(bracket nnz * m).  Both sum the stored integers against the integer
brackets, and only the results carry the two denominators' product.
coboundary_witness solves all m slots of psi at once, before anything
else reads psi, on the integer rows of d^1: row (a, b) is the negated
integer bracket {k: -c_ab^k} over the bracket denominator.  First those
rows alone, without psi, are peeled into a triangular order
(linalg._peel_order), in O(bracket nnz).  When the order fixes every
column, d^1 has rank dim L, so a primitive is unique; it is found by
forward substitution of psi's integers along the order, as integer
m-tuples over one running denominator, and returned when its coboundary
is psi exactly.  The peel fixes every column on the perfect catalog
algebras and their current algebras, in catalog or permuted basis
order.  Otherwise (a dense basis, a centre, or a psi that is no
coboundary) [d^1 | psi] is eliminated once (linalg._solve_rows), one
row per pair in brackets or psi in sorted order, slot t of psi's
integers, scaled by the bracket denominator, in column dim L + t.
Those solutions are read as integers over the lcm of their pivot
entries, and divided by the cocycle's denominator once; no Fraction is
built either way.  A solved psi is d beta, a cocycle since d o d = 0,
so the defect pass runs only when a slot fails to solve: it either
names the violating triple or clears psi for its class coordinates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import lt
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidAlgebraError,
    NotACocycleError,
    ResourceCeilingError,
)
from .lie import (
    LieAlgebra,
    _coboundary_totals,
    _product_classes,
    derived_subalgebra,
    same_algebra,
    validate_lie,
)
from .linalg import (
    SparseMatrix,
    Subspace,
    Vec,
    _as_fraction,
    _content,
    _peel_order,
    _solve_rows,
    kernel_basis,
    quotient_space,
    vector,
    zero_vector,
)

_ZERO = Fraction(0)

DEFAULT_COCHAIN_CEILING = 200_000


def _guard(n: int, degree: int, coeff_dim: int, ceiling: Optional[int]):
    limit = DEFAULT_COCHAIN_CEILING if ceiling is None else ceiling
    needed = comb(n, degree) * coeff_dim
    if needed > limit:
        raise ResourceCeilingError(needed, limit)


def _rank_table(n: int, k: int) -> tuple:
    """(top, T) with T[u][c] = comb(n - 1 - c, k - u): an increasing k-tuple
    t has position top - sum_u T[u][t_u] in combinations(range(n), k).

    sum_u T[u][t_u] counts the k-tuples after t (the combinatorial number
    system; Knuth, TAOCP 4A, 7.2.1.3), and top = comb(n, k) - 1.
    """
    return comb(n, k) - 1, [[comb(n - 1 - c, k - u) for c in range(n)] for u in range(k)]


def _check_element(L: LieAlgebra, coords: Sequence) -> None:
    if len(coords) != L.dim:
        raise DimensionMismatchError("element length must match the algebra dimension")


def _int_key(key, length: int) -> bool:
    """Whether key is a tuple of length ints; a bool is an int too, and
    is refused."""
    return type(key) is tuple and len(key) == length and all(type(x) is int for x in key)


def _check_tuple(t, n: int, p: int) -> None:
    """Raise unless t is an increasing p-tuple in range(n)."""
    if not (isinstance(t, tuple) and len(t) == p and all(map(lt, (-1,) + t, t + (n,)))):
        raise DimensionMismatchError(f"cochain key {t!r} is not an increasing {p}-tuple")


def _torus_weights(L: LieAlgebra) -> list:
    """Integer weight of every basis element under the torus of the basis.

    The torus is every basis element x_t whose ad is diagonal in the basis
    ([x_t, x_j] in QQ x_j for all j) with a nonzero eigenvalue.  Two such
    elements commute, since [x_t, x_s] lies in QQ x_s and in QQ x_t.  The
    weight of x_j is the tuple of its eigenvalues under the torus elements
    in index order, read off the integer bracket table: each eigenvalue
    times the bracket denominator, so weights are integer tuples.  The
    scale is positive and the same for every basis element, so a tuple of
    basis elements has weight zero exactly when its eigenvalues sum to
    zero.  With an empty torus every weight is ().
    """
    n = L.dim
    brackets = L._integer_table[1]
    diagonal = [True] * n
    bracketed = [False] * n
    for (i, j), row in brackets.items():
        bracketed[i] = bracketed[j] = True
        if row.keys() != {j}:
            diagonal[i] = False
        if row.keys() != {i}:
            diagonal[j] = False
    torus = {t: r for r, t in enumerate(t for t in range(n) if diagonal[t] and bracketed[t])}
    weights = [[0] * len(torus) for _ in range(n)]
    for (i, j), row in brackets.items():
        if i in torus:
            weights[j][torus[i]] = row[j]
        if j in torus:
            weights[i][torus[j]] = -row[i]
    return [tuple(w) for w in weights]


def _weight_zero_tuples(weights: list, k: int) -> list:
    """The increasing k-tuples of basis indices whose weights sum to zero,
    in lexicographic order: each (k-1)-prefix is completed from the bucket
    of indices of the opposite weight."""
    if k == 0:
        return [()]
    buckets = {}
    for i, w in enumerate(weights):
        buckets.setdefault(w, []).append(i)
    zero = (0,) * (len(weights[0]) if weights else 0)
    out = []
    for prefix in combinations(range(len(weights)), k - 1):
        # zero keeps the sum's length when the prefix is empty
        need = tuple(-sum(x) for x in zip(zero, *(weights[i] for i in prefix)))
        bucket = buckets.get(need, ())
        start = bisect_right(bucket, prefix[-1]) if prefix else 0
        out.extend(prefix + (c,) for c in bucket[start:])
    return out


def _assemble(L: LieAlgebra, p: int, sources: Sequence) -> tuple:
    """(den, rows): d^p on the p-tuples sources[c] is rows[r][c] / den, r
    the lexicographic rank of the target (p+1)-tuple.

    The rows are integer: they are read from the algebra's integer
    brackets, and den is their denominator.
    Only nonzero brackets are visited, through the pairs a < b bracketing
    into each index k of a source: the entry of target rest + {a, b}
    (a, b at positions i < j) in source rest + {k} (k at position pos)
    gains (-1)^(i+j+pos) den [x_a, x_b]_k.  Entries that cancel are
    removed, and a row may be left empty.  d preserves torus weights, so
    a weight-zero source only reaches weight-zero targets.
    The target is never built.  Its rank is top - sum_u T[u][t_u]
    (_rank_table), and in it the entries of rest before position i keep
    their place, those between i and j move up one and those after j move
    up two.  With S_s[q] = sum_{u<q} T[u+s][rest[u]], the rank is
    high[j-1] - low[i] - T[i][a] - T[j][b], where low[q] = S_0[q] - S_1[q]
    and high[q] = top - S_1[q] - S_2[len(rest)] + S_2[q].  low and high
    are built once per distinct rest, so an entry costs two bisections
    and four lookups.
    """
    den, brackets = L._integer_table
    into = {}
    for (a, b), bracket in brackets.items():
        for k, c in bracket.items():
            into.setdefault(k, []).append((a, b, (c, -c)))
    top, table = _rank_table(L.dim, p + 1)
    prefix = {}
    rows = {}
    for col, source in enumerate(sources):
        for pos, k in enumerate(source):
            rest = source[:pos] + source[pos + 1:]
            sums = prefix.get(rest)
            if sums is None:
                low, high = [0], [top - sum(map(list.__getitem__, table[2:], rest))]
                for u, c in enumerate(rest):
                    low.append(low[-1] + table[u][c] - table[u + 1][c])
                    high.append(high[-1] - table[u + 1][c] + table[u + 2][c])
                sums = prefix[rest] = low, high
            low, high = sums
            for a, b, signed in into.get(k, ()):
                if a in rest or b in rest:
                    continue
                i = bisect_left(rest, a)
                j = bisect_left(rest, b) + 1
                term = signed[(i + j + pos) % 2]
                r = high[j - 1] - low[i] - table[i][a] - table[j][b]
                row = rows.get(r)
                if row is None:
                    rows[r] = {col: term}
                    continue
                value = row.get(col)
                value = term if value is None else value + term
                if value:
                    row[col] = value
                else:
                    del row[col]
    return den, rows


def ce_differential(
    L: LieAlgebra, p: int, *, ceiling: Optional[int] = None, sources: Optional[Sequence] = None
) -> SparseMatrix:
    """Matrix of the scalar differential C^p(L, QQ) -> C^{p+1}(L, QQ).

    Rows are the lexicographic ranks of the (p+1)-tuples and columns the
    p-tuples in lexicographic order; the entries are those of _assemble,
    kept as its integer rows over the bracket denominator.  Given sources,
    increasing p-tuples, it is d^p restricted to those: they are the
    columns, numbered by position.  cohomology() passes the weight-zero
    p-tuples, and since d preserves weights only weight-zero rows then
    have entries.  C^p = 0 for p > dim L.  With coefficients QQ^m the
    differential is this matrix tensored with the identity of QQ^m; it is
    never expanded.
    """
    if p < 0:
        raise ValueError(f"degree {p} out of range for dim {L.dim}")
    _guard(L.dim, p + 1, 1, ceiling)
    n = L.dim
    if sources is None:
        sources = list(combinations(range(n), p))
    else:
        for t in sources:
            _check_tuple(t, n, p)
    den, rows = _assemble(L, p, sources)
    return SparseMatrix._from_integer_rows(comb(n, p + 1), len(sources), rows, den)


def _integer_tuples(values) -> tuple:
    """(den, ints): Fraction tuples as integer tuples over den, the lcm of
    their entries' denominators."""
    den = lcm(*{x.denominator for value in values for x in value})
    return den, [tuple(x.numerator * (den // x.denominator) for x in value) for value in values]


def _fractions(value: tuple, den: int) -> Vec:
    return tuple(Fraction(x, den) for x in value)


class _IntegerCochain:
    """The integer form Cocycle2 and OneCochain share: integer m-tuples
    over one positive denominator _den, in lowest terms (the gcd of _den
    and every stored entry is 1).  The form is canonical, so == compares
    the algebra, the coefficient dimension and the stored integers."""

    __slots__ = ("parent", "coeff_dim", "_num", "_den")

    @classmethod
    def _from_integers(cls, parent: LieAlgebra, coeff_dim: int, num, den: int = 1):
        """The cochain num / den, num keyed as the class keys its values.

        The caller vouches for the input: keys in range, int m-tuples and
        den positive.  Built in O(nnz) with no Fraction.
        """
        cochain = cls.__new__(cls)
        cochain._set(parent, coeff_dim, num, den)
        return cochain

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and same_algebra(other.parent, self.parent)
            and other.coeff_dim == self.coeff_dim
            and other._den == self._den
            and other._num == self._num
        )


class Cocycle2(_IntegerCochain):
    """Alternating bilinear map on L with values in QQ^m.

    Values are stored for i < j only; i > j is derived by negation and
    the diagonal is zero, so the stored object is alternating by
    construction.  The value at (i, j) is _num[(i, j)] / _den: integer
    m-tuples over one positive denominator in lowest terms
    (_IntegerCochain), no stored tuple zero.  values, value, slot,
    entries and apply build Fractions when they are read.
    """

    __slots__ = ()

    def __init__(self, parent: LieAlgebra, coeff_dim: int, values=()):
        checked = {}
        items = values.items() if hasattr(values, "items") else values
        for key, value in items:
            if not _int_key(key, 2):
                raise ValueError(f"cocycle table key {key!r} is not a pair of ints")
            i, j = key
            if not (0 <= i < j < parent.dim):
                raise ValueError(f"cocycle table key ({i}, {j}) must satisfy i < j")
            if (i, j) in checked:
                raise ValueError(f"duplicate cocycle table key ({i}, {j})")
            value = vector(value)
            if len(value) != coeff_dim:
                raise DimensionMismatchError("cocycle value has wrong coefficient length")
            checked[(i, j)] = value
        den, ints = _integer_tuples(checked.values())
        self._set(parent, coeff_dim, dict(zip(checked, ints)), den)

    def _set(self, parent, coeff_dim, num, den):
        """Store {(i, j): m-tuple} / den in canonical form: zero tuples
        dropped, num and den divided by their gcd."""
        num = {pair: value for pair, value in num.items() if any(value)}
        g = _content(den, num.values())
        if g > 1:
            num = {pair: tuple(x // g for x in value) for pair, value in num.items()}
        self.parent = parent
        self.coeff_dim = coeff_dim
        self._num = num
        self._den = den // g

    @classmethod
    def zero(cls, parent: LieAlgebra, coeff_dim: int) -> "Cocycle2":
        return cls._from_integers(parent, coeff_dim, {})

    @property
    def values(self) -> dict:
        """{(i, j): value tuple} over the nonzero pairs i < j, as Fractions."""
        den = self._den
        return {pair: _fractions(value, den) for pair, value in self._num.items()}

    def value(self, i: int, j: int) -> Vec:
        if not (0 <= i < self.parent.dim and 0 <= j < self.parent.dim):
            raise IndexError(f"basis pair ({i}, {j}) out of range({self.parent.dim})")
        if i == j:
            return zero_vector(self.coeff_dim)
        if i < j:
            v = self._num.get((i, j))
            return _fractions(v, self._den) if v else zero_vector(self.coeff_dim)
        v = self._num.get((j, i))
        return _fractions([-x for x in v], self._den) if v else zero_vector(self.coeff_dim)

    def slot(self, a: int) -> dict:
        """Coefficient slot a as a scalar 2-cochain {(i, j): value}."""
        if not 0 <= a < self.coeff_dim:
            raise IndexError(f"coefficient slot {a} out of range({self.coeff_dim})")
        den = self._den
        return {pair: Fraction(value[a], den) for pair, value in self._num.items() if value[a]}

    def apply(self, u: Sequence, v: Sequence) -> Vec:
        _check_element(self.parent, u)
        _check_element(self.parent, v)
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
        return not self._num

    def __add__(self, other: "Cocycle2") -> "Cocycle2":
        if not same_algebra(other.parent, self.parent) or other.coeff_dim != self.coeff_dim:
            raise DimensionMismatchError("cocycle mismatch in addition")
        # both sides over the lcm of the two denominators
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        table = {pair: tuple(a * x for x in value) for pair, value in self._num.items()}
        zero = (0,) * self.coeff_dim
        for pair, value in other._num.items():
            table[pair] = tuple(x + b * y for x, y in zip(table.get(pair, zero), value))
        return Cocycle2._from_integers(self.parent, self.coeff_dim, table, den)

    def __neg__(self) -> "Cocycle2":
        return Cocycle2._from_integers(
            self.parent,
            self.coeff_dim,
            {pair: tuple(-x for x in value) for pair, value in self._num.items()},
            self._den,
        )

    def __sub__(self, other: "Cocycle2") -> "Cocycle2":
        return self + (-other)

    def entries(self):
        """Sorted (i, j, value tuple) triplets; canonical serialisation."""
        return [(i, j, _fractions(self._num[(i, j)], self._den)) for (i, j) in sorted(self._num)]

    def cocycle_defect(self) -> Optional[tuple]:
        """First basis triple violating the cocycle identity, or None.

        The identity checked is psi([x,y],z) - psi([x,z],y) + psi([y,z],x) = 0
        on each triple i < j < k, equivalently the vanishing of the
        differential fixed above.  d psi is accumulated from the nonzero
        brackets by lie._coboundary_totals, the accumulator of the Jacobi
        check.  The answer is the lexicographically first triple whose
        total is nonzero, with that total.  The totals are integers, psi's
        stored integers against the algebra's integer brackets, and only
        the returned total is divided back.
        """
        L = self.parent
        cochain = (
            (pair, [(s, x) for s, x in enumerate(value) if x])
            for pair, value in self._num.items()
        )
        totals = _coboundary_totals(L, cochain, self.coeff_dim)
        if not totals:
            return None
        first = min(totals)
        return (first, _fractions(totals[first], L._integer_table[0] * self._den))

    def __repr__(self):
        return (
            f"Cocycle2(dim L = {self.parent.dim}, coeff_dim = {self.coeff_dim}, "
            f"nonzero pairs = {len(self._num)})"
        )


class OneCochain(_IntegerCochain):
    """Linear map L -> QQ^m given by its values on the basis.

    Held as Cocycle2 holds its values (_IntegerCochain): basis element i
    has value _num[i] / _den.  values and apply build Fractions when they
    are read.
    """

    __slots__ = ()

    def __init__(self, parent: LieAlgebra, coeff_dim: int, values):
        values = [vector(v) for v in values]
        if len(values) != parent.dim:
            raise DimensionMismatchError("one-cochain table must cover the basis")
        for v in values:
            if len(v) != coeff_dim:
                raise DimensionMismatchError("one-cochain value has wrong length")
        den, ints = _integer_tuples(values)
        self._set(parent, coeff_dim, ints, den)

    def _set(self, parent, coeff_dim, num, den):
        """Store one m-tuple per basis element over den, num and den
        divided by their gcd."""
        g = _content(den, num)
        self.parent = parent
        self.coeff_dim = coeff_dim
        self._num = tuple(num) if g == 1 else tuple(tuple(x // g for x in v) for v in num)
        self._den = den // g

    @classmethod
    def zero(cls, parent: LieAlgebra, coeff_dim: int) -> "OneCochain":
        return cls._from_integers(parent, coeff_dim, [(0,) * coeff_dim] * parent.dim)

    @property
    def values(self) -> tuple:
        """The value tuple of every basis element, as Fractions."""
        den = self._den
        return tuple(_fractions(v, den) for v in self._num)

    def apply(self, coords: Sequence) -> Vec:
        _check_element(self.parent, coords)
        out = [_ZERO] * self.coeff_dim
        for i, c in enumerate(coords):
            if c:
                c = _as_fraction(c)
                for a, x in enumerate(self._num[i]):
                    if x:
                        out[a] += c * x
        return tuple(x / self._den for x in out)

    def coboundary(self) -> Cocycle2:
        """(d beta)(x, y) = -beta([x, y]), read from the nonzero brackets
        only, in O(bracket nnz * m): integer totals of the stored integers
        against the algebra's integer brackets, over the product of the
        two denominators."""
        L = self.parent
        bden, brackets = L._integer_table
        nonzero = [[(a, x) for a, x in enumerate(v) if x] for v in self._num]
        table = {}
        for pair, bracket in brackets.items():
            total = [0] * self.coeff_dim
            for k, c in bracket.items():
                for a, x in nonzero[k]:
                    total[a] -= c * x
            table[pair] = tuple(total)
        return Cocycle2._from_integers(L, self.coeff_dim, table, bden * self._den)

    def __repr__(self):
        return f"OneCochain(dim L = {self.parent.dim}, coeff_dim = {self.coeff_dim})"


class Cohomology:
    """H^p(L, QQ^m) = H^p(L, QQ) (x) QQ^m with echelon-normalised representatives.

    The scalar representatives rep_k are sparse cocycles {p-tuple: value}
    whose classes form the reduced echelon basis of ker d^p / im d^{p-1}
    in the canonical quotient coordinates: rep_k is the lift of class
    row k, zero on every pivot column of the image, so it is independent
    of the pivot order and the output is deterministic.
    Representative k * m + a is rep_k (x) e_a, and class coordinate
    k * m + a belongs to it.  The quotient lives on the weight-zero
    block: block column c is the p-tuple cochains[c].  In degree 2 the
    block leaves out the pairs across two ideal classes with a perfect
    side, on which every cocycle vanishes (module docstring).  classes
    is the subspace of quotient coordinates spanned by the classes of
    the representatives; its echelon row k is the class of rep_k.
    """

    __slots__ = (
        "parent",
        "degree",
        "coeff_dim",
        "dimension",
        "scalar_representatives",
        "cochains",
        "quotient",
        "classes",
        "_column",
    )

    def __init__(self, parent, degree, coeff_dim, cochains, block_representatives,
                 quotient, classes):
        self.parent = parent
        self.degree = degree
        self.coeff_dim = coeff_dim
        self.cochains = tuple(cochains)
        self._column = {t: c for c, t in enumerate(self.cochains)}
        self.scalar_representatives = tuple(
            {self.cochains[c]: value for c, value in sorted(rep.items())}
            for rep in block_representatives
        )
        self.dimension = len(self.scalar_representatives) * coeff_dim
        self.quotient = quotient
        self.classes = classes

    def class_coordinates(self, cochain: dict) -> Vec:
        """Coordinates of a cocycle {p-tuple: m-tuple} in the representative
        basis: slot a, {t: value[a]}, is a scalar cocycle, and its scalar
        class coordinate k is coordinate k * m + a."""
        m = self.coeff_dim
        slots = [{} for _ in range(m)]
        for t, value in cochain.items():
            if len(value) != m:
                raise DimensionMismatchError(
                    f"cochain value has length {len(value)}, the coefficients have {m}"
                )
            for a, x in enumerate(value):
                if x:
                    slots[a][t] = x
        coords = [_ZERO] * self.dimension
        for a, slot in enumerate(slots):
            if slot:
                for k, c in self.scalar_class_coordinates(slot).items():
                    coords[k * m + a] = c
        return tuple(coords)

    def scalar_class_coordinates(self, slot: dict) -> dict:
        """Class coordinates {k: c} of a scalar cocycle {p-tuple: value} in
        H^p(L, QQ).

        The class is read from the entries on the block's tuples.  The
        other entries, of nonzero weight or (in degree 2) on a pair the
        block leaves out, reach triples that no block column reaches, so
        the cochain is a cocycle exactly when both parts are; d^p is
        applied to the other part to check that.  As a cocycle it is zero
        on the pairs left out and of nonzero weight, so its class is 0.
        """
        block, rest = {}, {}
        for t, value in slot.items():
            if not _int_key(t, self.degree):
                raise DimensionMismatchError(
                    f"cochain key {t!r} is not a {self.degree}-tuple of ints")
            col = self._column.get(t)
            if col is None:
                rest[t] = value
            else:
                block[col] = value
        defect = bool(rest) and not self._is_cocycle(rest)
        # the class rows are reduced: coordinate k is q / den at pivot k
        den, q = self.quotient._coordinates(block)
        coords = {k: Fraction(q[c], den) for k, c in enumerate(self.classes.pivots) if c in q}
        if defect or self.classes._residue(q)[1]:
            raise InternalConsistencyError(
                "vector class lies outside the cocycle span; input is not a cocycle"
            )
        return coords

    def _is_cocycle(self, cochain: dict) -> bool:
        """Whether d^p vanishes on the scalar cochain {p-tuple: value}."""
        n, p = self.parent.dim, self.degree
        for t in cochain:
            _check_tuple(t, n, p)
        sources = [t for t, value in cochain.items() if value]
        values = [_as_fraction(cochain[t]) for t in sources]
        # the positive denominator of d^p does not change which totals vanish
        _, rows = _assemble(self.parent, p, sources)
        return not any(
            sum(entry * values[c] for c, entry in row.items()) for row in rows.values()
        )

    def representative_cocycles(self):
        """rep_k (x) e_a as Cocycle2 objects, k-major and a-minor."""
        if self.degree != 2:
            raise ValueError("representative_cocycles applies to degree 2 only")
        m = self.coeff_dim
        out = []
        for rep in self.scalar_representatives:
            for a in range(m):
                before, after = (_ZERO,) * a, (_ZERO,) * (m - a - 1)
                out.append(Cocycle2(
                    self.parent, m, {t: before + (value,) + after for t, value in rep.items()}
                ))
        return out

    def __repr__(self):
        return (
            f"Cohomology(H^{self.degree}, dim = {self.dimension}, "
            f"coeff_dim = {self.coeff_dim})"
        )


def cohomology(
    L: LieAlgebra, p: int, m: int, *, ceiling: Optional[int] = None
) -> Cohomology:
    """Compute H^p(L, QQ^m) = (ker d^p / im d^{p-1}) (x) QQ^m with representatives.

    Only the weight-zero block of the scalar complex is assembled, by
    ce_differential on the weight-zero tuples, and solved (see the module
    docstring); with an empty torus that block is the whole complex.  In
    degree 2, with more than one ideal class, the block leaves out the
    pairs across two classes with a perfect side.  The torus and the
    weight-zero tuples of each degree are computed once.  The classes are
    spanned by the quotient coordinates of the kernel rows, and rep_k is
    the lift of class row k, zero on the image's pivot columns and
    independent of the pivot order.  The ceiling
    counts the full C^{p+1} and, for p >= 2, C^p with their factor m,
    before anything is assembled.

    The class count dim ker d^p - dim im d^{p-1} rests on d o d = 0,
    which holds on every Lie algebra.  When it fails, validate_lie is
    run: a table that fails Jacobi raises InvalidAlgebraError naming its
    first Jacobi defect, and any other table InternalConsistencyError.
    (A mirror defect leaves the stored table antisymmetric, so it cannot
    break d o d = 0.)
    """
    if p < 1:
        raise ValueError("cohomology degree must be at least 1")
    if m < 0:
        raise ValueError("coefficient dimension must be nonnegative")
    _guard(L.dim, p + 1, m, ceiling)
    if p >= 2:
        _guard(L.dim, p, m, ceiling)
    if m == 0:  # QQ^0 = 0: nothing to assemble
        return Cohomology(L, p, m, (), (), None, None)
    weights = _torus_weights(L)
    cochains = _weight_zero_tuples(weights, p)
    classes = _product_classes(L) if p == 2 else ()
    if len(classes) > 1:
        # every 2-cocycle vanishes on a pair across two ideal classes with a
        # perfect side (module docstring): those columns are left out.  A
        # class is perfect when [L, L] has a pivot at each of its indices.
        derived = set(derived_subalgebra(L).pivots)
        class_of = {i: members[0] for members in classes for i in members}
        perfect = {members[0] for members in classes if derived.issuperset(members)}
        cochains = [(x, y) for x, y in cochains if class_of[x] == class_of[y]
                    or not {class_of[x], class_of[y]} & perfect]
    # d^p is held by kernel_basis alone, which frees its rows once it has
    # built the columns it eliminates
    size = len(cochains)
    cocycles = kernel_basis(ce_differential(L, p, ceiling=ceiling, sources=cochains))
    if p == 1:
        image = Subspace.zero(size)  # trivial coefficients: d^0 = 0
    else:
        # d^{p-1} of a weight-zero cochain has weight zero: its rows, the
        # ranks of p-tuples, are renumbered to the columns of d^p (a pair
        # left out above brackets to 0, so it is no row of d^1).  The
        # rows are integers over one denominator, so the integer columns
        # span the image as they are.
        top, table = _rank_table(L.dim, p)
        column = {top - sum(map(list.__getitem__, table, t)): c for c, t in enumerate(cochains)}
        d_down = ce_differential(L, p - 1, ceiling=ceiling,
                                 sources=_weight_zero_tuples(weights, p - 1))
        spans = [{} for _ in range(d_down.cols)]
        for r, row in d_down._rows.items():
            for c, value in row.items():
                spans[c][column[r]] = value
        image = Subspace.from_spanning(size, spans)
    quotient = quotient_space(size, image)
    # the integer kernel rows span the same lines as basis_rows()
    classes = Subspace.from_spanning(
        quotient.dim, [quotient.project(row) for row in cocycles._rows])
    if classes.dim != cocycles.dim - image.dim:
        # d o d = 0 needs Jacobi: a table that fails it is invalid input
        violations = validate_lie(L).jacobi_violations
        if violations:
            triple, defect = violations[0]
            raise InvalidAlgebraError(f"Jacobi identity fails on triple {triple}: "
                                      f"defect {[str(x) for x in defect]}")
        raise InternalConsistencyError(
            "cohomology dimension bookkeeping failed (is d o d = 0 violated?)"
        )
    # rep_k is the lift of class row k, a cocycle (module docstring)
    representatives = [
        {quotient.rep_cols[q]: Fraction(value, row[pivot]) for q, value in row.items()}
        for pivot, row in zip(classes.pivots, classes._rows)
    ]
    return Cohomology(L, p, m, cochains, representatives, quotient, classes)


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


def _peeled_primitive(psi: Cocycle2) -> Optional[OneCochain]:
    """The primitive of psi read off the peel order of d^1 alone, or None.

    The bracket rows of d^1, without psi, go to linalg._peel_order.  When
    the peel fixes all n columns, rank d^1 = n, so d beta = psi has at most
    one solution: x = psi._den * beta solves sum_k c_k x_k = -bden psi(a, b)
    on each row (a, b), whose integer bracket is {k: c_k}, and it is found
    by forward substitution along the order, as integer m-tuples over one
    running denominator, scaled by |lead| / gcd only where a lead does not
    divide.  It is returned only if its coboundary is psi exactly.
    """
    L, m = psi.parent, psi.coeff_dim
    bden, brackets = L._integer_table
    pairs, rows = list(brackets), list(brackets.values())
    order = _peel_order(rows, L.dim)
    if order is None:
        return None
    zero = (0,) * m
    num = [zero] * L.dim
    den = 1
    for r, col in order:
        row = rows[r]
        total = [-den * bden * y for y in psi._num.get(pairs[r], zero)]
        for k, c in row.items():
            if k != col:
                for a, x in enumerate(num[k]):
                    total[a] -= c * x
        lead = row[col]
        g = gcd(lead, *total)
        if g != abs(lead):
            scale = abs(lead) // g
            den *= scale
            num = [tuple(scale * x for x in v) for v in num]
            total = [scale * x for x in total]
        num[col] = tuple(x // lead for x in total)
    beta = OneCochain._from_integers(L, m, num, den * psi._den)
    return beta if beta.coboundary() == psi else None


def coboundary_witness(
    psi: Cocycle2,
    *,
    ceiling: Optional[int] = None,
) -> CoboundaryWitness:
    """Find beta with (d beta) = psi, or the class of psi in H^2.

    The resource ceiling is checked before psi's values are read: C^2 with
    its factor m must fit.  Then all m slots are solved at once.  When the
    bracket rows of d^1 peel whole, rank d^1 = dim L and the solution, if
    any, is unique, so the beta that substitution along the peel order
    finds, checked by d beta = psi exactly, is the canonical solution
    (_peeled_primitive).  Otherwise, or when that check fails, d^1 is
    eliminated with psi as its right-hand sides.  When every slot solves,
    psi = d beta, and beta is returned without checking that psi is a
    cocycle: d o d = 0 on a Lie algebra, so a coboundary is one.  Only
    when a slot has no solution is psi's cocycle defect evaluated:
    NotACocycleError carries the first violating basis triple, and a
    cocycle gets its class coordinates.  On a table that satisfies Jacobi
    a non-cocycle never solves, so every non-cocycle is refused.  On a
    bracket table that fails Jacobi, d o d need not vanish, and a psi
    that is d beta but no cocycle gets that beta, a true witness; a
    cocycle that does not solve there goes to cohomology, which raises
    InvalidAlgebraError when its class count fails.  The returned
    primitive is the canonical solution of the linear system, so
    repeated runs agree bit for bit.
    """
    L = psi.parent
    m = psi.coeff_dim
    _guard(L.dim, 2, m, ceiling)
    num = [[0] * m for _ in range(L.dim)]
    den = 1
    # psi = 0 has the zero primitive and needs no d^1; so does any zero
    # slot, whose right-hand-side column below is empty
    if psi._num:
        beta = _peeled_primitive(psi)
        if beta is not None:
            return CoboundaryWitness(beta, None, None)
        # row (a, b) of d^1 is -[x_a, x_b] / bden, so the integer row of
        # pair (a, b) in [d^1 | psi._num] is {k: -c} and slot t of
        # psi._num[(a, b)], times bden, in column n + t
        n = L.dim
        bden, brackets = L._integer_table
        rows = []
        for pair in sorted(brackets.keys() | psi._num.keys()):
            row = {k: -c for k, c in brackets.get(pair, {}).items()}
            for t, x in enumerate(psi._num.get(pair, ())):
                if x:
                    row[n + t] = bden * x
            rows.append(row)
        solutions = _solve_rows(rows, n, m)
        if None in solutions:
            defect = psi.cocycle_defect()
            if defect is not None:
                raise NotACocycleError(*defect)
            h2 = cohomology(L, 2, m, ceiling=ceiling)
            return CoboundaryWitness(None, h2.class_coordinates(psi.values), h2)
        # the solutions solve for psi's integers: divide by its denominator once
        den = lcm(*[lead for solution in solutions for _, lead in solution.values()])
        for t, solution in enumerate(solutions):
            for i, (x, lead) in solution.items():
                num[i][t] = x * (den // lead)
    beta = OneCochain._from_integers(L, m, [tuple(v) for v in num], den * psi._den)
    return CoboundaryWitness(beta, None, None)
