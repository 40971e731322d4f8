"""Finite-dimensional Lie algebras given by rational structure constants.

_StructureTable holds the structure constants of a bilinear product on a
basis, for LieAlgebra here and for CommAlgebra in current, as one table:
the constants for i <= j as integers over one denominator, which every
routine in the package sums; the Fractions of the public accessors are
built from it when they are read.  The tables have two ways in, one per
job.  Every table the package derives (the catalog, direct sums,
realified and matrix algebras, tensor products, current algebras,
corners and unit extensions) is built from integers by
_from_integer_table.  The parsing constructor checks input from outside,
the JSON documents of the command line: it parses the entries and
records the mirror mismatches of a malformed table for the validators to
report instead of silently resolving them.  _entries_on builds the
integer table on a computed basis, for lie_from_matrices inside gl(d)
and for locality's corners.  A LieAlgebra stores the bracket
[b_i, b_j] = sum_k c[i][j][k] b_k for i < j; the i > j case is derived by
antisymmetry.  The Jacobi identity is checked as the cocycle condition of
the bracket read as a 2-cochain with values in L, in O(bracket nnz * n),
and [L, L] is spanned by the nonzero brackets.

The derivation layer reads the integer table too.  derivations assembles
its n * C(n, 2) x n^2 system as integer rows from the nonzero brackets,
tests each ad(b_i) against the kernel as a sparse integer row, and keeps
the kernel's integer echelon rows; DerivationSpace hands them to V(L) and
to the invariance check as integer columns, and builds the dense basis
only when it is read.  killing_form sums c_il^k c_jk^l over pairs of
nonzero integer brackets and divides by the squared denominator once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NotInDerivedAlgebraError,
)
from .linalg import (
    SparseMatrix,
    Subspace,
    Vec,
    _as_fraction,
    _augmented_rows,
    _content,
    _solve_rows,
    kernel_basis,
    quotient_space,
    rank,
    solve_linear,
    vector,
)

_ZERO = Fraction(0)


class _StructureTable:
    """Structure constants (b_i b_j)_k of a bilinear product on a basis.

    The table is ``_integer_table`` = (den, {(i, j): {k: den * c}}) for
    i <= j in pair order, den the positive lcm of the constants'
    denominators.  The constructor parses and checks input from outside
    the package: the given orientation wins, and an entry given only as
    (j, i) is mirrored with ``_sign``, -1 for a Lie bracket (which rules
    out a diagonal) and +1 for a commutative product.
    ``_mirror_defects`` records, while the entries are parsed, what the
    validators report about a malformed table instead of silently
    resolving it.  Every table the package derives goes through
    _from_integer_table instead, which builds no Fraction.  Every
    Fraction a caller reads is built from the integers when it is read.
    """

    __slots__ = ("labels", "_mirror_defects", "_integer_table")

    # set by each subclass: the mirror sign and the error wording
    _sign: int
    _out_of_range: str
    _duplicate: str
    _leaves_span: str
    _operands: str
    _dependent = "basis is not linearly independent"

    def __init__(self, labels: Sequence[str], entries: Iterable = ()):
        """entries: iterable of (i, j, k, coefficient) meaning the
        b_k-coordinate of b_i b_j."""
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        raw = {}
        for i, j, k, value in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(self._out_of_range.format(i, j, k))
            value = _as_fraction(value)
            if not value:
                continue
            row = raw.setdefault((i, j), {})
            if k in row:
                raise ValueError(self._duplicate.format(i, j, k))
            row[k] = value
        # table[pair] = (sign, row); a mirror defect, (i, j, k, defect), is
        # (b_i b_j)_k - sign (b_j b_i)_k != 0 for a pair i < j given in both
        # orientations, or a diagonal bracket entry with its value
        sign = self._sign
        table, defects = {}, []
        for (i, j), row in raw.items():
            mirror = raw.get((j, i))
            if i > j:
                if mirror is None:
                    table[(j, i)] = sign, row
            elif i < j or sign > 0:
                table[(i, j)] = 1, row
                if i < j and mirror is not None:
                    defects.extend(
                        (i, j, k, defect) for k in row.keys() | mirror.keys()
                        if (defect := row.get(k, _ZERO) - sign * mirror.get(k, _ZERO))
                    )
            else:
                defects.extend((i, j, k, c) for k, c in row.items())
        self._mirror_defects = sorted(defects)
        den = lcm(*{c.denominator for _, row in table.values() for c in row.values()})
        self._integer_table = den, {
            pair: {k: s * c.numerator * (den // c.denominator) for k, c in row.items()}
            for pair, (s, row) in sorted(table.items())
        }

    @classmethod
    def _from_integer_table(cls, labels: Sequence[str], den: int, rows: dict):
        """The table whose constants are rows[(i, j)][k] / den, with no
        parsing.  The caller vouches for its input, as for
        SparseMatrix._from_integer_rows: string labels, one orientation
        per pair (i <= j, and i < j for a bracket), no zero int, indices
        in range, den positive.  den and the ints are divided by their
        gcd and the pairs sorted, so the table, its dict orders included,
        is the one the constructor builds from the same constants in the
        same order, and there are no mirror defects.  A label built from
        others (x*a, the unit "1", a suffixed label) can repeat one: that
        raises InputError, since it would name two basis elements."""
        labels = tuple(labels)
        if len(set(labels)) < len(labels):
            repeated = next(s for i, s in enumerate(labels) if s in labels[:i])
            raise InputError(f"the basis repeats the label {repeated!r}")
        table = cls.__new__(cls)
        table.labels, table._mirror_defects = labels, []
        g = _content(den, (row.values() for row in rows.values()))
        table._integer_table = den // g, {pair: rows[pair] if g == 1 else
                                          {k: c // g for k, c in rows[pair].items()}
                                          for pair in sorted(rows)}
        return table

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _row(self, i: int, j: int) -> tuple:
        """(s, row): b_i b_j is s * row / den for the stored integer row."""
        rows = self._integer_table[1]
        if i <= j:
            return 1, rows.get((i, j), {})
        return self._sign, rows.get((j, i), {})

    def _basis_product(self, i: int, j: int) -> dict:
        """Coordinates of b_i b_j as a sparse index -> Fraction map."""
        s, row = self._row(i, j)
        den = self._integer_table[0]
        return {k: Fraction(s * c, den) for k, c in row.items()}

    def _product(self, u: Sequence, v: Sequence) -> Vec:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError(self._operands)
        out = [_ZERO] * self.dim
        nz_u = [(i, _as_fraction(x)) for i, x in enumerate(u) if x]
        nz_v = [(j, _as_fraction(x)) for j, x in enumerate(v) if x]
        for i, a in nz_u:
            for j, b in nz_v:
                s, row = self._row(i, j)
                coef = a * b if s > 0 else -a * b
                for k, c in row.items():
                    out[k] += coef * c
        den = self._integer_table[0]
        return tuple(out) if den == 1 else tuple(x / den for x in out)

    def _entries(self) -> list:
        """Canonical sorted (i, j, k, coefficient) entries with i <= j."""
        den, rows = self._integer_table
        return [(i, j, k, Fraction(row[k], den)) for (i, j), row in rows.items() for k in sorted(row)]

    def _entries_on(self, vectors: Sequence) -> tuple:
        """The integer table (den, {(i, j): {k: int}}) of the product on
        the span of ``vectors``, sparse {coordinate: value} maps in this
        basis, in their coordinates, for _from_integer_table: i < j for a
        bracket, i <= j for a product.  Dependent vectors raise ValueError
        ``_dependent``, and the first pair whose product leaves the span
        ``_leaves_span``.  The products are summed on the integer table,
        so each is den times the true product, and one solve gives the
        coordinates of every product, sparse, as linalg._solve_rows
        returns them: num / lead, with one lead per pivot k.  So each
        constant is num * (q // lead) over den * q, q the lcm of the
        leads."""
        m, sign = len(vectors), self._sign
        span = SparseMatrix(self.dim, m, {(p, t): x for t, v in enumerate(vectors)
                                          for p, x in v.items()})
        if rank(span) != m:
            raise ValueError(self._dependent)
        pairs = [(i, j) for i in range(m) for j in range(i + (sign < 0), m)]
        products = []
        for i, j in pairs:
            out = {}
            for p, x in vectors[i].items():
                for q, y in vectors[j].items():
                    s, row = self._row(p, q)
                    coef = s * x * y
                    for k, c in row.items():
                        out[k] = out.get(k, 0) + coef * c
            products.append(out)
        rows = {}
        solutions = _solve_rows(_augmented_rows(span, products), m, len(products))
        for pair, coords in zip(pairs, solutions):
            if coords is None:
                raise ValueError(self._leaves_span.format(*pair))
            if coords:
                rows[pair] = coords
        q = lcm(*(lead for coords in rows.values() for _, lead in coords.values()))
        return self._integer_table[0] * q, {
            pair: {k: num * (q // lead) for k, (num, lead) in coords.items()}
            for pair, coords in rows.items()
        }


def _product_classes(table: _StructureTable) -> list:
    """The product classes of a structure table's basis, each a sorted
    list of indices, ordered by their smallest index: the connected
    components of the graph that joins i, j and k for every nonzero
    (b_i b_j)_k, a product of a CommAlgebra or a bracket of a LieAlgebra.

    Basis elements of different classes multiply (or bracket) to 0, and
    products within a class stay in its span, so the classes span ideals
    whose direct sum is the algebra, and they commute in a Lie algebra.
    """
    root = list(range(table.dim))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for (i, j), row in table._integer_table[1].items():
        for k in (j, *row):
            a, b = find(i), find(k)
            if a != b:
                root[max(a, b)] = min(a, b)
    classes = {}
    for i in range(table.dim):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


class LieAlgebra(_StructureTable):
    """Lie algebra over QQ given by sparse structure constants."""

    __slots__ = ()

    _sign = -1
    _out_of_range = "structure constant index ({},{},{}) out of range"
    _duplicate = "duplicate structure constant at ({},{},{})"
    _leaves_span = "commutator of basis elements {}, {} leaves the span"
    _operands = "bracket operands must match the algebra dimension"

    bracket_basis = _StructureTable._basis_product
    bracket = _StructureTable._product
    structure_entries = _StructureTable._entries

    def element(self, coords: Sequence) -> "Element":
        return Element(self, vector(coords))

    def basis_element(self, i: int) -> "Element":
        coords = [_ZERO] * self.dim
        coords[i] = Fraction(1)
        return Element(self, tuple(coords))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, labels={list(self.labels)})"


def same_algebra(a: LieAlgebra, b: LieAlgebra) -> bool:
    """Structural identity of algebras.

    Independently constructed copies of the same algebra (for example a
    corner current algebra built twice) must interoperate, so parent
    checks compare labels and bracket tables rather than object ids.
    """
    return a is b or (a.labels == b.labels and a._integer_table == b._integer_table)


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


def _coboundary_totals(L: LieAlgebra, cochain, m: int) -> dict:
    """The nonzero values of d psi on triples i < j < k, as {triple: m ints}.

    psi is given as ((i, j), [(slot, int), ...]) items for i < j, nonzero
    slots only; d psi(x_i, x_j, x_k) = psi([x_i,x_j],x_k) -
    psi([x_i,x_k],x_j) + psi([x_j,x_k],x_i).  Each pair a < b with
    [x_a, x_b] != 0 and each c outside {a, b} with psi([x_a, x_b], x_c) != 0
    adds that value to the sorted triple, with sign - when c sorts between
    a and b.  The totals are over the bracket denominator times psi's.
    """
    brackets = L._integer_table[1]
    rows = [{} for _ in range(L.dim)]  # rows[k][c] = psi(x_k, x_c), nonzero slots
    for (i, j), nonzero in cochain:
        rows[i][j] = nonzero
        rows[j][i] = [(s, -x) for s, x in nonzero]
    totals = {}
    for (a, b), bracket in brackets.items():
        for k, coef in bracket.items():
            for c, value in rows[k].items():
                if c < a:
                    triple, sign = (c, a, b), coef
                elif c > b:
                    triple, sign = (a, b, c), coef
                elif a < c < b:
                    triple, sign = (a, c, b), -coef
                else:
                    continue
                total = totals.get(triple)
                if total is None:
                    total = totals[triple] = [0] * m
                for s, x in value:
                    total[s] += sign * x
    return {triple: total for triple, total in totals.items() if any(total)}


def validate_lie(L: LieAlgebra) -> ValidationReport:
    """Check antisymmetry, and the Jacobi identity on all basis triples as
    [[x,y],z] - [[x,z],y] + [[y,z],x] = d(bracket)(x, y, z) = 0."""
    den, brackets = L._integer_table
    totals = _coboundary_totals(L, ((pair, list(b.items())) for pair, b in brackets.items()), L.dim)
    jacobi = [
        (triple, tuple(Fraction(x, den * den) for x in totals[triple]))
        for triple in sorted(totals)
    ]
    return ValidationReport(L._mirror_defects, jacobi)


def killing_form(L: LieAlgebra):
    """Killing form matrix B(x, y) = trace(ad x . ad y) and the
    semisimplicity flag det B != 0 (Cartan's criterion over QQ).

    B(b_i, b_j) = sum_{k,l} c_il^k c_jk^l with [b_i, b_l] = sum_k c_il^k b_k.
    The sum runs over pairs of nonzero integer brackets, and each entry is
    divided by the square of the bracket denominator once.
    """
    n = L.dim
    den, brackets = L._integer_table
    into = {}  # into[l, k] = [(i, c), ...] for [b_i, b_l]_k = c / den
    for (a, b), coords in brackets.items():
        for k, c in coords.items():
            into.setdefault((b, k), []).append((a, c))
            into.setdefault((a, k), []).append((b, -c))
    rows = [{} for _ in range(n)]
    for (l, k), terms in into.items():
        partners = into.get((k, l), ())
        for i, c in terms:
            row = rows[i]
            for j, d in partners:
                row[j] = row.get(j, 0) + c * d
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    square = den * den
    dense = tuple(
        tuple(Fraction(row[j], square) if j in row else _ZERO for j in range(n)) for row in rows
    )
    semisimple = rank(SparseMatrix._from_integer_rows(n, n, dict(enumerate(rows)), square)) == n
    return dense, semisimple


class DerivationSpace:
    """der(L) inside all dim x dim matrices, D[r][c] at flat index r * dim + c.

    ``kernel`` is der(L) as a Subspace of the flat matrices, the kernel of
    the derivation equations; the package reads its integer echelon rows,
    each a basis derivation times its positive pivot entry.  ``basis`` is
    the same reduced echelon basis as dense matrices of Fractions, built
    when it is first read.  ``contains_inner`` records whether every ad(x)
    solves the equations and ``all_inner`` whether ad(L) is all of der(L),
    which is the case exactly when L is semisimple in the catalog.
    """

    __slots__ = ("parent", "kernel", "all_inner", "contains_inner", "_basis")

    def __init__(self, parent, kernel, all_inner, contains_inner):
        self.parent = parent
        self.kernel = kernel
        self.all_inner = all_inner
        self.contains_inner = contains_inner
        self._basis = None

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            n = self.parent.dim
            self._basis = tuple(
                tuple(tuple(row.get(r * n + c, _ZERO) for c in range(n)) for r in range(n))
                for row in self.kernel.basis_rows()
            )
        return self._basis

    def _columns(self) -> list:
        """The basis derivations, each scaled by its pivot entry to
        integers, as columns: out[d][c] = [(r, lead * D_d[r][c]), ...] over
        the nonzero entries.  A positive scale changes neither the span of
        D.x nor which expressions in D vanish."""
        n = self.parent.dim
        out = []
        for row in self.kernel._rows:
            columns = [[] for _ in range(n)]
            for idx, value in row.items():
                r, c = divmod(idx, n)
                columns[c].append((r, value))
            out.append(columns)
        return out

    def __repr__(self):
        return f"DerivationSpace(dim={self.dim}, all_inner={self.all_inner})"


def derivations(L: LieAlgebra) -> DerivationSpace:
    """Solve D[b_i,b_j] = [D b_i, b_j] + [b_i, D b_j] for matrices D.

    Unknowns are the n^2 matrix entries D[r][c] in row-major order.  The
    n * C(n, 2) equations are integer rows over the bracket denominator,
    read off the nonzero integer brackets, and ad(b_a) is tested against
    the kernel as the sparse integer row of those brackets too.
    """
    n = L.dim
    den, brackets = L._integer_table
    # into[k, c] = {r: [b_r, b_c]_k} and outof[k, c] = {r: [b_c, b_r]_k},
    # and ads[a] = ad(b_a) flattened: [b_a, b_b]_k sits at D[k][b]
    into, outof = {}, {}
    ads = [{} for _ in range(n)]
    for (a, b), coords in brackets.items():
        for k, v in coords.items():
            neg = -v
            into.setdefault((k, b), {})[a] = v
            into.setdefault((k, a), {})[b] = neg
            outof.setdefault((k, a), {})[b] = v
            outof.setdefault((k, b), {})[a] = neg
            ads[a][k * n + b] = v
            ads[b][k * n + a] = neg
    rows = {}
    for pair, (i, j) in enumerate(combinations(range(n), 2)):
        bracket = brackets.get((i, j), {})
        for k in range(n):
            # D[k][l] [b_i, b_j]_l - D[r][i] [b_r, b_j]_k - D[r][j] [b_i, b_r]_k
            row = {k * n + l: coef for l, coef in bracket.items()}
            for c, column in ((i, outof.get((k, j), {})), (j, into.get((k, i), {}))):
                for r, value in column.items():
                    idx = r * n + c
                    if idx not in row:
                        row[idx] = value
                    elif updated := row[idx] + value:
                        row[idx] = updated
                    else:
                        del row[idx]
            rows[pair * n + k] = row
    system = SparseMatrix._from_integer_rows(n * comb(n, 2), n * n, rows, den)
    kernel = kernel_basis(system)
    contains_inner = all(kernel.contains(ad) for ad in ads)
    all_inner = contains_inner and (
        rank(SparseMatrix._from_integer_rows(n, n * n, dict(enumerate(ads)))) == kernel.dim
    )
    return DerivationSpace(L, kernel, all_inner, contains_inner)


def perfect_witness(L: LieAlgebra, x) -> list:
    """Write x as an exact finite sum of commutators.

    Returns [(mu_1, nu_1), ...] of Elements with x = sum [mu_t, nu_t].
    Raises NotInDerivedAlgebraError with the defect class in L/[L, L]
    when x is not a sum of commutators.

    The columns solved against are the nonzero brackets [b_i, b_j], i < j,
    in pair order: a zero bracket would be a free column, which the
    canonical solution sets to zero, so leaving it out changes no pair.
    """
    coords = x.coords if isinstance(x, Element) else vector(x)
    if len(coords) != L.dim:
        raise DimensionMismatchError("element length must match the algebra dimension")
    den, brackets = L._integer_table
    pairs = list(brackets)
    rows = {}  # rows[k][t] = den [b_i, b_j]_k for pairs[t] = (i, j)
    for t, bracket in enumerate(brackets.values()):
        for k, c in bracket.items():
            rows.setdefault(k, {})[t] = c
    solution = solve_linear(SparseMatrix._from_integer_rows(L.dim, len(pairs), rows, den), coords)
    if solution is None:
        defect = quotient_space(L.dim, derived_subalgebra(L)).project(coords)
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
        for k, c in brackets[(i, j)].items():
            total[k] += coef * c
    if tuple(total) != tuple(den * x for x in coords):
        raise InternalConsistencyError("witness recombination failed")
    return witness


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    """[L, L], spanned by the nonzero brackets of basis elements, which
    are the integer rows of the bracket table."""
    return Subspace._from_integer_rows(L.dim, L._integer_table[1].values())


def is_perfect(L: LieAlgebra) -> bool:
    return derived_subalgebra(L).dim == L.dim


def _suffixed_labels(groups: Sequence[Sequence[str]]) -> list:
    """The labels of the groups in order, a label that occurs in two
    groups suffixed with its group's position, .1 for the first.  While
    the suffixed label is in use, as a label of a group or an earlier
    suffixed one, the suffix is appended again: a.2, then a.2.2."""
    taken = {s for group in groups for s in group}
    labels = []
    seen = set()
    for idx, group in enumerate(groups):
        for s in group:
            clash = s in seen or any(s in other for other in groups[idx + 1:])
            seen.add(s)
            if clash:
                s = f"{s}.{idx + 1}"
                while s in taken:
                    s = f"{s}.{idx + 1}"
                taken.add(s)
            labels.append(s)
    return labels


def direct_sum(*algebras: LieAlgebra) -> LieAlgebra:
    """Direct sum with componentwise brackets; duplicate labels get a
    positional suffix so the result stays readable."""
    labels = _suffixed_labels([alg.labels for alg in algebras])
    # every summand's integer rows, shifted and brought over the lcm
    den = lcm(*(alg._integer_table[0] for alg in algebras))
    rows = {}
    offset = 0
    for alg in algebras:
        scale = den // alg._integer_table[0]
        for (i, j), row in alg._integer_table[1].items():
            rows[(i + offset, j + offset)] = {k + offset: scale * c for k, c in row.items()}
        offset += alg.dim
    return LieAlgebra._from_integer_table(labels, den, rows)


def _gl(d: int) -> LieAlgebra:
    """gl(d) on the unit matrices E_ab, flattened row-major as a * d + b,
    from [E_ab, E_ce] = delta_bc E_ae - delta_ea E_cb."""
    rows = {}
    for a, b, c, e in product(range(d), repeat=4):
        if a * d + b < c * d + e and (b == c or e == a):
            # E_ae and E_cb differ here: both equal would need a = b = c = e
            row = rows[(a * d + b, c * d + e)] = {}
            if b == c:
                row[a * d + e] = 1
            if e == a:
                row[c * d + b] = -1
    return LieAlgebra._from_integer_table(
        [f"E{a + 1}{b + 1}" for a in range(d) for b in range(d)], 1, rows)


def lie_from_matrices(labels: Sequence[str], mats: Sequence[Sequence[Sequence]]) -> LieAlgebra:
    """Structure constants of a matrix Lie algebra spanned by ``mats``.

    Every matrix must be d x d for one d, with one label per matrix.  The
    constants are gl(d)'s on the span of the matrices flattened row-major
    (_entries_on), which checks exactly that they are linearly
    independent and closed under the commutator.  Labels are read as
    their str().
    """
    n = len(mats)
    if len(labels) != n:
        raise ValueError(f"label count {len(labels)} != matrix count {n}")
    labels = [str(s) for s in labels]
    if n == 0:
        return LieAlgebra._from_integer_table(labels, 1, {})
    d = len(mats[0])
    for t, m in enumerate(mats):
        if len(m) != d or any(len(row) != d for row in m):
            raise ValueError(
                f"matrices must be square and of one size: matrix {t} is not {d} x {d}"
            )
    return LieAlgebra._from_integer_table(labels, *_gl(d)._entries_on([
        {r * d + c: y for r, row in enumerate(m) for c, x in enumerate(row)
         if (y := _as_fraction(x))}
        for m in mats
    ]))


def realify(L: LieAlgebra) -> LieAlgebra:
    """View L with complexified scalars as a rational algebra of twice
    the dimension, on the basis (b_0, ..., b_{n-1}, i b_0, ..., i b_{n-1}),
    the label of i b_k being "i" before b_k's.  A label in both halves,
    as "ie" is when L is sl2C, gets direct_sum's positional suffix: .1
    in L and .2 in i L."""
    n = L.dim
    labels = _suffixed_labels([L.labels, ["i" + s for s in L.labels]])
    den, brackets = L._integer_table
    rows = {}
    for (i, j), row in brackets.items():
        # [b_i, b_j], [b_i, i b_j] = i [b_i, b_j], [b_j, i b_i] = -i [b_i, b_j]
        # and [i b_i, i b_j] = -[b_i, b_j]: four pairs, none met twice
        rows[(i, j)] = row
        rows[(i, n + j)] = {n + k: c for k, c in row.items()}
        rows[(j, n + i)] = {n + k: -c for k, c in row.items()}
        rows[(n + i, n + j)] = {k: -c for k, c in row.items()}
    return LieAlgebra._from_integer_table(labels, den, rows)
