"""Current algebras g (x) A and their canonical central extension data.

A finite-dimensional commutative associative algebra A stands in for a
function algebra: its Kaehler differential module Omega1 = (A (x) A) /
Leibniz-span carries the universal derivation d(a) = [1 (x) a], and the
quotient Omega1bar = Omega1 / d(A) plays the role of one-forms modulo
exact forms.  The canonical 2-cocycle on g (x) A,

    omega(x (x) a, y (x) b) = kappa(x, y) (x) [a d(b)],

takes values in V(g) (x) Omega1bar, and for semisimple g the map
phi -> [phi o omega] from functionals on that target to H^2(g (x) A)
is a bijection; universality_map computes it as an explicit matrix.

CommAlgebra keeps its product constants in the structure table it shares
with LieAlgebra (lie._StructureTable): one sparse table for i <= j,
mirrored with sign +1, of integers over one denominator.  The tensor
products, current algebras, validation, Kaehler relations and the
connection twist all multiply those integers, and divide by the
denominators once.  The Kaehler classes [b_i d(b_j)] and d(b_j), and
kappa (invariants.UniversalFormSpace), are held in the same form,
integer rows over one denominator read off the echelon rows
(linalg.QuotientSpace._coordinates), so omega, the twist and the
module action sum integers end to end and build Fractions only where a
public accessor reads a value.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .cohomology import Cocycle2, OneCochain, _int_key, cohomology
from .errors import (
    DimensionMismatchError,
    FibreNotSemisimpleError,
    InternalConsistencyError,
    NoLocalUnitError,
    NonUnitalError,
    NotDiagonalError,
)
from .invariants import v_space_and_kappa
from .lie import LieAlgebra, _product_classes, _StructureTable, killing_form, same_algebra
from .linalg import (
    QuotientSpace,
    SparseMatrix,
    Subspace,
    Vec,
    _as_fraction,
    _dense,
    _entries,
    _over_lcm,
    _scaled_row,
    quotient_space,
    rank,
    vector,
    zero_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CommValidationReport:
    __slots__ = ("commutativity", "associativity", "unit", "idempotents")

    def __init__(self, commutativity, associativity, unit, idempotents):
        self.commutativity = list(commutativity)
        self.associativity = list(associativity)
        self.unit = list(unit)
        self.idempotents = list(idempotents)

    @property
    def ok(self) -> bool:
        return not (
            self.commutativity or self.associativity or self.unit or self.idempotents
        )

    def __repr__(self):
        return (
            f"CommValidationReport(ok={self.ok}, comm={self.commutativity}, "
            f"assoc={self.associativity}, unit={self.unit}, idem={self.idempotents})"
        )


class CommAlgebra(_StructureTable):
    """Commutative associative algebra over QQ by structure constants.

    ``idempotents`` is an optional list of (point label, coordinates)
    pairs of orthogonal idempotents; for a unital algebra they must sum
    to the unit, turning the algebra into functions on the point set.
    Non-unital algebras may carry idempotents as local units only.
    """

    __slots__ = ("unit", "idempotents")

    _sign = 1
    _out_of_range = "product index ({},{},{}) out of range"
    _duplicate = "duplicate product entry at ({},{},{})"
    _leaves_span = "product of basis elements {}, {} leaves the span"
    _operands = "product operands must match the algebra dimension"

    product_basis = _StructureTable._basis_product
    product = _StructureTable._product
    entries = _StructureTable._entries

    def __init__(
        self,
        labels: Sequence[str],
        entries: Iterable = (),
        unit: Optional[Sequence] = None,
        idempotents=None,
    ):
        super().__init__(labels, entries)
        n = self.dim
        self.unit = vector(unit) if unit is not None else None
        if self.unit is not None and len(self.unit) != n:
            raise DimensionMismatchError("unit coordinates have wrong length")
        if idempotents is not None:
            self.idempotents = tuple(
                (str(label), vector(coords)) for label, coords in idempotents
            )
            seen = set()
            for label, coords in self.idempotents:
                if len(coords) != n:
                    raise DimensionMismatchError("idempotent coordinates have wrong length")
                if label in seen:
                    raise ValueError(f"duplicate idempotent point label {label!r}")
                seen.add(label)
        else:
            self.idempotents = None

    @classmethod
    def _from_integer_table(cls, labels: Sequence[str], den: int, rows: dict,
                            unit: Optional[Vec] = None, idempotents=None):
        """The table rows / den as _StructureTable._from_integer_table
        builds it, with the unit and idempotents, Fraction tuples as the
        constructor stores them, which the caller vouches for."""
        out = super()._from_integer_table(labels, den, rows)
        out.unit, out.idempotents = unit, idempotents
        return out

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    @property
    def points(self):
        if self.idempotents is None:
            return None
        return tuple(label for label, _ in self.idempotents)

    def basis_vector(self, i: int) -> Vec:
        out = [_ZERO] * self.dim
        out[i] = _ONE
        return tuple(out)

    def validate(self) -> CommValidationReport:
        n = self.dim
        # (b_p b_q) b_r - b_r (b_p b_q) from the nonzero products: each
        # b_p b_q with a b_t-coordinate x meets each nonzero b_t b_r = b_r b_t,
        # adding to triple (p, q, r) and subtracting from triple (r, p, q)
        # on the integer table, so the totals are over den^2
        den, products = self._integer_table
        nonzero = [{} for _ in range(n)]  # nonzero[p][q] = den b_p b_q
        for (p, q), row in products.items():
            nonzero[p][q] = nonzero[q][p] = row
        totals = defaultdict(lambda: [0] * n)
        for p in range(n):
            for q, pq in nonzero[p].items():
                for t, x in pq.items():
                    for r, tr in nonzero[t].items():
                        left, right = totals[(p, q, r)], totals[(r, p, q)]
                        for s, y in tr.items():
                            left[s] += x * y
                            right[s] -= x * y
        assoc = [(triple, tuple(Fraction(x, den * den) for x in total))
                 for triple, total in sorted(totals.items()) if any(total)]
        unit_viol = []
        if self.unit is not None:
            for i in range(n):
                image = self.product(self.unit, self.basis_vector(i))
                if image != self.basis_vector(i):
                    unit_viol.append((i, image))
        idem_viol = []
        if self.idempotents is not None:
            for s, (label_s, e_s) in enumerate(self.idempotents):
                for t, (label_t, e_t) in enumerate(self.idempotents):
                    prod = self.product(e_s, e_t)
                    expected = e_s if s == t else zero_vector(n)
                    if prod != expected:
                        idem_viol.append((label_s, label_t, prod))
            if self.unit is not None:
                total = [_ZERO] * n
                for _, e_s in self.idempotents:
                    for i, x in enumerate(e_s):
                        total[i] += x
                if tuple(total) != self.unit:
                    idem_viol.append(("sum", "unit", tuple(total)))
        return CommValidationReport(self._mirror_defects, assoc, unit_viol, idem_viol)

    def __repr__(self):
        return f"CommAlgebra(dim={self.dim}, labels={list(self.labels)})"


def _tensor_table(left: _StructureTable, right: CommAlgebra) -> tuple:
    """(den, {(i * d + p, j * d + q): {k * d + r: int}}), the integer
    table of the product on left (x) right, d = right.dim:
    (b_i (x) b_p)(b_j (x) b_q) is b_i b_j (x) b_p b_q.

    Each stored integer product of left (i <= j) meets each nonzero
    integer product of right in both orders, so the lower flat index
    comes first; for i == j only p <= q.  Each flat pair and flat k * d + r
    then arise once, so nothing is summed, and each value is the product
    of two integers over den, the product of the two denominators.
    """
    d = right.dim
    lden, left_products = left._integer_table
    rden, right_products = right._integer_table
    both = [*right_products.items(),
            *(((q, p), row) for (p, q), row in right_products.items() if p != q)]
    rows = {}
    for (i, j), left_row in left_products.items():
        for (p, q), right_row in both:
            if i < j or p <= q:
                rows[(i * d + p, j * d + q)] = {k * d + r: a * b for k, a in left_row.items()
                                                for r, b in right_row.items()}
    return lden * rden, rows


def tensor_comm(A: CommAlgebra, B: CommAlgebra) -> CommAlgebra:
    """Tensor product of commutative algebras on the product basis, the
    pair of labels a and b labelled a*b."""
    labels = [f"{a}*{b}" for a in A.labels for b in B.labels]
    unit = None
    if A.is_unital and B.is_unital:
        unit = _outer(A.unit, B.unit)
    idempotents = None
    if A.idempotents is not None and B.is_unital:
        idempotents = tuple((label, _outer(e, B.unit)) for label, e in A.idempotents)
    elif A.is_unital and A.idempotents is None and B.idempotents is not None:
        idempotents = tuple((label, _outer(A.unit, e)) for label, e in B.idempotents)
    return CommAlgebra._from_integer_table(labels, *_tensor_table(A, B), unit, idempotents)


def _outer(u: Vec, v: Vec) -> Vec:
    """u (x) v on the product basis, multiplying nonzero coordinates only."""
    out = [_ZERO] * (len(u) * len(v))
    nonzero_v = [(p, y) for p, y in enumerate(v) if y]
    for i, x in enumerate(u):
        if x:
            for p, y in nonzero_v:
                out[i * len(v) + p] = x * y
    return tuple(out)


class KaehlerModule:
    """Omega1 = (A (x) A)/Leibniz with d(a) = [1 (x) a], and Omega1bar.

    Tensor coordinates index pairs (i, j) = b_i (x) d(b_j) flattened as
    i * dim + j; the first slot is the module coefficient.  ``classes``
    are the product classes of the basis (see kaehler_module).  The
    classes [b_i d(b_j)] are held as integer rows over one denominator,
    _pairs = (den, {(i, j): {t: int}}), stored only when nonzero, which
    needs b_i and b_j in one product class; _d_table = (den, rows) holds
    d(b_j) the same way.  pair_class, one_form, d, d_basis and
    module_action sum integers and build Fractions when they are read.
    """

    __slots__ = ("parent", "classes", "omega1", "omega1bar", "_pairs", "_d_table")

    def __init__(self, parent: CommAlgebra, classes, omega1: QuotientSpace,
                 omega1bar: QuotientSpace, pairs: tuple, d_table: tuple):
        self.parent = parent
        self.classes = tuple(tuple(members) for members in classes)
        self.omega1 = omega1
        self.omega1bar = omega1bar
        self._pairs = pairs
        self._d_table = d_table

    @property
    def dim_omega1(self) -> int:
        return self.omega1.dim

    @property
    def dim_omega1bar(self) -> int:
        return self.omega1bar.dim

    def _check_length(self, v: Sequence, what: str) -> None:
        if len(v) != self.parent.dim:
            raise DimensionMismatchError(
                f"{what} has length {len(v)}, the algebra has dimension {self.parent.dim}"
            )

    def pair_class(self, i: int, j: int) -> Vec:
        """[b_i d(b_j)] in Omega1 coordinates."""
        d = self.parent.dim
        if not (0 <= i < d and 0 <= j < d):
            raise IndexError(f"basis pair ({i}, {j}) out of range({d})")
        den, pairs = self._pairs
        return _dense(pairs.get((i, j), {}), den, self.dim_omega1)

    def one_form(self, a: Sequence, b: Sequence) -> Vec:
        """[a d(b)] in Omega1 coordinates."""
        self._check_length(a, "one-form coefficient")
        self._check_length(b, "one-form argument")
        d = self.parent.dim
        aden, a = _scaled_row(_entries(a, d))
        bden, b = _scaled_row(_entries(b, d))
        den, pairs = self._pairs
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                for t, value in pairs.get((i, j), {}).items():
                    out[t] = out.get(t, 0) + x * y * value
        return _dense(out, den * aden * bden, self.dim_omega1)

    def d(self, a: Sequence) -> Vec:
        if not self.parent.is_unital:
            raise NonUnitalError("d requires a unital algebra")
        return self.one_form(self.parent.unit, a)

    def d_basis(self, j: int) -> Vec:
        if not 0 <= j < self.parent.dim:
            raise IndexError(f"basis index {j} out of range({self.parent.dim})")
        den, rows = self._d_table
        return _dense(rows[j], den, self.dim_omega1)

    def _act(self, r: int, col: int) -> dict:
        """b_r . [b_i d(b_j)] for representative column col = i * dim + j,
        as an integer row over the pairs' denominator times A's:
        b_r [b_i d(b_j)] = sum_s (b_r b_i)_s [b_s d(b_j)], summed from the
        integer product table and the sparse pair table."""
        i, j = divmod(col, self.parent.dim)
        _, products = self.parent._integer_table
        pairs = self._pairs[1]
        out = {}
        for s, c in products.get((r, i) if r <= i else (i, r), {}).items():
            for t, value in pairs.get((s, j), {}).items():
                out[t] = out.get(t, 0) + c * value
        return {t: x for t, x in out.items() if x}

    def module_action(self, a: Sequence, w: Sequence) -> Vec:
        """First-slot action of a on an Omega1 element.

        Coordinate t of w is the class [b_i d(b_j)] of representative
        column i * dim + j, and a . [b_i d(b_j)] = sum_r a_r (b_r . [b_i d(b_j)])
        is summed from _act.
        """
        self._check_length(a, "acting element")
        if len(w) != self.dim_omega1:
            raise DimensionMismatchError(
                f"Omega1 element has length {len(w)}, Omega1 has dimension {self.dim_omega1}"
            )
        aden, a = _scaled_row(_entries(a, self.parent.dim))
        wden, w = _scaled_row(_entries(w, self.dim_omega1))
        out = {}
        for q, coef in w.items():
            col = self.omega1.rep_cols[q]
            for r, x in a.items():
                for t, value in self._act(r, col).items():
                    out[t] = out.get(t, 0) + x * coef * value
        den = self.parent._integer_table[0] * self._pairs[0] * aden * wden
        return _dense(out, den, self.dim_omega1)

    def bar(self, w: Sequence) -> Vec:
        """Class of an Omega1 element in Omega1bar."""
        return self.omega1bar.project(w)

    def bar_pair(self, i: int, j: int) -> Vec:
        return self.omega1bar.project(self.pair_class(i, j))

    def __repr__(self):
        return (
            f"KaehlerModule(dim A = {self.parent.dim}, "
            f"dim Omega1 = {self.dim_omega1}, dim Omega1bar = {self.dim_omega1bar})"
        )


def kaehler_module(A: CommAlgebra) -> KaehlerModule:
    """Kaehler differentials of a unital algebra as an exact quotient.

    Omega1 = (A (x) A) / span{ c (x) ab - ca (x) b - cb (x) a } over all
    basis triples (a, b, c); the span is closed under the first-slot
    module action, so the action descends.

    The span is built one product class at a time (_product_classes):
    it is spanned by the unit tensors b_i (x) b_j with b_i and b_j in
    different classes, together with the relations on triples inside one
    class.  For a valid unital algebra this is the same subspace, so its
    reduced echelon basis, and every quotient coordinate, is that of the
    all-triples span:

    - a relation on a triple that meets two classes has every term zero
      or a cross unit tensor, since b_i b_j = 0 across classes;
    - each cross unit tensor lies in the span: the class s of b_i has a
      unit e_s (the part of the unit of A on that class), b_i e_s = b_i
      and e_s b_j = 0, so the relation on (e_s, b_j, b_i) reads
      b_i d(b_j) = b_i d(e_s b_j) - b_i b_j d(e_s) = 0 in Omega1.

    The second step uses that the unit acts as the identity, so the
    split assumes a valid unital algebra, as the command line checks for
    JSON input.  With a single class this is the all-triples span.

    Only the relations inside each class are eliminated.  The cross unit
    tensors are placed, not eliminated: each is its own echelon row
    {c: 1}, and no in-class relation has a cross column, so the in-class
    echelon rows with those rows merged in by column are already the
    reduced echelon basis of the whole span.
    """
    if not A.is_unital:
        raise NonUnitalError("Kaehler module requires a unital algebra (adjoin_unit_extend first)")
    d = A.dim
    ambient = d * d
    classes = _product_classes(A)
    class_of = {i: members for members in classes for i in members}
    # the relations as integer rows: every product constant is scaled by
    # the lcm of their denominators, which rescales each Leibniz row and
    # leaves the span alone; they reach the eliminator as they are
    _, products = A._integer_table

    def product(i, j):
        return products.get((i, j) if i <= j else (j, i), {})

    relations = []
    for members in classes:
        for x, a in enumerate(members):
            for b in members[x:]:
                ab = product(a, b)
                for c in members:
                    row = defaultdict(int)
                    for k, coef in ab.items():
                        row[c * d + k] += coef
                    for k, coef in product(c, a).items():
                        row[k * d + b] -= coef
                    for k, coef in product(c, b).items():
                        row[k * d + a] -= coef
                    relations.append({idx: v for idx, v in row.items() if v})
    # the cross unit tensors placed by column (see above)
    inner = Subspace._from_integer_rows(ambient, relations)
    echelon = dict(zip(inner.pivots, inner._rows))
    echelon.update((c, {c: 1}) for c in range(ambient) if class_of[c // d] is not class_of[c % d])
    pivots = sorted(echelon)
    omega1 = quotient_space(ambient, Subspace(ambient, pivots, map(echelon.get, pivots)))
    # [b_i d(b_j)] for the pairs inside one class, in lexicographic order,
    # then brought over one denominator.  Each is the quotient coordinates
    # of a unit vector, read off the echelon rows as _coordinates would:
    # representative column c is coordinate c - #{pivots < c}, and a pivot
    # column's unit vector is minus its reduced row's other entries, in
    # column order, over the row's lead
    units = {}
    for i in range(d):
        for j in class_of[i]:
            c = i * d + j
            row = echelon.get(c)
            if row is None:
                units[(i, j)] = (1, {c - bisect_left(pivots, c): 1})
            elif len(row) > 1:
                units[(i, j)] = (row[c], {x - bisect_left(pivots, x): -value
                                          for x, value in sorted(row.items()) if x != c})
    den, pairs = _over_lcm(units)
    # d(b_j) = sum_i u_i [b_i d(b_j)], the unit scaled to integers over uden
    uden, unit = _scaled_row({i: u for i, u in enumerate(A.unit) if u})
    d_rows = []
    for j in range(d):
        row = {}
        for i in class_of[j]:
            if i in unit:
                for t, value in pairs.get((i, j), {}).items():
                    row[t] = row.get(t, 0) + unit[i] * value
        d_rows.append({t: x for t, x in row.items() if x})
    omega1bar = quotient_space(omega1.dim, Subspace._from_integer_rows(omega1.dim, d_rows))
    return KaehlerModule(A, classes, omega1, omega1bar, (den, pairs), (den * uden, d_rows))


class CurrentAlgebra:
    """g (x) A with bracket [x (x) a, y (x) b] = [x, y] (x) ab."""

    __slots__ = ("fibre", "coeff", "total")

    def __init__(self, fibre: LieAlgebra, coeff: CommAlgebra):
        self.fibre = fibre
        self.coeff = coeff
        labels = [f"{g}*{a}" for g in fibre.labels for a in coeff.labels]
        self.total = LieAlgebra._from_integer_table(labels, *_tensor_table(fibre, coeff))

    @property
    def dim(self) -> int:
        return self.total.dim

    def flat(self, i: int, p: int) -> int:
        return i * self.coeff.dim + p

    def unflat(self, idx: int):
        return divmod(idx, self.coeff.dim)

    def embed_fibre(self, x: Sequence) -> Vec:
        """x (x) 1 for unital A."""
        if not self.coeff.is_unital:
            raise NonUnitalError("embedding constants requires a unital algebra")
        if len(x) != self.fibre.dim:
            raise DimensionMismatchError("fibre element length must match the fibre dimension")
        out = [_ZERO] * self.dim
        for i, c in enumerate(x):
            if c:
                for p, u in enumerate(self.coeff.unit):
                    if u:
                        out[self.flat(i, p)] = _as_fraction(c) * u
        return tuple(out)

    def tensor(self, x: Sequence, a: Sequence) -> Vec:
        if len(x) != self.fibre.dim or len(a) != self.coeff.dim:
            raise DimensionMismatchError(
                "tensor operands must match the fibre and coefficient dimensions"
            )
        out = [_ZERO] * self.dim
        for i, c in enumerate(x):
            if c:
                for p, u in enumerate(a):
                    if u:
                        out[self.flat(i, p)] += _as_fraction(c) * _as_fraction(u)
        return tuple(out)

    def __repr__(self):
        return (
            f"CurrentAlgebra(fibre dim = {self.fibre.dim}, "
            f"coeff dim = {self.coeff.dim})"
        )


def current_algebra(g: LieAlgebra, A: CommAlgebra) -> CurrentAlgebra:
    return CurrentAlgebra(g, A)


def _support_points(A: CommAlgebra, a: Sequence):
    """Points where an algebra element has a nonzero idempotent component."""
    out = set()
    for label, e in A.idempotents:
        if any(A.product(e, a)):
            out.add(label)
    return frozenset(out)


def _local_unit(A: CommAlgebra, a: Sequence) -> Vec:
    """Idempotent acting as the identity on a, built from a's support."""
    if A.idempotents is None:
        raise NoLocalUnitError(frozenset())
    support = _support_points(A, a)
    lam = [_ZERO] * A.dim
    for label, e in A.idempotents:
        if label in support:
            for i, x in enumerate(e):
                lam[i] += x
    if A.product(lam, a) != vector(a):
        raise NoLocalUnitError(support)
    return tuple(lam)


class UnitExtension:
    __slots__ = ("algebra", "embedding", "cocycle", "current")

    def __init__(self, algebra, embedding, cocycle, current):
        self.algebra = algebra
        self.embedding = embedding
        self.cocycle = cocycle
        self.current = current


def adjoin_unit_extend(
    A: CommAlgebra,
    psi: Optional[Cocycle2] = None,
    current: Optional[CurrentAlgebra] = None,
) -> UnitExtension:
    """Adjoin a unit: A+ = QQ.1 + A, extending a cocycle on g (x) A.

    The extension sets psi+(x (x) 1, y (x) 1) = 0 and
    psi+(f, x (x) 1) = psi(f, x (x) lambda) for an idempotent local unit
    lambda on the support of f.  The value does not depend on the choice
    of lambda because psi is diagonal; diagonality is checked whenever A
    carries an idempotent support structure.  psi+ is built in one pass
    over psi's stored pairs, in O(nnz psi * m): bilinearity spreads each
    value over the basis pairs it reaches.
    """
    if A.is_unital:
        raise ValueError("algebra is already unital")
    n = A.dim
    den, products = A._integer_table
    # the unit row, then A's products with each index shifted by one
    rows = {(0, j): {j: den} for j in range(n + 1)}
    for (i, j), row in products.items():
        rows[(i + 1, j + 1)] = {k + 1: c for k, c in row.items()}
    # A's local units need not sum to the new unit, so the extended
    # algebra takes no idempotents: it claims no full point decomposition
    unit = (_ONE,) + zero_vector(n)
    A_plus = CommAlgebra._from_integer_table(("1",) + A.labels, den, rows, unit)

    def embed(a):
        return (_ZERO,) + tuple(_as_fraction(x) for x in a)

    if psi is None:
        return UnitExtension(A_plus, embed, None, None)
    if current is None or current.coeff is not A:
        raise ValueError("extending a cocycle requires its current algebra over A")
    g = current.fibre
    if not same_algebra(psi.parent, current.total):
        raise ValueError("cocycle is not defined on the given current algebra")
    current_plus = CurrentAlgebra(g, A_plus)
    lambdas = []
    if not psi.is_zero():
        if A.idempotents is not None:
            supports = [_support_points(A, A.basis_vector(p)) for p in range(n)]
            for fi, fj in sorted(psi._num):
                if not supports[current.unflat(fi)[1]] & supports[current.unflat(fj)[1]]:
                    raise NotDiagonalError((fi, fj))
        lambdas = [_local_unit(A, A.basis_vector(p)) for p in range(n)]
    # the local units as integer rows over one denominator
    lden, lam_rows = _over_lcm({
        p: _scaled_row({q: x for q, x in enumerate(lam) if x}) for p, lam in enumerate(lambdas)
    })
    m = psi.coeff_dim
    zero = (0,) * m
    table = {}

    def add(a, b, scale, value):
        """psi+(a, b) += scale * value, stored on the increasing pair."""
        if a > b:
            a, b, scale = b, a, -scale
        old = table.get((a, b), zero)
        table[(a, b)] = tuple(x + scale * y for x, y in zip(old, value))

    # v = psi(x_i (x) b_p, x_j (x) b_q) is psi+ on the same pair, and adds
    # lambda_p[q] v to psi+(x_i (x) b_p, x_j (x) 1) = psi(x_i (x) b_p, x_j (x) lambda_p)
    # and -lambda_q[p] v to psi+(x_j (x) b_q, x_i (x) 1); constants pair to zero
    for (fi, fj), value in psi._num.items():
        i, p = current.unflat(fi)
        j, q = current.unflat(fj)
        a, b = current_plus.flat(i, p + 1), current_plus.flat(j, q + 1)
        table[(a, b)] = tuple(lden * x for x in value)
        if q in lam_rows[p]:
            add(a, current_plus.flat(j, 0), lam_rows[p][q], value)
        if p in lam_rows[q]:
            add(b, current_plus.flat(i, 0), -lam_rows[q][p], value)
    psi_plus = Cocycle2._from_integers(current_plus.total, m, table, lden * psi._den)
    return UnitExtension(A_plus, embed, psi_plus, current_plus)


class UniversalCocycle:
    """The canonical cocycle with the spaces it is built from."""

    __slots__ = ("current", "forms", "kaehler", "cocycle", "note")

    def __init__(self, current, forms, kaehler, cocycle, note):
        self.current = current
        self.forms = forms
        self.kaehler = kaehler
        self.cocycle = cocycle
        self.note = note

    @property
    def coeff_dim(self) -> int:
        return self.cocycle.coeff_dim

    def __repr__(self):
        return f"UniversalCocycle(coeff_dim = {self.coeff_dim}, note = {self.note!r})"


def universal_cocycle(g: LieAlgebra, A: CommAlgebra) -> UniversalCocycle:
    """omega(x (x) a, y (x) b) = kappa(x, y) (x) [a d(b)] on g (x) A.

    Coefficient coordinates flatten V(g) (x) Omega1bar as
    t * dim(Omega1bar) + u.  When Omega1bar = 0 the zero cocycle (with
    zero-dimensional coefficient space) is returned, with a note.
    """
    forms = v_space_and_kappa(g)
    kaehler = kaehler_module(A)
    current = CurrentAlgebra(g, A)
    v = forms.dim
    w = kaehler.dim_omega1bar
    m = v * w
    note = None
    if w == 0:
        note = "Omega1bar = 0: the universal cocycle is the zero cocycle"
    # pairs in different product classes have [b_p d(b_q)] = 0; the
    # stored pairs keep the lexicographic order of the loop they replace.
    # The integer pair rows are projected to Omega1bar as they are, and
    # omega sums the integer bar classes and kappa rows in the cochains'
    # integer form
    pden, pairs = kaehler._pairs
    bden, bars = _over_lcm({pair: kaehler.omega1bar._coordinates(row)
                            for pair, row in pairs.items()})
    bar_table = {pair: row for pair, row in bars.items() if row}
    kden, kappa = forms._kappa
    # a flat pair fi < fj always has fibre indices i <= j, the order of
    # forms.sym.pairs, so each stored value is read off the formula directly
    table = {}
    for (i, j), kap in zip(forms.sym.pairs, kappa):
        if not kap:
            continue
        for (p, q), bar in bar_table.items():
            fi, fj = current.flat(i, p), current.flat(j, q)
            if fi >= fj:
                continue
            value = [0] * m
            for t, kv in kap.items():
                for u, bv in bar.items():
                    value[t * w + u] = kv * bv
            table[(fi, fj)] = tuple(value)
    cocycle = Cocycle2._from_integers(current.total, m, table, kden * bden * pden)
    return UniversalCocycle(current, forms, kaehler, cocycle, note)


def _universal_cocycle_on(g: LieAlgebra, A: CommAlgebra,
                          uc: Optional[UniversalCocycle]) -> UniversalCocycle:
    """uc, checked to be built on g and A, or universal_cocycle(g, A)."""
    if uc is None:
        return universal_cocycle(g, A)
    if not (same_algebra(uc.current.fibre, g) and same_algebra(uc.current.coeff, A)):
        raise DimensionMismatchError("the universal cocycle is built on other algebras")
    return uc


class GValuedOneForm:
    """Element of g (x) Omega1, the finite stand-in for a g-valued
    one-form; used to vary the connection."""

    __slots__ = ("fibre_dim", "omega1_dim", "entries")

    def __init__(self, fibre_dim: int, omega1_dim: int, entries=()):
        self.fibre_dim = fibre_dim
        self.omega1_dim = omega1_dim
        table = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for key, value in items:
            if not _int_key(key, 2):
                raise ValueError(f"one-form entry key {key!r} is not a pair of ints")
            i, t = key
            if not (0 <= i < fibre_dim and 0 <= t < omega1_dim):
                raise ValueError(f"one-form entry ({i}, {t}) out of range")
            if (i, t) in table:
                raise ValueError(f"duplicate one-form entry ({i}, {t})")
            table[(i, t)] = _as_fraction(value)
        self.entries = {key: value for key, value in table.items() if value}

    @classmethod
    def zero(cls, fibre_dim: int, omega1_dim: int) -> "GValuedOneForm":
        return cls(fibre_dim, omega1_dim)

    def __repr__(self):
        return f"GValuedOneForm(nonzero = {len(self.entries)})"


class TwistResult:
    __slots__ = ("tau", "beta")

    def __init__(self, tau: Cocycle2, beta: OneCochain):
        self.tau = tau
        self.beta = beta


def twist_difference(
    g: LieAlgebra,
    A: CommAlgebra,
    xi: GValuedOneForm,
    *,
    uc: Optional[UniversalCocycle] = None,
) -> TwistResult:
    """Cocycle difference produced by varying the connection by xi.

    tau(xi', eta) pairs xi' with [xi, eta] under kappa and takes the
    Omega1bar class; beta(chi) is the kappa-pairing of xi with chi, and
    tau = d beta holds exactly (verified; failure would be a bug).

    With xi = sum coef z_c (x) w_t over its entries (c, t), both maps are
    linear in the algebra element acting on w_t, so they are assembled
    from three tables instead of one module action per term:

    - N[t][r] = [b_r . w_t] in Omega1bar, for each Omega1 coordinate t
      that xi uses and each basis element b_r of A.  w_t is [b_i d(b_j)]
      for its representative column i * dim A + j, and
      b_r [b_i d(b_j)] is the integer row KaehlerModule._act returns,
      projected to Omega1bar as it is (QuotientSpace._coordinates);
    - B[b][t] = sum_c coef kappa(z_c, x_b), for each fibre index b;
    - K[a, b][t] = sum_c coef sum_k [z_c, x_b]_k kappa(x_a, x_k), for each
      fibre pair (a, b) that some bracket reaches; B and K hold vectors of
      length dim V.

    Then beta(x_b (x) b_q) = sum_t B[b][t] (x) N[t][q] and
    tau(x_a (x) b_p, x_b (x) b_q) = sum_r (b_p b_q)_r sum_t K[a, b][t] (x) N[t][r].

    All of it is integer arithmetic.  The products of A and the brackets
    of g are their integer tables, kappa is UniversalFormSpace._kappa,
    and N, summed from A's products and the integer pair classes,
    carries both their denominators and the lcm of its projections' own;
    N keeps only its nonzero entries, and the coefficients of xi are
    scaled by the lcm of their denominators.  tau and beta are built in
    the cochains' integer form over the product of those denominators,
    and no Fraction is built but the coefficients of xi.
    """
    uc = _universal_cocycle_on(g, A, uc)
    forms, kaehler, current = uc.forms, uc.kaehler, uc.current
    v, w = forms.dim, kaehler.dim_omega1bar
    m = v * w
    if xi.fibre_dim != g.dim or xi.omega1_dim != kaehler.dim_omega1:
        raise DimensionMismatchError("one-form shape does not match g (x) Omega1")
    n, da = g.dim, A.dim

    aden, products = A._integer_table
    pden = kaehler._pairs[0]
    used = sorted({t for _, t in xi.entries})
    # N over nden aden pden: each b_r . w_t is projected to Omega1bar as
    # the integer row _act returns
    rep_cols = kaehler.omega1.rep_cols
    nden, bars = _over_lcm({(t, r): kaehler.omega1bar._coordinates(kaehler._act(r, rep_cols[t]))
                            for t in used for r in range(da)})
    N = {t: [bars[(t, r)] for r in range(da)] for t in used}
    kden, krows = forms._kappa
    kappa = [[krows[forms.sym.flat(i, j)] for j in range(n)] for i in range(n)]
    xden = lcm(*{coef.denominator for coef in xi.entries.values()})
    gden, brackets = g._integer_table
    ad = [{} for _ in range(n)]  # ad[c][b] = gden [z_c, x_b] as (k, int) pairs
    for (i, j), row in brackets.items():
        ad[i][j] = list(row.items())
        ad[j][i] = [(k, -c) for k, c in row.items()]

    def accumulate(table, key, t, kap, scale):
        if kap:
            total = table.setdefault(key, {}).setdefault(t, [0] * v)
            for s, x in kap.items():
                total[s] += scale * x

    # B is scaled by xden kden, K by xden gden kden
    B, K = {}, {}
    for (c, t), coef in xi.entries.items():
        coef = coef.numerator * (xden // coef.denominator)
        for b in range(n):
            accumulate(B, b, t, kappa[c][b], coef)
            for k, cc in ad[c].get(b, ()):
                for a in range(n):
                    accumulate(K, (a, b), t, kappa[a][k], coef * cc)

    def fold(parts, r):
        """sum_t parts[t] (x) N[t][r], flattened as s * w + u."""
        out = [0] * m
        for t, kap in parts.items():
            bar = N[t][r]
            if bar:
                for s, kv in enumerate(kap):
                    if kv:
                        for u, bv in bar.items():
                            out[s * w + u] += kv * bv
        return out

    beta = OneCochain._from_integers(
        current.total, m,
        [tuple(fold(B.get(b, {}), q)) for b in range(n) for q in range(da)],
        xden * kden * nden * pden * aden,
    )
    folded = {
        pair: [[(idx, x) for idx, x in enumerate(fold(parts, r)) if x] for r in range(da)]
        for pair, parts in K.items()
    }
    table = {}
    for a in range(n):
        for p in range(da):
            fi = current.flat(a, p)
            for b in range(n):
                by_r = folded.get((a, b))
                if by_r is None:
                    continue
                for q in range(da):
                    fj = current.flat(b, q)
                    if fi >= fj:
                        continue
                    total = [0] * m
                    for r, c in products.get((p, q) if p <= q else (q, p), {}).items():
                        for idx, x in by_r[r]:
                            total[idx] += c * x
                    if any(total):
                        table[(fi, fj)] = tuple(total)
    tau = Cocycle2._from_integers(current.total, m, table,
                                  xden * gden * kden * nden * pden * aden * aden)
    if tau != beta.coboundary():
        raise InternalConsistencyError("twist difference is not the coboundary of its primitive")
    return TwistResult(tau, beta)


class UniversalityResult:
    """Matrix of phi -> [phi o omega] in the computed H^2 basis."""

    __slots__ = ("matrix", "bijective", "dim_hom", "dim_h2", "h2", "uc")

    def __init__(self, matrix, bijective, dim_hom, dim_h2, h2, uc):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.bijective = bijective
        self.dim_hom = dim_hom
        self.dim_h2 = dim_h2
        self.h2 = h2
        self.uc = uc

    def __repr__(self):
        return (
            f"UniversalityResult({self.dim_hom} -> {self.dim_h2}, "
            f"bijective = {self.bijective})"
        )


def universality_map(
    g: LieAlgebra,
    A: CommAlgebra,
    m: int,
    *,
    uc: Optional[UniversalCocycle] = None,
    ceiling: Optional[int] = None,
) -> UniversalityResult:
    """Matrix of Hom(V(g) (x) Omega1bar, QQ^m) -> H^2(g (x) A, QQ^m).

    Requires a semisimple fibre; the map sends the elementary functional
    picking coordinate t into target slot a to the class of the
    corresponding scalar multiple of the canonical cocycle.
    """
    _, semisimple = killing_form(g)
    if not semisimple:
        raise FibreNotSemisimpleError()
    if not A.is_unital:
        raise NonUnitalError("universality_map requires a unital coefficient algebra")
    uc = _universal_cocycle_on(g, A, uc)
    target_dim = uc.coeff_dim  # dim V (x) Omega1bar
    dim_hom = target_dim * m
    h2 = cohomology(uc.current.total, 2, m, ceiling=ceiling)
    # H^2(L, QQ^m) = H^2(L, QQ) (x) QQ^m: scalar class coordinate k of the
    # component omega_t sits at rows k * m + a of columns t * m + a, so the
    # matrix is S (x) I_m with S computed once per t
    matrix = [[_ZERO] * dim_hom for _ in range(h2.dimension)]
    for t in range(target_dim if m else 0):  # QQ^0 has no classes to read
        for k, c in h2.scalar_class_coordinates(uc.cocycle.slot(t)).items():
            for a in range(m):
                matrix[k * m + a][t * m + a] = c
    square = dim_hom == h2.dimension
    if square and dim_hom:
        bijective = rank(SparseMatrix.from_dense(matrix)) == dim_hom
    else:
        bijective = square  # two zero-dimensional spaces are bijective
    return UniversalityResult(matrix, bijective, dim_hom, h2.dimension, h2, uc)
