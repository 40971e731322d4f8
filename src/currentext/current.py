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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .cohomology import Cocycle2, OneCochain, cohomology
from .errors import (
    DimensionMismatchError,
    FibreNotSemisimpleError,
    InternalConsistencyError,
    NoLocalUnitError,
    NonUnitalError,
    NotDiagonalError,
)
from .invariants import UniversalFormSpace, v_space_and_kappa
from .lie import LieAlgebra, killing_form, same_algebra
from .linalg import (
    QuotientSpace,
    SparseMatrix,
    Subspace,
    Vec,
    _as_fraction,
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


class CommAlgebra:
    """Commutative associative algebra over QQ by structure constants.

    ``idempotents`` is an optional list of (point label, coordinates)
    pairs of orthogonal idempotents; for a unital algebra they must sum
    to the unit, turning the algebra into functions on the point set.
    Non-unital algebras may carry idempotents as local units only.
    """

    __slots__ = ("labels", "_raw", "_table", "unit", "idempotents")

    def __init__(
        self,
        labels: Sequence[str],
        entries: Iterable = (),
        unit: Optional[Sequence] = None,
        idempotents=None,
    ):
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        raw = {}
        for i, j, k, value in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"product index ({i},{j},{k}) out of range")
            value = _as_fraction(value)
            if not value:
                continue
            row = raw.setdefault((i, j), {})
            if k in row:
                raise ValueError(f"duplicate product entry at ({i},{j},{k})")
            row[k] = value
        self._raw = raw
        # canonical i <= j table; an entry in canonical order wins over the
        # mirror of its transpose (they agree for valid input)
        table = {}
        for (i, j), row in raw.items():
            if i <= j:
                table[(i, j)] = dict(row)
        for (i, j), row in raw.items():
            if i > j and (j, i) not in table:
                table[(j, i)] = dict(row)
        self._table = table
        self.unit = vector(unit) if unit is not None else None
        if self.unit is not None and len(self.unit) != n:
            raise DimensionMismatchError("unit coordinates have wrong length")
        if idempotents is not None:
            self.idempotents = tuple(
                (str(label), vector(coords)) for label, coords in idempotents
            )
            for _, coords in self.idempotents:
                if len(coords) != n:
                    raise DimensionMismatchError("idempotent coordinates have wrong length")
        else:
            self.idempotents = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    @property
    def points(self):
        if self.idempotents is None:
            return None
        return tuple(label for label, _ in self.idempotents)

    def product_basis(self, i: int, j: int) -> dict:
        key = (i, j) if i <= j else (j, i)
        return self._table.get(key, {})

    def product(self, u: Sequence, v: Sequence) -> Vec:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError("product operands must match the algebra dimension")
        out = [_ZERO] * self.dim
        nz_u = [(i, _as_fraction(x)) for i, x in enumerate(u) if x]
        nz_v = [(j, _as_fraction(x)) for j, x in enumerate(v) if x]
        for i, a in nz_u:
            for j, b in nz_v:
                coef = a * b
                for k, c in self.product_basis(i, j).items():
                    out[k] += coef * c
        return tuple(out)

    def basis_vector(self, i: int) -> Vec:
        out = [_ZERO] * self.dim
        out[i] = _ONE
        return tuple(out)

    def entries(self):
        out = []
        for (i, j) in sorted(self._table):
            row = self._table[(i, j)]
            for k in sorted(row):
                out.append((i, j, k, row[k]))
        return out

    def validate(self) -> CommValidationReport:
        n = self.dim
        comm = []
        for (i, j), row in sorted(self._raw.items()):
            if i >= j:
                continue
            mirror = self._raw.get((j, i))
            if mirror is None:
                continue
            for k in sorted(set(row) | set(mirror)):
                if row.get(k, _ZERO) != mirror.get(k, _ZERO):
                    comm.append((i, j, k, row.get(k, _ZERO) - mirror.get(k, _ZERO)))
        assoc = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.product(
                        self.product(self.basis_vector(i), self.basis_vector(j)),
                        self.basis_vector(k),
                    )
                    right = self.product(
                        self.basis_vector(i),
                        self.product(self.basis_vector(j), self.basis_vector(k)),
                    )
                    if left != right:
                        assoc.append(
                            ((i, j, k), tuple(a - b for a, b in zip(left, right)))
                        )
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
        return CommValidationReport(comm, assoc, unit_viol, idem_viol)

    def __repr__(self):
        return f"CommAlgebra(dim={self.dim}, labels={list(self.labels)})"


def tensor_comm(A: CommAlgebra, B: CommAlgebra, sep: str = "*") -> CommAlgebra:
    """Tensor product of commutative algebras on the product basis."""
    labels = [f"{a}{sep}{b}" for a in A.labels for b in B.labels]
    db = B.dim

    def flat(i, p):
        return i * db + p

    entries = []
    for i in range(A.dim):
        for j in range(A.dim):
            if j < i:
                continue
            prod_a = A.product_basis(i, j)
            if not prod_a:
                continue
            for p in range(db):
                for q in range(db):
                    if (i, p) > (j, q):
                        continue
                    prod_b = B.product_basis(p, q)
                    for r, ca in prod_a.items():
                        for s, cb in prod_b.items():
                            entries.append((flat(i, p), flat(j, q), flat(r, s), ca * cb))
    unit = None
    if A.is_unital and B.is_unital:
        unit = [A.unit[i] * B.unit[p] for i in range(A.dim) for p in range(db)]
    idempotents = None
    if A.idempotents is not None and B.is_unital:
        idempotents = [
            (label, tuple(e[i] * B.unit[p] for i in range(A.dim) for p in range(db)))
            for label, e in A.idempotents
        ]
    elif A.is_unital and A.idempotents is None and B.idempotents is not None:
        idempotents = [
            (label, tuple(A.unit[i] * e[p] for i in range(A.dim) for p in range(db)))
            for label, e in B.idempotents
        ]
    return CommAlgebra(labels, entries, unit, idempotents)


class KaehlerModule:
    """Omega1 = (A (x) A)/Leibniz with d(a) = [1 (x) a], and Omega1bar.

    Tensor coordinates index pairs (i, j) = b_i (x) d(b_j) flattened as
    i * dim + j; the first slot is the module coefficient.
    """

    __slots__ = ("parent", "omega1", "omega1bar", "_pair_class", "_d_table")

    def __init__(self, parent: CommAlgebra, omega1: QuotientSpace, omega1bar: QuotientSpace):
        self.parent = parent
        self.omega1 = omega1
        self.omega1bar = omega1bar
        d = parent.dim
        self._pair_class = tuple(self._unit_class(idx) for idx in range(d * d))
        self._d_table = tuple(self.d(parent.basis_vector(j)) for j in range(d))

    def _unit_class(self, idx: int) -> Vec:
        """Omega1 coordinates of the unit tensor at flat position idx."""
        out = [_ZERO] * self.omega1.dim
        for col, value in self.omega1.project({idx: _ONE}).items():
            out[col] = value
        return tuple(out)

    @property
    def dim_omega1(self) -> int:
        return self.omega1.dim

    @property
    def dim_omega1bar(self) -> int:
        return self.omega1bar.dim

    def pair_class(self, i: int, j: int) -> Vec:
        """[b_i d(b_j)] in Omega1 coordinates."""
        return self._pair_class[i * self.parent.dim + j]

    def one_form(self, a: Sequence, b: Sequence) -> Vec:
        """[a d(b)] in Omega1 coordinates."""
        out = [_ZERO] * self.dim_omega1
        for i, x in enumerate(a):
            if not x:
                continue
            x = _as_fraction(x)
            for j, y in enumerate(b):
                if not y:
                    continue
                coef = x * _as_fraction(y)
                for t, v in enumerate(self.pair_class(i, j)):
                    out[t] += coef * v
        return tuple(out)

    def d(self, a: Sequence) -> Vec:
        if not self.parent.is_unital:
            raise NonUnitalError("d requires a unital algebra")
        return self.one_form(self.parent.unit, a)

    def d_basis(self, j: int) -> Vec:
        return self._d_table[j]

    def module_action(self, a: Sequence, w: Sequence) -> Vec:
        """First-slot action of a on an Omega1 element."""
        rep = self.omega1.lift(w)
        d = self.parent.dim
        out = [_ZERO] * (d * d)
        for idx, coef in enumerate(rep):
            if not coef:
                continue
            i, j = divmod(idx, d)
            for k, x in enumerate(a):
                if not x:
                    continue
                for r, c in self.parent.product_basis(k, i).items():
                    out[r * d + j] += _as_fraction(x) * c * coef
        return self.omega1.project(out)

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
    """
    if not A.is_unital:
        raise NonUnitalError("Kaehler module requires a unital algebra (adjoin_unit_extend first)")
    d = A.dim
    ambient = d * d
    relations = []
    for a in range(d):
        for b in range(a, d):
            for c in range(d):
                row = {}

                def add(i, j, value):
                    if value:
                        idx = i * d + j
                        updated = row.get(idx, _ZERO) + value
                        if updated:
                            row[idx] = updated
                        elif idx in row:
                            del row[idx]

                for k, coef in A.product_basis(a, b).items():
                    add(c, k, coef)
                for k, coef in A.product_basis(c, a).items():
                    add(k, b, -coef)
                for k, coef in A.product_basis(c, b).items():
                    add(k, a, -coef)
                relations.append(row)
    omega1 = quotient_space(ambient, Subspace.from_spanning(ambient, relations))
    # d(b_j) = [1 (x) b_j] in omega1 coordinates
    d_rows = []
    for j in range(d):
        tensor = [_ZERO] * ambient
        for i, u in enumerate(A.unit):
            if u:
                tensor[i * d + j] = u
        d_rows.append(omega1.project(tensor))
    omega1bar = quotient_space(
        omega1.dim, Subspace.from_spanning(omega1.dim, d_rows)
    )
    return KaehlerModule(A, omega1, omega1bar)


class CurrentAlgebra:
    """g (x) A with bracket [x (x) a, y (x) b] = [x, y] (x) ab."""

    __slots__ = ("fibre", "coeff", "total")

    def __init__(self, fibre: LieAlgebra, coeff: CommAlgebra):
        self.fibre = fibre
        self.coeff = coeff
        entries = []
        da = coeff.dim
        for i, j, k, c in fibre.structure_entries():
            for p in range(da):
                for q in range(da):
                    flat_i = i * da + p
                    flat_j = j * da + q
                    if flat_i >= flat_j:
                        continue
                    for r, m in coeff.product_basis(p, q).items():
                        entries.append((flat_i, flat_j, k * da + r, c * m))
        # fibre pairs (i, q) vs (j, p) with i < j always give flat_i < flat_j;
        # i == j contributes nothing since [x, x] = 0.
        labels = [f"{g}*{a}" for g in fibre.labels for a in coeff.labels]
        merged = {}
        for fi, fj, fk, value in entries:
            key = (fi, fj, fk)
            merged[key] = merged.get(key, _ZERO) + value
        self.total = LieAlgebra(
            labels, [(i, j, k, v) for (i, j, k), v in sorted(merged.items()) if v]
        )

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
        out = [_ZERO] * self.dim
        for i, c in enumerate(x):
            if c:
                for p, u in enumerate(self.coeff.unit):
                    if u:
                        out[self.flat(i, p)] = _as_fraction(c) * u
        return tuple(out)

    def tensor(self, x: Sequence, a: Sequence) -> Vec:
        out = [_ZERO] * self.dim
        for i, c in enumerate(x):
            if c:
                for p, u in enumerate(a):
                    if u:
                        out[self.flat(i, p)] += _as_fraction(c) * _as_fraction(u)
        return tuple(out)

    def scale_by_coefficient(self, a: Sequence, u: Sequence) -> Vec:
        """(1 (x) a) . u, multiplying every coefficient slot by a."""
        out = [_ZERO] * self.dim
        for idx, c in enumerate(u):
            if not c:
                continue
            i, p = self.unflat(idx)
            c = _as_fraction(c)
            for k, x in enumerate(a):
                if not x:
                    continue
                for r, m in self.coeff.product_basis(k, p).items():
                    out[self.flat(i, r)] += _as_fraction(x) * m * c
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
    carries an idempotent support structure.
    """
    if A.is_unital:
        raise ValueError("algebra is already unital")
    n = A.dim
    labels = ("1",) + A.labels
    entries = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            if i == 0:
                if j == 0:
                    entries.append((0, 0, 0, _ONE))
                else:
                    entries.append((0, j, j, _ONE))
            else:
                for k, c in A.product_basis(i - 1, j - 1).items():
                    entries.append((i, j, k + 1, c))
    unit = (_ONE,) + zero_vector(n)
    idempotents = None
    if A.idempotents is not None:
        # local units survive; they need not sum to the new unit, so the
        # extended algebra does not claim a full point decomposition
        idempotents = None
    A_plus = CommAlgebra(labels, entries, unit, idempotents)

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
    if not psi.is_zero():
        if A.idempotents is not None:
            supports = [_support_points(A, A.basis_vector(p)) for p in range(n)]
            for fi, fj in combinations(range(current.dim), 2):
                i, p = current.unflat(fi)
                j, q = current.unflat(fj)
                if supports[p] & supports[q]:
                    continue
                if any(psi.value(fi, fj)):
                    raise NotDiagonalError((fi, fj))
        lambdas = [_local_unit(A, A.basis_vector(p)) for p in range(n)]
    else:
        lambdas = [zero_vector(n) for _ in range(n)]
    m = psi.coeff_dim
    table = {}
    for i in range(g.dim):
        for p_plus in range(n + 1):
            for j in range(g.dim):
                for q_plus in range(n + 1):
                    fi = current_plus.flat(i, p_plus)
                    fj = current_plus.flat(j, q_plus)
                    if fi >= fj:
                        continue
                    if p_plus == 0 and q_plus == 0:
                        continue  # constants against constants vanish
                    if p_plus > 0 and q_plus > 0:
                        value = psi.value(
                            current.flat(i, p_plus - 1), current.flat(j, q_plus - 1)
                        )
                    elif q_plus == 0:
                        # psi+(x_i (x) b_p, x_j (x) 1) = psi(x_i (x) b_p, x_j (x) lambda_p)
                        lam = lambdas[p_plus - 1]
                        u = current.tensor(g.basis_element(i).coords, A.basis_vector(p_plus - 1))
                        v = current.tensor(g.basis_element(j).coords, lam)
                        value = psi.apply(u, v)
                    else:
                        lam = lambdas[q_plus - 1]
                        u = current.tensor(g.basis_element(i).coords, lam)
                        v = current.tensor(g.basis_element(j).coords, A.basis_vector(q_plus - 1))
                        value = psi.apply(u, v)
                    if any(value):
                        table[(fi, fj)] = value
    psi_plus = Cocycle2(current_plus.total, m, table)
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


def universal_cocycle(
    g: LieAlgebra,
    A: CommAlgebra,
    *,
    forms: Optional[UniversalFormSpace] = None,
    kaehler: Optional[KaehlerModule] = None,
    current: Optional[CurrentAlgebra] = None,
) -> UniversalCocycle:
    """omega(x (x) a, y (x) b) = kappa(x, y) (x) [a d(b)] on g (x) A.

    Coefficient coordinates flatten V(g) (x) Omega1bar as
    t * dim(Omega1bar) + u.  When Omega1bar = 0 the zero cocycle (with
    zero-dimensional coefficient space) is returned, with a note.
    """
    if forms is None:
        forms = v_space_and_kappa(g)
    if kaehler is None:
        kaehler = kaehler_module(A)
    if current is None:
        current = CurrentAlgebra(g, A)
    v = forms.dim
    w = kaehler.dim_omega1bar
    m = v * w
    note = None
    if w == 0:
        note = "Omega1bar = 0: the universal cocycle is the zero cocycle"
    da = A.dim
    bar_table = tuple(
        tuple(kaehler.bar_pair(p, q) for q in range(da)) for p in range(da)
    )
    # a flat pair fi < fj always has fibre indices i <= j, so each stored
    # value is read off the formula directly
    table = {}
    for i in range(g.dim):
        for j in range(i, g.dim):
            kap = forms.kappa_basis(i, j)
            if not any(kap):
                continue
            for p in range(da):
                for q in range(da):
                    fi, fj = current.flat(i, p), current.flat(j, q)
                    if fi >= fj:
                        continue
                    bar = bar_table[p][q]
                    if not any(bar):
                        continue
                    value = [_ZERO] * m
                    for t, kv in enumerate(kap):
                        if kv:
                            for u, bv in enumerate(bar):
                                if bv:
                                    value[t * w + u] = kv * bv
                    if any(value):
                        table[(fi, fj)] = tuple(value)
    cocycle = Cocycle2(current.total, m, table, note)
    return UniversalCocycle(current, forms, kaehler, cocycle, note)


class GValuedOneForm:
    """Element of g (x) Omega1, the finite stand-in for a g-valued
    one-form; used to vary the connection."""

    __slots__ = ("fibre_dim", "omega1_dim", "entries")

    def __init__(self, fibre_dim: int, omega1_dim: int, entries=()):
        self.fibre_dim = fibre_dim
        self.omega1_dim = omega1_dim
        table = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for (i, t), value in items:
            if not (0 <= i < fibre_dim and 0 <= t < omega1_dim):
                raise ValueError(f"one-form entry ({i}, {t}) out of range")
            value = _as_fraction(value)
            if value:
                table[(i, t)] = value
        self.entries = table

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
    """
    if uc is None:
        uc = universal_cocycle(g, A)
    forms, kaehler, current = uc.forms, uc.kaehler, uc.current
    v, w = forms.dim, kaehler.dim_omega1bar
    m = v * w
    if xi.fibre_dim != g.dim or xi.omega1_dim != kaehler.dim_omega1:
        raise DimensionMismatchError("one-form shape does not match g (x) Omega1")
    da = A.dim

    def omega1_unit(t):
        out = [_ZERO] * kaehler.dim_omega1
        out[t] = _ONE
        return tuple(out)

    def tensor_value(kap: Vec, bar: Vec):
        value = [_ZERO] * m
        for t, kv in enumerate(kap):
            if kv:
                for u, bv in enumerate(bar):
                    if bv:
                        value[t * w + u] += kv * bv
        return value

    # beta(x_b (x) b_q) = sum over xi entries (c, form): kappa(z_c, x_b) (x) [b_q . form]
    beta_values = []
    for b in range(g.dim):
        for q in range(da):
            total = [_ZERO] * m
            for (c, t), coef in xi.entries.items():
                kap = forms.kappa_basis(c, b)
                if not any(kap):
                    continue
                moved = kaehler.module_action(A.basis_vector(q), omega1_unit(t))
                bar = kaehler.bar(tuple(x * coef for x in moved))
                if any(bar):
                    for idx, x in enumerate(tensor_value(kap, bar)):
                        total[idx] += x
            beta_values.append(tuple(total))
    beta = OneCochain(current.total, m, beta_values)

    # tau(x_a (x) b_p, x_b (x) b_q) = sum over xi entries:
    #   kappa(x_a, [z_c, x_b]) (x) [b_p b_q . form]
    table = {}
    for a in range(g.dim):
        for p in range(da):
            fi = current.flat(a, p)
            for b in range(g.dim):
                for q in range(da):
                    fj = current.flat(b, q)
                    if fi >= fj:
                        continue
                    total = [_ZERO] * m
                    for (c, t), coef in xi.entries.items():
                        for k, cc in g.bracket_basis(c, b).items():
                            kap = forms.kappa_basis(a, k)
                            if not any(kap):
                                continue
                            pq = A.product(A.basis_vector(p), A.basis_vector(q))
                            if not any(pq):
                                continue
                            moved = kaehler.module_action(pq, omega1_unit(t))
                            bar = kaehler.bar(tuple(x * coef * cc for x in moved))
                            if any(bar):
                                for idx, x in enumerate(tensor_value(kap, bar)):
                                    total[idx] += x
                    if any(total):
                        table[(fi, fj)] = tuple(total)
    tau = Cocycle2(current.total, m, table)
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
    if uc is None:
        uc = universal_cocycle(g, A)
    target_dim = uc.coeff_dim  # dim V (x) Omega1bar
    dim_hom = target_dim * m
    h2 = cohomology(uc.current.total, 2, m, ceiling=ceiling)
    columns = []
    for t in range(target_dim):
        for a in range(m):
            table = {}
            for (i, j), value in uc.cocycle.values.items():
                if value[t]:
                    vec = [_ZERO] * m
                    vec[a] = value[t]
                    table[(i, j)] = tuple(vec)
            phi_omega = Cocycle2(uc.current.total, m, table)
            columns.append(h2.class_coordinates(phi_omega.flat()))
    matrix = [
        tuple(columns[c][r] for c in range(dim_hom)) for r in range(h2.dimension)
    ]
    square = dim_hom == h2.dimension
    if square and dim_hom:
        bijective = rank(SparseMatrix.from_dense(matrix)) == dim_hom
    else:
        bijective = square  # two zero-dimensional spaces are bijective
    return UniversalityResult(matrix, bijective, dim_hom, h2.dimension, h2, uc)
