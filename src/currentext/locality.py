"""Supports, diagonality, restriction and gluing over idempotent covers.

A commutative algebra with a full orthogonal idempotent decomposition is
a function algebra on a finite point set; supports of current-algebra
elements, corner algebras e_U A over point subsets, restriction of
cocycles by extension-by-zero, and the sharp partition-of-unity gluing
of local coboundary primitives all live here, together with
extension-by-zero on one-form classes.

The basis is point-aligned: SupportStructure accepts A only when every
basis vector b_p sits over a single point s(p) and e_s(p) b_p = b_p.
Then e_s b_p is b_p or 0 according to s(p), multiplying x (x) b_p by a
partition function lambda_k is a coordinate mask, and a corner e_U A is
the sub-basis over U, its table read off A by the one builder of
structure constants on a computed basis, _StructureTable._entries_on.
Restriction, extension by zero and gluing are therefore re-indexings of
the sparse tables: restrict_class costs O(nnz psi), restrict_cochain and
glue_primitives O(dim * m), and no idempotent is ever multiplied out.
They re-index the cochains' stored integers (see cohomology) and build
no Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Tuple

from .cohomology import Cocycle2, OneCochain
from .current import (
    CommAlgebra,
    CurrentAlgebra,
    KaehlerModule,
    _support_points,
    kaehler_module,
)
from .errors import (
    BadPrimitiveError,
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NotDiagonalError,
)
from .lie import same_algebra
from .linalg import SparseMatrix, Vec, _as_fraction, solve_linear, vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SupportStructure:
    """Support bookkeeping for g (x) A over A's idempotent points.

    Requires every coefficient basis vector to sit over a single point
    (true for all catalog algebras with points); this is what makes
    corner algebras plain sub-bases and diagonality checkable on flat
    basis pairs.  Corners are built once per subset (see corner).
    """

    __slots__ = ("current", "points", "point_of_basis", "_idempotents", "_corners")

    def __init__(self, current: CurrentAlgebra):
        A = current.coeff
        if A.idempotents is None:
            raise InputError("coefficient algebra has no idempotent decomposition")
        self.current = current
        self.points = tuple(label for label, _ in A.idempotents)
        self._idempotents = dict(A.idempotents)
        point_of_basis = []
        for p in range(A.dim):
            supp = _support_points(A, A.basis_vector(p))
            if len(supp) != 1:
                raise InputError(
                    f"coefficient basis vector {A.labels[p]} is not supported "
                    "at a single point; corner operations are undefined"
                )
            label = next(iter(supp))
            e = self._idempotents[label]
            if A.product(e, A.basis_vector(p)) != A.basis_vector(p):
                raise InputError(
                    f"idempotent at {label} does not fix basis vector {A.labels[p]}"
                )
            point_of_basis.append(label)
        self.point_of_basis = tuple(point_of_basis)
        self._corners = {}

    @property
    def algebra(self) -> CommAlgebra:
        return self.current.coeff

    def idempotent(self, label: str) -> Vec:
        return self._idempotents[label]

    def indicator(self, labels: Iterable[str]) -> Vec:
        """Sum of the idempotents over a set of points."""
        out = [_ZERO] * self.algebra.dim
        wanted = set(labels)
        for label, e in self.algebra.idempotents:
            if label in wanted:
                for i, x in enumerate(e):
                    out[i] += x
        return tuple(out)

    def normalize_subset(self, labels: Iterable[str]) -> Tuple[str, ...]:
        wanted = set(str(s) for s in labels)
        unknown = wanted - set(self.points)
        if unknown:
            raise InputError(f"unknown points {sorted(unknown)}")
        return tuple(s for s in self.points if s in wanted)

    def corner(self, subset) -> "Corner":
        """The corner over a subset of points, built once per subset; a
        Corner is returned as it is if it belongs to this structure."""
        if isinstance(subset, Corner):
            if subset.structure is not self:
                raise InputError("corner belongs to another support structure")
            return subset
        key = self.normalize_subset(subset)
        if key not in self._corners:
            self._corners[key] = Corner(self, key)
        return self._corners[key]

    def support_of(self, u: Sequence):
        """Points where an element of g (x) A has a nonzero component."""
        if len(u) != self.current.dim:
            raise DimensionMismatchError("element length must match the current algebra")
        out = set()
        for idx, c in enumerate(u):
            if _as_fraction(c):  # converted first: a string "0" is truthy
                _, p = self.current.unflat(idx)
                out.add(self.point_of_basis[p])
        return frozenset(out)

    def __repr__(self):
        return f"SupportStructure(points = {list(self.points)})"


def support_of(u: Sequence, ss: SupportStructure):
    return ss.support_of(u)


class DiagonalReport:
    __slots__ = ("ok", "counterexample")

    def __init__(self, ok: bool, counterexample=None):
        self.ok = ok
        self.counterexample = counterexample

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"DiagonalReport(ok={self.ok}, counterexample={self.counterexample})"


def is_diagonal(psi: Cocycle2, ss: SupportStructure) -> DiagonalReport:
    """Check psi(u, v) = 0 on all flat basis pairs with disjoint support.

    Basis vectors are single-point supported, so bilinearity makes the
    flat-pair check equivalent to diagonality on arbitrary elements.
    """
    if not same_algebra(psi.parent, ss.current.total):
        raise InputError("cocycle is not defined on the support structure's algebra")
    for (i, j) in sorted(psi._num):
        _, p = ss.current.unflat(i)
        _, q = ss.current.unflat(j)
        if ss.point_of_basis[p] != ss.point_of_basis[q]:
            return DiagonalReport(False, (i, j))
    return DiagonalReport(True)


class Corner:
    """The idempotent corner e_U A as a standalone algebra.

    ``indices`` lists the coefficient basis vectors over U in increasing
    order and ``back`` inverts it, so x_i (x) b_p is the corner's
    x_i (x) b_back[p] and flat indices keep their order.  ``local`` maps
    each flat index of g (x) A to that corner index, or to None when b_p
    lies outside the corner.
    """

    __slots__ = ("structure", "subset", "indices", "back", "local", "algebra", "current")

    def __init__(self, ss: SupportStructure, subset: Iterable[str]):
        self.structure = ss
        self.subset = ss.normalize_subset(subset)
        wanted = set(self.subset)
        A = ss.algebra
        self.indices = tuple(
            p for p in range(A.dim) if ss.point_of_basis[p] in wanted
        )
        self.back = back = {p: t for t, p in enumerate(self.indices)}
        slots = [back.get(p) for p in range(A.dim)]
        self.local = tuple(
            None if t is None else i * len(back) + t
            for i in range(ss.current.fibre.dim) for t in slots
        )
        try:
            entries = A._entries_on([{p: 1} for p in self.indices])
        except ValueError:
            raise InternalConsistencyError("corner product left the corner span") from None
        unit = ss.indicator(self.subset)
        idempotents = [
            (label, tuple(ss.idempotent(label)[p] for p in self.indices))
            for label in self.subset
        ]
        self.algebra = CommAlgebra(
            [A.labels[p] for p in self.indices],
            entries,
            tuple(unit[p] for p in self.indices),
            idempotents,
        )
        self.current = CurrentAlgebra(ss.current.fibre, self.algebra)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __repr__(self):
        return f"Corner(points = {list(self.subset)}, dim = {self.dim})"


def _corner_of(cochain, ss: SupportStructure, subset) -> Corner:
    if not same_algebra(cochain.parent, ss.current.total):
        raise InputError("cochain is not defined on the support structure's algebra")
    return ss.corner(subset)


def restrict_class(psi: Cocycle2, ss: SupportStructure, subset: Iterable[str]) -> Cocycle2:
    """psi_U(xi, eta) = psi(extension of xi, extension of eta).

    Well-defined on classes: a coboundary restricts to the coboundary of
    the restricted primitive.  Returns a cocycle on g (x) A_U, read off
    the pairs of psi with both indices in the corner, in O(nnz psi).
    """
    corner = _corner_of(psi, ss, subset)
    local = corner.local
    table = {}
    for (i, j), value in psi._num.items():
        fi, fj = local[i], local[j]
        if fi is not None and fj is not None:
            table[(fi, fj)] = value
    return Cocycle2._from_integers(corner.current.total, psi.coeff_dim, table, psi._den)


def restrict_cochain(beta: OneCochain, ss: SupportStructure, subset) -> OneCochain:
    """beta composed with extension by zero."""
    corner = _corner_of(beta, ss, subset)
    da = ss.algebra.dim
    values = [
        beta._num[i * da + p]
        for i in range(ss.current.fibre.dim)
        for p in corner.indices
    ]
    return OneCochain._from_integers(corner.current.total, beta.coeff_dim, values, beta._den)


class Cover:
    """Finite cover of the point set with a sharp partition of unity.

    The partition takes lambda_i = sum of idempotents over a disjoint
    refinement (first cover set wins), and the companions lambda_i' sum
    over the full cover sets, so lambda_i * lambda_i' = lambda_i exactly.
    """

    __slots__ = ("structure", "subsets", "parts", "lambdas", "companions")

    def __init__(self, ss: SupportStructure, subsets: Sequence[Iterable[str]]):
        self.structure = ss
        self.subsets = tuple(ss.normalize_subset(s) for s in subsets)
        union = set()
        for s in self.subsets:
            union.update(s)
        if union != set(ss.points):
            missing = sorted(set(ss.points) - union)
            raise InputError(f"cover does not reach points {missing}")
        assigned = set()
        parts = []
        for s in self.subsets:
            part = tuple(p for p in s if p not in assigned)
            assigned.update(s)
            parts.append(part)
        self.parts = tuple(parts)
        self.lambdas = tuple(ss.indicator(part) for part in self.parts)
        self.companions = tuple(ss.indicator(s) for s in self.subsets)
        A = ss.algebra
        total = [_ZERO] * A.dim
        for lam in self.lambdas:
            for i, x in enumerate(lam):
                total[i] += x
        if tuple(total) != A.unit:
            raise InternalConsistencyError("partition of unity does not sum to 1")
        for lam, comp in zip(self.lambdas, self.companions):
            if A.product(lam, comp) != lam:
                raise InternalConsistencyError("lambda * lambda' != lambda")

    def __len__(self):
        return len(self.subsets)

    def corners(self):
        return [self.structure.corner(s) for s in self.subsets]

    def __repr__(self):
        return f"Cover(subsets = {[list(s) for s in self.subsets]})"


def glue_primitives(
    psi: Cocycle2,
    cover: Cover,
    primitives: Sequence[OneCochain],
) -> OneCochain:
    """Glue local primitives into a global one: beta(chi) = sum_i
    beta_i(lambda_i chi).

    Preconditions (checked): psi is diagonal, and each primitive
    satisfies d(beta_i) = psi restricted to the i-th cover set.  The
    glued result is verified to satisfy d(beta) = psi exactly.

    lambda_i is the indicator of the i-th part, and the parts are
    disjoint and cover every point, so lambda_i (x_j (x) b_p) is
    x_j (x) b_p for the one part i that holds b_p's point and 0 for the
    others: beta(x_j (x) b_p) is beta_i at the corner index of x_j (x) b_p.
    """
    ss = cover.structure
    report = is_diagonal(psi, ss)
    if not report.ok:
        raise NotDiagonalError(report.counterexample)
    if len(primitives) != len(cover):
        raise InputError("one primitive per cover set is required")
    corners = cover.corners()
    for idx, (corner, beta_i) in enumerate(zip(corners, primitives)):
        if not same_algebra(beta_i.parent, corner.current.total):
            raise BadPrimitiveError(idx, None, "wrong corner algebra")
        local = restrict_class(psi, ss, corner)
        d_beta = beta_i.coboundary()
        if d_beta != local:  # the difference only names the failing pair
            defect = d_beta - local
            pair = min(defect._num)
            raise BadPrimitiveError(idx, pair, defect.value(*pair))
    owner = [None] * ss.algebra.dim
    for part, corner, beta_i in zip(cover.parts, corners, primitives):
        for p in corner.indices:
            if ss.point_of_basis[p] in part:
                owner[p] = (corner, beta_i)
    # the primitives' integers over the lcm of their denominators
    den = lcm(*[beta_i._den for beta_i in primitives])
    big = ss.current
    values = []
    for idx in range(big.dim):
        corner, beta_i = owner[big.unflat(idx)[1]]
        value = beta_i._num[corner.local[idx]]
        scale = den // beta_i._den
        values.append(value if scale == 1 else tuple(scale * x for x in value))
    beta = OneCochain._from_integers(big.total, psi.coeff_dim, values, den)
    if beta.coboundary() != psi:
        raise InternalConsistencyError("glued primitive does not reproduce the cocycle")
    return beta


class OneFormLocality:
    """Extension-by-zero and decomposition of one-form classes over
    corners, with the corner Kaehler modules cached."""

    __slots__ = ("structure", "_kaehlers")

    def __init__(self, ss: SupportStructure):
        self.structure = ss
        self._kaehlers = {}

    def corner(self, subset: Iterable[str]) -> Corner:
        return self.structure.corner(subset)

    def kaehler(self, subset: Iterable[str]) -> KaehlerModule:
        key = self.structure.normalize_subset(subset)
        if key not in self._kaehlers:
            self._kaehlers[key] = kaehler_module(self.corner(key).algebra)
        return self._kaehlers[key]

    def inject_form(self, w: Sequence, small, large) -> Vec:
        """Extension by zero Omega1(A_W) -> Omega1(A_V) for W inside V.

        Coordinate t of w is the class [b_i d(b_j)] of representative
        column i * dim A_W + j; it extends to the class of the same basis
        pair in A_V, read from A_V's pair table (zero across product
        classes).
        """
        corner_w = self.corner(small)
        corner_v = self.corner(large)
        if not set(corner_w.subset) <= set(corner_v.subset):
            raise InputError("extension target must contain the source corner")
        kae_w = self.kaehler(corner_w.subset)
        kae_v = self.kaehler(corner_v.subset)
        if len(w) != kae_w.dim_omega1:
            raise DimensionMismatchError(
                f"Omega1 element has length {len(w)}, Omega1 has dimension {kae_w.dim_omega1}"
            )
        position = [corner_v.back[p] for p in corner_w.indices]
        out = [_ZERO] * kae_v.dim_omega1
        for col, coef in zip(kae_w.omega1.rep_cols, w):
            if coef:
                i, j = divmod(col, corner_w.dim)
                coef = _as_fraction(coef)
                for t, value in kae_v._pairs.get((position[i], position[j]), {}).items():
                    out[t] += coef * value
        return tuple(out)

    def injection_matrix(self, small, large, *, bar: bool = True) -> SparseMatrix:
        """Matrix of the extension map on Omega1bar (or Omega1) classes."""
        corner_w = self.corner(small)
        kae_w = self.kaehler(corner_w.subset)
        kae_v = self.kaehler(self.corner(large).subset)
        src_dim = kae_w.dim_omega1bar if bar else kae_w.dim_omega1
        columns = []
        for t in range(src_dim):
            unit = [_ZERO] * src_dim
            unit[t] = _ONE
            w = kae_w.omega1bar.lift(unit) if bar else tuple(unit)
            image = self.inject_form(w, small, large)
            columns.append(kae_v.bar(image) if bar else image)
        rows = (kae_v.dim_omega1bar if bar else kae_v.dim_omega1)
        data = {}
        for c, col in enumerate(columns):
            for r, x in enumerate(col):
                if x:
                    data[(r, c)] = x
        return SparseMatrix(rows, src_dim, data)

    def extend_class(self, w_bar: Sequence, small, large) -> Vec:
        """Extension by zero on Omega1bar classes; well-defined because
        the primitive of an exact form extends by zero as well."""
        kae_w = self.kaehler(self.corner(small).subset)
        if len(w_bar) != kae_w.dim_omega1bar:
            raise DimensionMismatchError("class coordinates have wrong length")
        image = self.inject_form(kae_w.omega1bar.lift(w_bar), small, large)
        return self.kaehler(self.corner(large).subset).bar(image)

    def decompose_class(self, w_bar: Sequence, left, right):
        """Split a class on V u W into extensions from V and from W.

        Returns (w_V, w_W) with extend(w_V) + extend(w_W) = w_bar; the
        decomposition exists because the sharp partition of unity splits
        every one-form, and is found by a canonical solve.
        """
        corner_l = self.corner(left)
        corner_r = self.corner(right)
        union = tuple(
            s for s in self.structure.points
            if s in set(corner_l.subset) | set(corner_r.subset)
        )
        kae_u = self.kaehler(union)
        if len(w_bar) != kae_u.dim_omega1bar:
            raise DimensionMismatchError("class coordinates have wrong length")
        m_left = self.injection_matrix(corner_l.subset, union)
        m_right = self.injection_matrix(corner_r.subset, union)
        rows = kae_u.dim_omega1bar
        stacked = {}
        for r, c, x in m_left.triplets():
            stacked[(r, c)] = x
        for r, c, x in m_right.triplets():
            stacked[(r, c + m_left.cols)] = x
        system = SparseMatrix(rows, m_left.cols + m_right.cols, stacked)
        solution = solve_linear(system, w_bar)
        if solution is None:
            raise InternalConsistencyError(
                "one-form class failed to decompose over the cover"
            )
        w_left = solution[: m_left.cols]
        w_right = solution[m_left.cols:]
        return vector(w_left), vector(w_right)

    def common_class(self, w_left: Sequence, w_right: Sequence, left, right):
        """Find the common class on the intersection when the extensions
        of two classes to the union agree.

        Mirrors the primitive-splitting construction: the difference of
        representatives is d(gamma); subtracting the sharp split of
        gamma pushes both representatives into the intersection corner.
        """
        corner_l = self.corner(left)
        corner_r = self.corner(right)
        inter = tuple(
            s for s in corner_l.subset if s in set(corner_r.subset)
        )
        union = tuple(
            s for s in self.structure.points
            if s in set(corner_l.subset) | set(corner_r.subset)
        )
        kae_u = self.kaehler(union)
        kae_l = self.kaehler(corner_l.subset)
        kae_r = self.kaehler(corner_r.subset)
        ext_l = self.extend_class(w_left, corner_l.subset, union)
        ext_r = self.extend_class(w_right, corner_r.subset, union)
        if ext_l != ext_r:
            raise InputError("extensions to the union do not agree")
        if not inter:
            if any(ext_l):
                raise InternalConsistencyError(
                    "agreeing extensions over a disjoint cover must vanish"
                )
            return ()
        rep_l = self.inject_form(kae_l.omega1bar.lift(w_left), corner_l.subset, union)
        rep_r = self.inject_form(kae_r.omega1bar.lift(w_right), corner_r.subset, union)
        diff = tuple(a - b for a, b in zip(rep_l, rep_r))
        corner_u = self.corner(union)
        d_matrix = SparseMatrix.from_dense(
            [kae_u.d_basis(j) for j in range(corner_u.dim)]
        ).transpose()
        gamma = solve_linear(d_matrix, diff)
        if gamma is None:
            raise InternalConsistencyError("agreeing classes differ by a non-exact form")
        # sharp split of gamma over {left part, right remainder}
        lam_left = [_ZERO] * corner_u.dim
        for t, p in enumerate(corner_u.indices):
            if self.structure.point_of_basis[p] in set(corner_l.subset):
                lam_left[t] = _ONE
        gamma_l = corner_u.algebra.product(
            tuple(lam_left), gamma
        )
        # F = rep_l - d(gamma_l) has support in the intersection
        d_gamma_l = kae_u.d(gamma_l)
        common_u = tuple(a - b for a, b in zip(rep_l, d_gamma_l))
        inject = self.injection_matrix(inter, union, bar=False)
        pre = solve_linear(inject, common_u)
        if pre is None:
            raise InternalConsistencyError(
                "common form is not supported in the intersection"
            )
        kae_i = self.kaehler(inter)
        w_common = kae_i.bar(pre)
        if self.extend_class(w_common, inter, corner_l.subset) != vector(w_left):
            raise InternalConsistencyError("common class does not restrict to the left class")
        if self.extend_class(w_common, inter, corner_r.subset) != vector(w_right):
            raise InternalConsistencyError("common class does not restrict to the right class")
        return w_common
