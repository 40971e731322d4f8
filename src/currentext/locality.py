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
the sub-basis over U, its integer table read off A by the one builder
of structure tables on a computed basis, _StructureTable._entries_on,
and handed to CommAlgebra._from_integer_table.
Restriction, extension by zero and gluing are therefore re-indexings of
the sparse tables: restrict_class costs O(nnz psi), restrict_cochain and
glue_primitives O(dim * m), and no idempotent is ever multiplied out.
They re-index the cochains' stored integers (see cohomology) and build
no Fraction.

Extension by zero of one-form classes is a coordinate map, for the same
reason.  A point-aligned basis puts every product class of A (see
current.kaehler_module) over one point, and a corner's product classes
are A's classes over its points, on a sub-basis kept in order.  The
Leibniz span and d(A) split by product class, and the reduced echelon
form of a span whose parts sit on disjoint columns is the union of the
parts' forms, which is unique.  So the Omega1 and Omega1bar coordinates
of a corner A_W are those of a larger corner A_V over W, in the same
order (OneFormLocality._coordinates), and extending, decomposing and
finding a common class read or scatter coordinates with no solve.
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
    NonUnitalError,
    NotDiagonalError,
)
from .lie import same_algebra
from .linalg import SparseMatrix, Vec, _as_fraction, vector

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
            table = A._entries_on([{p: 1} for p in self.indices])
        except ValueError:
            raise InternalConsistencyError("corner product left the corner span") from None
        unit = ss.indicator(self.subset)
        idempotents = tuple(
            (label, tuple(ss.idempotent(label)[p] for p in self.indices))
            for label in self.subset
        )
        self.algebra = CommAlgebra._from_integer_table(
            [A.labels[p] for p in self.indices],
            *table,
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
        if not A.is_unital:
            raise NonUnitalError("a partition of unity requires a unital algebra")
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
    corners, with the corner Kaehler modules cached.

    Every map here is the coordinate map of _coordinates: coordinate t
    of Omega1(A_W) (or Omega1bar(A_W)) is coordinate map[t] of A_V's,
    and the extension by zero scatters through it.
    """

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

    def _coordinates(self, small, large, bar: bool) -> tuple:
        """(coordinates, size): the coordinate of A_V's Omega1 (bar:
        Omega1bar) that each coordinate of A_W's becomes under extension
        by zero, W inside V, and the dimension of A_V's space.

        Omega1 coordinate t of A_W is its representative column
        i * dim A_W + j, the class [b_i d(b_j)]; the same basis pair is a
        representative column of A_V, since both echelon forms are the
        union of the same product classes' forms (see the module
        docstring).  An Omega1bar coordinate is an Omega1 coordinate,
        omega1bar.rep_cols, and passes on the same way.
        """
        corner_w = self.corner(small)
        corner_v = self.corner(large)
        if not set(corner_w.subset) <= set(corner_v.subset):
            raise InputError("extension target must contain the source corner")
        kae_w = self.kaehler(corner_w.subset)
        kae_v = self.kaehler(corner_v.subset)
        position = [corner_v.back[p] for p in corner_w.indices]
        column = {c: t for t, c in enumerate(kae_v.omega1.rep_cols)}
        coordinates = [
            column.get(position[i] * corner_v.dim + position[j])
            for i, j in (divmod(c, corner_w.dim) for c in kae_w.omega1.rep_cols)
        ]
        if bar:
            column = {c: t for t, c in enumerate(kae_v.omega1bar.rep_cols)}
            coordinates = [column.get(coordinates[c]) for c in kae_w.omega1bar.rep_cols]
        if None in coordinates:
            raise InternalConsistencyError("extension by zero left the coordinates")
        return coordinates, len(column)

    def inject_form(self, w: Sequence, small, large) -> Vec:
        """Extension by zero Omega1(A_W) -> Omega1(A_V) for W inside V:
        coordinate t of w moves to coordinate map[t] (_coordinates)."""
        coordinates, size = self._coordinates(small, large, False)
        if len(w) != len(coordinates):
            raise DimensionMismatchError(
                f"Omega1 element has length {len(w)}, Omega1 has dimension {len(coordinates)}"
            )
        return _scatter(w, coordinates, size)

    def injection_matrix(self, small, large, *, bar: bool = True) -> SparseMatrix:
        """Matrix of the extension map on Omega1bar (or Omega1) classes:
        a 1 at (map[t], t) for each source coordinate t."""
        coordinates, size = self._coordinates(small, large, bar)
        data = {(r, c): _ONE for c, r in enumerate(coordinates)}
        return SparseMatrix(size, len(coordinates), data)

    def extend_class(self, w_bar: Sequence, small, large) -> Vec:
        """Extension by zero on Omega1bar classes; well-defined because
        the primitive of an exact form extends by zero as well."""
        kae_w = self.kaehler(self.corner(small).subset)
        if len(w_bar) != kae_w.dim_omega1bar:
            raise DimensionMismatchError("class coordinates have wrong length")
        return _scatter(w_bar, *self._coordinates(small, large, True))

    def _union(self, corner_l: Corner, corner_r: Corner) -> Tuple[str, ...]:
        both = set(corner_l.subset) | set(corner_r.subset)
        return tuple(s for s in self.structure.points if s in both)

    def decompose_class(self, w_bar: Sequence, left, right):
        """Split a class on V u W into extensions from V and from W.

        Returns (w_V, w_W) with extend(w_V) + extend(w_W) = w_bar: w_V
        holds the coordinates of w_bar over V, and w_W those over W
        outside V, with zero over V n W.  This is the canonical solution
        of the stacked system [iota_V | iota_W] x = w_bar, whose columns
        of W over the intersection repeat columns of V and are free.
        """
        corner_l = self.corner(left)
        corner_r = self.corner(right)
        union = self._union(corner_l, corner_r)
        kae_u = self.kaehler(union)
        if len(w_bar) != kae_u.dim_omega1bar:
            raise DimensionMismatchError("class coordinates have wrong length")
        w_bar = vector(w_bar)
        to_left, _ = self._coordinates(corner_l.subset, union, True)
        to_right, _ = self._coordinates(corner_r.subset, union, True)
        taken = set(to_left)
        w_left = tuple(w_bar[t] for t in to_left)
        w_right = tuple(_ZERO if t in taken else w_bar[t] for t in to_right)
        taken.update(to_right)
        if any(x for t, x in enumerate(w_bar) if t not in taken):
            raise InternalConsistencyError(
                "one-form class failed to decompose over the cover"
            )
        return w_left, w_right

    def common_class(self, w_left: Sequence, w_right: Sequence, left, right):
        """Find the common class on the intersection when the extensions
        of two classes to the union agree.

        Agreeing extensions vanish outside the intersection, so the
        common class is w_left's coordinates over V n W; it is checked to
        extend back to both classes.
        """
        corner_l = self.corner(left)
        corner_r = self.corner(right)
        inter = tuple(
            s for s in corner_l.subset if s in set(corner_r.subset)
        )
        union = self._union(corner_l, corner_r)
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
        to_left, _ = self._coordinates(inter, corner_l.subset, True)
        w_common = tuple(_as_fraction(w_left[t]) for t in to_left)
        if self.extend_class(w_common, inter, corner_l.subset) != vector(w_left):
            raise InternalConsistencyError("common class does not restrict to the left class")
        if self.extend_class(w_common, inter, corner_r.subset) != vector(w_right):
            raise InternalConsistencyError("common class does not restrict to the right class")
        return w_common


def _scatter(w: Sequence, coordinates: Sequence[int], size: int) -> Vec:
    """The length-size vector with w[t] at coordinates[t], zero elsewhere."""
    out = [_ZERO] * size
    for t, x in zip(coordinates, w):
        out[t] = _as_fraction(x)
    return tuple(out)
