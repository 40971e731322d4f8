from fractions import Fraction

import pytest

from currentext.catalog import lie_catalog
from currentext.errors import DimensionMismatchError, NotInvariantError, NotSymmetricError
from currentext.invariants import (
    BilinearForm,
    SymSquare,
    factor_through,
    v_space_and_kappa,
)
from currentext.lie import derivations, killing_form

from oracles import dense_nullity, derivation_image_reference

F = Fraction


def _derivation_span_nullity_oracle(name):
    """dim V by dense rank of the derivation action span on S2."""
    L = lie_catalog(name)
    sym = SymSquare(L)
    rows = [
        list(derivation_image_reference(sym, D, t))
        for D in derivations(L).basis
        for t in range(sym.dim)
    ]
    return dense_nullity(rows, sym.dim)


@pytest.mark.parametrize(
    "name,expected",
    [("sl2", 1), ("so3", 1), ("sl2C", 2), ("abelian:4", 0), ("sl2+so3", 2)],
)
def test_v_space_dimensions(name, expected):
    assert v_space_and_kappa(lie_catalog(name)).dim == expected
    assert _derivation_span_nullity_oracle(name) == expected


def test_abelian_v_is_zero_via_identity_derivation():
    # the identity matrix is a derivation of an abelian algebra and acts
    # as 2 id on S2, so the whole symmetric square is quotiented away
    forms = v_space_and_kappa(lie_catalog("abelian:3"))
    assert forms.dim == 0
    assert forms.sym.dim == 6


def test_kappa_symmetric():
    for name in ("sl2", "sl2C", "heis3", "gl2"):
        forms = v_space_and_kappa(lie_catalog(name))
        n = forms.parent.dim
        for i in range(n):
            for j in range(n):
                assert forms.kappa_basis(i, j) == forms.kappa_basis(j, i)


def test_kappa_derivation_invariance():
    for name in ("sl2", "so3", "sl2C", "heis3"):
        forms = v_space_and_kappa(lie_catalog(name))
        L = forms.parent
        for D in forms.ders.basis:
            for i in range(L.dim):
                for j in range(i, L.dim):
                    di = [D[r][i] for r in range(L.dim)]
                    dj = [D[r][j] for r in range(L.dim)]
                    bi = [F(1) if t == i else F(0) for t in range(L.dim)]
                    bj = [F(1) if t == j else F(0) for t in range(L.dim)]
                    total = tuple(
                        a + b
                        for a, b in zip(forms.kappa(di, bj), forms.kappa(bi, dj))
                    )
                    assert not any(total)


def test_kappa_inner_invariance_rearranged():
    # invariance under ad(z) rearranges to kappa([z,x], y) = kappa(x, [y,z])
    # (equivalently kappa([z,x], y) + kappa(x, [z,y]) = 0), checked on all
    # basis triples; numerically on sl2: B([h,e],f) = 8 = B(h,[e,f])
    for name in ("sl2", "sl3", "so3"):
        forms = v_space_and_kappa(lie_catalog(name))
        L = forms.parent
        for z in range(L.dim):
            for x in range(L.dim):
                for y in range(L.dim):
                    bz = [F(1) if t == z else F(0) for t in range(L.dim)]
                    bx = [F(1) if t == x else F(0) for t in range(L.dim)]
                    by = [F(1) if t == y else F(0) for t in range(L.dim)]
                    assert forms.kappa(L.bracket(bz, bx), by) == forms.kappa(
                        bx, L.bracket(by, bz)
                    )


def test_kappa_surjective_for_semisimple():
    for name in ("sl2", "so3", "sl3", "sl2C"):
        forms = v_space_and_kappa(lie_catalog(name))
        # kappa values on basis pairs span V by construction of the quotient
        from currentext.linalg import SparseMatrix, rank

        values = [forms.kappa_table[t] for t in range(forms.sym.dim)]
        assert rank(SparseMatrix.from_dense(values)) == forms.dim


def test_factor_killing_sl2():
    L = lie_catalog("sl2")
    forms = v_space_and_kappa(L)
    matrix, _ = killing_form(L)
    phi = factor_through(forms, BilinearForm.from_matrix(matrix))
    assert phi.matrix == ((F(8),),)
    assert phi.kernel_dim() == 0


def test_factor_zero_form():
    L = lie_catalog("sl2")
    forms = v_space_and_kappa(L)
    zero = BilinearForm.from_matrix([[F(0)] * 3 for _ in range(3)])
    phi = factor_through(forms, zero)
    assert all(not any(row) for row in phi.matrix)


def test_factor_killing_sl2c_not_universal():
    """The Killing form of realified sl2(C) factors with a kernel: a
    machine witness that it is not the universal invariant form."""
    L = lie_catalog("sl2C")
    forms = v_space_and_kappa(L)
    assert forms.dim == 2
    matrix, _ = killing_form(L)
    phi = factor_through(forms, BilinearForm.from_matrix(matrix))
    assert phi.rank() == 1
    assert phi.kernel_dim() == 1


def test_factor_kappa_is_identity():
    for name in ("sl2", "sl2C", "sl2+so3"):
        forms = v_space_and_kappa(lie_catalog(name))
        assert factor_through(forms, forms.kappa_form()).is_identity()


def test_factor_rejects_asymmetric():
    L = lie_catalog("sl2")
    forms = v_space_and_kappa(L)
    values = [[F(0)] * 3 for _ in range(3)]
    values[0][1] = F(1)
    with pytest.raises(NotSymmetricError):
        factor_through(forms, BilinearForm.from_matrix(values))


def test_factor_rejects_non_invariant():
    L = lie_catalog("sl2")
    forms = v_space_and_kappa(L)
    values = [[F(0)] * 3 for _ in range(3)]
    values[0][0] = F(1)  # symmetric but not ad-invariant
    with pytest.raises(NotInvariantError) as info:
        factor_through(forms, BilinearForm.from_matrix(values))
    assert len(info.value.witness) == 3


@pytest.mark.parametrize("values", [
    [[(1,), (0,), (0,)]],  # one row of three
    [[(1,), (0,), (0,)]] * 4,  # four rows of three
    [[(1,), (0,)]] * 3,  # three rows of two
])
def test_bilinear_form_rejects_a_table_of_the_wrong_shape(values):
    with pytest.raises(DimensionMismatchError, match="must be square"):
        BilinearForm(3, 1, values)


@pytest.mark.parametrize("x", [(1,), (1, 0, 0, 0)])
def test_kappa_rejects_an_operand_of_the_wrong_length(x):
    forms = v_space_and_kappa(lie_catalog("sl2"))
    with pytest.raises(DimensionMismatchError, match="must match the algebra dimension"):
        forms.kappa(x, (0, 1, 0))
    with pytest.raises(DimensionMismatchError, match="must match the algebra dimension"):
        forms.sym.product_coords((0, 1, 0), x)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (3, 0), (5, 0), (0, 3)])
def test_basis_values_refuse_an_out_of_range_pair(i, j):
    # a negative index used to wrap to the last basis element, and
    # kappa_basis(5, 0) raised a bare KeyError
    forms = v_space_and_kappa(lie_catalog("sl2"))
    form = forms.kappa_form()
    assert form.value(2, 0) == forms.kappa_basis(2, 0)
    with pytest.raises(IndexError):
        form.value(i, j)
    with pytest.raises(IndexError):
        forms.kappa_basis(i, j)


def test_invariance_defect_rejects_derivations_of_another_dimension():
    form = BilinearForm.from_matrix([[F(int(i == j)) for j in range(3)] for i in range(3)])
    with pytest.raises(DimensionMismatchError, match="another dimension"):
        form.invariance_defect(derivations(lie_catalog("sl3")))


@pytest.mark.parametrize("coords", [[], [1, 0]])
def test_factor_map_rejects_coordinates_of_the_wrong_length(coords):
    forms = v_space_and_kappa(lie_catalog("sl2"))
    phi = factor_through(forms, forms.kappa_form())
    assert phi.apply([F(3)]) == (F(3),)
    with pytest.raises(DimensionMismatchError, match="V\\(L\\) coordinates have length"):
        phi.apply(coords)
