import random
from fractions import Fraction

import pytest

from currentext.catalog import comm_catalog, lie_catalog
from currentext.cohomology import (
    Cocycle2,
    OneCochain,
    ce_differential,
    coboundary_witness,
    cohomology,
)
from currentext.current import current_algebra
from currentext.errors import NotACocycleError, ResourceCeilingError
from currentext.lie import LieAlgebra

F = Fraction

# hand CE computation for heis3 ([x,y] = z), recorded as the oracle:
#   C^1 = 3, C^2 = 3, C^3 = 1
#   (d beta)(x,y) = -beta(z) and zero on the pairs (x,z), (y,z),
#     so im d^1 = span{psi_xy}, rank 1
#   (d psi)(x,y,z) = -psi([x,y],z) + psi([x,z],y) - psi([y,z],x)
#                  = -psi(z,z) + 0 - 0 = 0, so ker d^2 = 3
#   H^2 = 3 - 1 = 2
HEIS3_H2 = 2
# abelian: every differential vanishes, H^2 = C(n,2)
ABELIAN3_H2 = 3
ABELIAN2_H2 = 1


def test_abelian_differentials_vanish():
    L = lie_catalog("abelian:3")
    for p in (0, 1, 2):
        assert ce_differential(L, p, 1).nnz == 0


def test_heis3_delta2_is_zero():
    # only one triple (x, y, z); each term hits a repeated argument or a
    # central bracket, per the hand expansion above
    d2 = ce_differential(lie_catalog("heis3"), 2, 1)
    assert d2.shape == (1, 3)
    assert d2.nnz == 0


@pytest.mark.parametrize("name", ["sl2", "so3", "heis3", "sl3", "abelian:3", "gl2"])
def test_complex_property(name):
    L = lie_catalog(name)
    for p in (0, 1, 2):
        lower = ce_differential(L, p, 1)
        upper = ce_differential(L, p + 1, 1)
        for c in range(lower.cols):
            assert not any(upper.matvec(lower.column(c)))


def test_complex_property_on_current_algebras():
    for gname, aname in (("sl2", "jets:2"), ("sl2", "fun:2")):
        L = current_algebra(lie_catalog(gname), comm_catalog(aname)).total
        for p in (1, 2):
            lower = ce_differential(L, p, 1)
            upper = ce_differential(L, p + 1, 1)
            for c in range(lower.cols):
                assert not any(upper.matvec(lower.column(c)))


@pytest.mark.parametrize("name", ["sl2", "so3", "sl3", "sl2C"])
def test_whitehead(name):
    L = lie_catalog(name)
    assert cohomology(L, 1, 1).dimension == 0
    assert cohomology(L, 2, 1).dimension == 0


def test_h2_oracle_values():
    assert cohomology(lie_catalog("heis3"), 2, 1).dimension == HEIS3_H2
    assert cohomology(lie_catalog("abelian:3"), 2, 1).dimension == ABELIAN3_H2
    assert cohomology(lie_catalog("abelian:2"), 2, 1).dimension == ABELIAN2_H2


def test_h2_representatives_are_cocycles_with_independent_classes():
    result = cohomology(lie_catalog("heis3"), 2, 1)
    assert len(result.representatives) == 2
    for rep in result.representative_cocycles():
        assert rep.cocycle_defect() is None
    coords = [result.class_coordinates(v) for v in result.representatives]
    assert coords[0] == (F(1), F(0)) and coords[1] == (F(0), F(1))


def test_h2_invariant_under_basis_permutation():
    L = lie_catalog("heis3")
    # relabel (x, y, z) -> (z, x, y): permutation pi sends old index to new
    pi = {0: 1, 1: 2, 2: 0}
    entries = [
        (min(pi[i], pi[j]), max(pi[i], pi[j]), pi[k], c if pi[i] < pi[j] else -c)
        for i, j, k, c in L.structure_entries()
    ]
    permuted = LieAlgebra(("a", "b", "c"), entries)
    assert cohomology(permuted, 2, 1).dimension == cohomology(L, 2, 1).dimension


def test_coeff_dim_scales_h2():
    assert cohomology(lie_catalog("heis3"), 2, 3).dimension == 3 * HEIS3_H2


def test_h2_of_current_algebra_against_dense_oracle():
    from oracles import dense_rank

    L = current_algebra(lie_catalog("sl2"), comm_catalog("jets:2")).total
    d1 = ce_differential(L, 1, 1)
    d2 = ce_differential(L, 2, 1)
    nullity_d2 = d2.cols - dense_rank(d2.to_dense())
    rank_d1 = dense_rank(d1.to_dense())
    assert cohomology(L, 2, 1).dimension == nullity_d2 - rank_d1


def test_witness_round_trip_random():
    ca = current_algebra(lie_catalog("sl2"), comm_catalog("jets:3"))
    rng = random.Random(5)
    for _ in range(4):
        beta0 = OneCochain(
            ca.total, 1, [(F(rng.randint(-4, 4)),) for _ in range(ca.dim)]
        )
        psi = beta0.coboundary()
        witness = coboundary_witness(psi)
        assert witness.is_exact
        assert witness.beta.coboundary() == psi


def test_witness_zero_is_zero():
    L = lie_catalog("sl2")
    witness = coboundary_witness(Cocycle2.zero(L, 1))
    assert witness.is_exact
    assert witness.beta == OneCochain.zero(L, 1)


def test_witness_nonzero_class_reports_coordinates():
    L = lie_catalog("heis3")
    h2 = cohomology(L, 2, 1)
    rep = h2.representative_cocycles()[0]
    witness = coboundary_witness(rep, h2=h2)
    assert not witness.is_exact
    assert witness.class_coordinates == (F(1), F(0))


def test_universal_cocycle_class_is_nonzero():
    # the canonical cocycle on sl2 (x) QQ[x,y]/(x^2,y^2) has no primitive
    from currentext.current import universal_cocycle

    uc = universal_cocycle(lie_catalog("sl2"), comm_catalog("sq2"))
    witness = coboundary_witness(uc.cocycle)
    assert not witness.is_exact
    assert any(witness.class_coordinates)


def test_witness_rejects_non_cocycle():
    # on a 3-dim algebra every 2-cochain is a cocycle (C^3 has dim 1 and
    # d^2 vanishes on the catalog examples), so a genuine violation needs
    # a bigger algebra: psi(h1, e1) = 1 on sl3 fails on (h1, e1, ...)
    L = lie_catalog("sl3")
    bad = Cocycle2(L, 1, {(0, 2): (F(1),)})
    with pytest.raises(NotACocycleError) as info:
        coboundary_witness(bad)
    assert len(info.value.triple) == 3 and any(info.value.defect)


def test_resource_ceiling():
    L = lie_catalog("sl3")
    with pytest.raises(ResourceCeilingError):
        cohomology(L, 2, 1, ceiling=10)


def test_one_cochain_coboundary_convention():
    # (d beta)(x, y) = -beta([x, y])
    L = lie_catalog("sl2")
    beta = OneCochain(L, 1, [(F(1),), (F(2),), (F(3),)])
    d_beta = beta.coboundary()
    # [e, f] = h so (d beta)(e, f) = -beta(h) = -2
    assert d_beta.value(0, 2) == (F(-2),)
    # alternation
    assert d_beta.value(2, 0) == (F(2),)


def test_cocycle_flat_round_trip():
    L = lie_catalog("heis3")
    psi = Cocycle2(L, 2, {(0, 1): (F(1), F(-3)), (1, 2): (F(0), F(5))})
    again = Cocycle2.from_flat(L, 2, psi.flat())
    assert again == psi


def _oracle_algebra(name):
    if "(x)" in name:
        gname, aname = name.split(" (x) ")
        return current_algebra(lie_catalog(gname), comm_catalog(aname)).total
    return lie_catalog(name)


ORACLE_ALGEBRAS = (
    "sl2", "sl3", "so3", "heis3", "sl2C", "gl2", "abelian:3", "sl2+so3",
    "sl2 (x) jets:2", "sl2 (x) fun:2", "heis3 (x) fun:2", "so3 (x) sq2",
)


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_ce_differential_matches_triple_walk(name):
    from oracles import ce_differential_reference

    L = _oracle_algebra(name)
    for m in (1, 2):
        for p in range(4):
            d = ce_differential(L, p, m)
            rows, cols, triplets = ce_differential_reference(L, p, m)
            assert d.shape == (rows, cols)
            assert d.triplets() == triplets
        for p in range(3):
            lower = ce_differential(L, p, m)
            upper = ce_differential(L, p + 1, m)
            for c in range(lower.cols):
                assert not any(upper.matvec(lower.column(c)))


def test_ce_differential_ceiling_counts_every_target_tuple():
    # d vanishes on an abelian algebra, yet the guard counts all
    # comb(n, p + 1) * m target rows before anything is assembled
    L = lie_catalog("abelian:3")
    assert ce_differential(L, 1, 2, ceiling=6).shape == (6, 6)
    with pytest.raises(ResourceCeilingError):
        ce_differential(L, 1, 2, ceiling=5)
    with pytest.raises(ResourceCeilingError):
        ce_differential(lie_catalog("abelian:60"), 3, 1)
