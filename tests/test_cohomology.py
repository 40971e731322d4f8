import importlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from currentext.catalog import LIE_NAMES, comm_catalog, lie_catalog
from currentext.cli import run_command
from currentext.cohomology import (
    Cocycle2,
    OneCochain,
    _rank_table,
    _torus_weights,
    _weight_zero_tuples,
    ce_differential,
    coboundary_witness,
    cohomology,
)
from currentext.current import (
    CommAlgebra,
    GValuedOneForm,
    current_algebra,
    twist_difference,
    universal_cocycle,
)
from currentext.errors import (
    BadPrimitiveError,
    DimensionMismatchError,
    InternalConsistencyError,
    NotACocycleError,
    ResourceCeilingError,
)
from currentext.lie import LieAlgebra, _product_classes, derived_subalgebra
from currentext.linalg import SparseMatrix, Subspace, kernel_basis, solve_many
from currentext.locality import (
    Cover,
    SupportStructure,
    glue_primitives,
    restrict_class,
    restrict_cochain,
)

from oracles import dense_matrix, matrix_rows, matvec

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
        assert ce_differential(L, p).nnz == 0


def test_heis3_delta2_is_zero():
    # only one triple (x, y, z); each term hits a repeated argument or a
    # central bracket, per the hand expansion above
    d2 = ce_differential(lie_catalog("heis3"), 2)
    assert d2.shape == (1, 3)
    assert d2.nnz == 0


@pytest.mark.parametrize("name", ["sl2", "so3", "heis3", "sl3", "abelian:3", "gl2"])
def test_complex_property(name):
    L = lie_catalog(name)
    for p in (0, 1, 2):
        lower = ce_differential(L, p)
        upper = ce_differential(L, p + 1)
        for column in zip(*dense_matrix(lower)):
            assert not any(matvec(upper, column))


def test_complex_property_on_current_algebras():
    for gname, aname in (("sl2", "jets:2"), ("sl2", "fun:2")):
        L = current_algebra(lie_catalog(gname), comm_catalog(aname)).total
        for p in (1, 2):
            lower = ce_differential(L, p)
            upper = ce_differential(L, p + 1)
            for column in zip(*dense_matrix(lower)):
                assert not any(matvec(upper, column))


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
    reps = result.representative_cocycles()
    assert len(reps) == 2
    for rep in reps:
        assert rep.cocycle_defect() is None
    coords = [result.class_coordinates(rep.values) for rep in reps]
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
    d1 = ce_differential(L, 1)
    d2 = ce_differential(L, 2)
    nullity_d2 = d2.cols - dense_rank(dense_matrix(d2))
    rank_d1 = dense_rank(dense_matrix(d1))
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
    witness = coboundary_witness(rep)
    assert not witness.is_exact
    assert witness.class_coordinates == (F(1), F(0))
    # psi(x, z) = 1 on heis3 has class (1, 0)
    psi = Cocycle2(L, 1, {(0, 2): (F(1),)})
    assert coboundary_witness(psi).class_coordinates == (F(1), F(0))


def test_universal_cocycle_class_is_nonzero():
    # the canonical cocycle on sl2 (x) QQ[x,y]/(x^2,y^2) has no primitive
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


def test_witness_ceiling_comes_before_the_cocycle_check():
    # C^2(sl3, Q) has comb(8, 2) = 28 entries: below that ceiling the
    # refusal comes first, before the defect totals are allocated
    L = lie_catalog("sl3")
    bad = Cocycle2(L, 1, {(0, 2): (F(1),)})
    assert _needed(lambda: coboundary_witness(bad, ceiling=27)) == 28
    with pytest.raises(NotACocycleError):
        coboundary_witness(bad, ceiling=28)


def _assert_witness_matches_reference(psi):
    from oracles import coboundary_witness_reference

    witness = coboundary_witness(psi)
    beta, coords = coboundary_witness_reference(psi)
    assert (witness.beta.values if witness.is_exact else None) == beta
    assert witness.class_coordinates == coords
    return witness


@pytest.mark.parametrize("gname, aname, m", [("sl2", "sq2*jets:3", 9), ("so3", "sq2*sq2", 17)])
def test_twist_witness_matches_per_slot_solves(gname, aname, m):
    # the twist-glue benchmark's twists: all m slots of tau are exact
    g, A = lie_catalog(gname), comm_catalog(aname)
    uc = universal_cocycle(g, A)
    rng = random.Random(f"twist {gname} {aname}")
    entries = {}
    for i in range(g.dim):
        for t in range(uc.kaehler.dim_omega1):
            value = rng.randint(-3, 3)
            if value:
                entries[(i, t)] = F(value)
    xi = GValuedOneForm(g.dim, uc.kaehler.dim_omega1, entries)
    tau = twist_difference(g, A, xi, uc=uc).tau
    assert tau.coeff_dim == m
    assert _assert_witness_matches_reference(tau).is_exact


@pytest.mark.parametrize("m", [1, 3])
def test_glue_restriction_witnesses_match_per_slot_solves(m):
    ca = current_algebra(lie_catalog("sl2"), comm_catalog("fun:6*sq2"))
    ss = SupportStructure(ca)
    cover = Cover(ss, [(str(k), str(k + 1)) for k in range(1, 6)])
    rng = random.Random(f"glue {m}")
    beta0 = OneCochain(ca.total, m, [tuple(F(rng.randint(-3, 3)) for _ in range(m))
                                     for _ in range(ca.dim)])
    psi = beta0.coboundary()
    for subset in cover.subsets:
        assert _assert_witness_matches_reference(restrict_class(psi, ss, subset)).is_exact


def test_witness_of_a_class_with_one_exact_slot_matches_per_slot_solves():
    # on heis3 ([x, y] = z) slot 0, psi(x, y) = 1, is d beta for beta(z) = -1;
    # slot 1, psi(x, z) = 1, has scalar class (1, 0), so coordinate 0 * 2 + 1
    L = lie_catalog("heis3")
    psi = Cocycle2(L, 2, {(0, 1): (F(1), F(0)), (0, 2): (F(0), F(1))})
    witness = _assert_witness_matches_reference(psi)
    assert witness.class_coordinates == (F(0), F(1), F(0), F(0))


def _witness_algebra(gname, aname=None, corner=None):
    if aname is None:
        return lie_catalog(gname)
    ca = current_algebra(lie_catalog(gname), comm_catalog(aname))
    return ca.total if corner is None else SupportStructure(ca).corner(corner).current.total


# centres make d^1 free columns (gl2, heis3, the current algebras), and
# abelian:3 (x) sq2 brackets to zero on every pair, so psi has values on
# pairs with no d^1 row
@pytest.mark.parametrize("algebra", [
    ("heis3",),
    ("gl2",),
    ("gl2", "fun:2*sq2"),
    ("abelian:3", "sq2"),
    ("sl2", "fun:6*sq2", ("1", "2")),
    ("sl2", "fun:6*sq2", ("5", "6")),
], ids=lambda algebra: " ".join(map(str, algebra)))
def test_seeded_witnesses_match_per_slot_solves(algebra):
    L = _witness_algebra(*algebra)
    rng = random.Random(f"witness {algebra}")
    for m in (1, 2, 3):
        zero_slots = set(rng.sample(range(m), m // 2))
        beta = OneCochain(L, m, [
            tuple(F(0) if a in zero_slots else F(rng.randint(-3, 3), rng.randint(1, 3))
                  for a in range(m))
            for _ in range(L.dim)
        ])
        exact = beta.coboundary()
        witness = _assert_witness_matches_reference(exact)
        assert witness.is_exact and witness.beta.coboundary() == exact
        # a representative on one slot makes the class of that slot nonzero
        representatives = cohomology(L, 2, m).representative_cocycles()
        if representatives:
            psi = exact + rng.choice(representatives)
            assert not _assert_witness_matches_reference(psi).is_exact
    assert coboundary_witness(Cocycle2.zero(L, 0)).beta == OneCochain.zero(L, 0)


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


def test_apply_rejects_vectors_of_the_wrong_length():
    # heis3 has dimension 3: a shorter or longer vector is a usage error,
    # never a value read off its first entries or a bare IndexError
    L = lie_catalog("heis3")
    psi = Cocycle2(L, 1, {(0, 1): (F(1),)})
    assert psi.apply([1, 0, 0], [0, 1, 0]) == (F(1),)
    for u, v in (([1, 0, 0, 0, 5], [0, 1, 0, 0, 7]), ([1], [0, 1]),
                 ([1, 0, 0], [0, 1]), ([1, 0], [0, 1, 0])):
        with pytest.raises(DimensionMismatchError):
            psi.apply(u, v)
    beta = OneCochain(L, 1, [(F(1),), (F(2),), (F(3),)])
    assert beta.apply([1, 1, 0]) == (F(3),)
    for coords in ([1, 1], [1, 1, 0, 0]):
        with pytest.raises(DimensionMismatchError):
            beta.apply(coords)


def test_slot_is_keyed_by_pair():
    L = lie_catalog("heis3")
    psi = Cocycle2(L, 2, {(0, 1): (F(1), F(-3)), (1, 2): (F(0), F(5))})
    assert psi.slot(0) == {(0, 1): F(1)}
    assert psi.slot(1) == {(0, 1): F(-3), (1, 2): F(5)}


def test_class_coordinates_reject_malformed_cochains():
    # a value of the wrong coefficient length, and keys that are not
    # increasing pairs in range(3), are usage errors
    h2 = cohomology(lie_catalog("heis3"), 2, 2)
    assert h2.class_coordinates({(0, 2): (F(0), F(1))}) == (F(0), F(1), F(0), F(0))
    for cochain in ({(0, 2): (F(1),)}, {(0, 2): (F(1), F(0), F(0))}):
        with pytest.raises(DimensionMismatchError):
            h2.class_coordinates(cochain)
    for key in ((2, 0), (1, 1), (0, 3), (-1, 2), (0,), (0, 1, 2)):
        with pytest.raises(DimensionMismatchError):
            h2.class_coordinates({key: (F(1), F(0))})
        with pytest.raises(DimensionMismatchError):
            h2.scalar_class_coordinates({key: F(1)})


def _oracle_algebra(name):
    if "(x)" in name:
        gname, aname = name.split(" (x) ")
        return current_algebra(lie_catalog(gname), comm_catalog(aname)).total
    return lie_catalog(name)


ORACLE_ALGEBRAS = (
    "sl2", "sl3", "so3", "heis3", "sl2C", "gl2", "abelian:3", "sl2+so3",
    "sl2 (x) jets:2", "sl2 (x) fun:2", "heis3 (x) fun:2", "so3 (x) sq2",
)


# every degree up to the top tuple on these, p < 4 on the others
EVERY_DEGREE = ("heis3", "gl2", "sl2+so3")


def test_rank_numbers_every_tuple_lexicographically():
    # an increasing k-tuple's rank, top - sum_u T[u][t_u], is its position
    # in combinations(range(n), k), checked for every tuple with n <= 9
    for n in range(10):
        for k in range(n + 1):
            top, table = _rank_table(n, k)
            ranks = [top - sum(table[u][c] for u, c in enumerate(t))
                     for t in combinations(range(n), k)]
            assert ranks == list(range(comb(n, k)))


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_ce_differential_matches_triple_walk(name):
    from oracles import ce_differential_reference

    L = _oracle_algebra(name)
    for p in range(L.dim + 1 if name in EVERY_DEGREE else 4):
        d = ce_differential(L, p)
        rows, cols, triplets = ce_differential_reference(L, p, 1)
        assert d.shape == (rows, cols)
        assert d.triplets() == triplets
    for p in range(3):
        lower = ce_differential(L, p)
        upper = ce_differential(L, p + 1)
        for column in zip(*dense_matrix(lower)):
            assert not any(matvec(upper, column))


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cocycle_defect_matches_triple_walk(name, m):
    # a seeded coboundary equals the pair walk's and has no defect; the
    # same coboundary changed at one seeded pair must give the triple
    # walk's first triple and total
    from oracles import coboundary_reference, cocycle_defect_reference

    L = _oracle_algebra(name)
    rng = random.Random(f"defect {name} {m}")
    pairs = list(combinations(range(L.dim), 2))
    for _ in range(3):
        beta = OneCochain(L, m, [tuple(F(rng.randint(-3, 3)) for _ in range(m))
                                 for _ in range(L.dim)])
        psi = beta.coboundary()
        assert psi.values == coboundary_reference(beta)
        assert psi.cocycle_defect() is None
        assert cocycle_defect_reference(psi) is None
        pair = pairs[rng.randrange(len(pairs))]
        bump = tuple(F(rng.randint(1, 3)) for _ in range(m))
        bad = psi + Cocycle2(L, m, {pair: bump})
        assert bad.cocycle_defect() == cocycle_defect_reference(bad)


def _rescaled(L, scales):
    """L on the basis s_i b_i: [s_i b_i, s_j b_j] = sum_k (s_i s_j / s_k) c_ijk s_k b_k."""
    entries = [(i, j, k, scales[i] * scales[j] / scales[k] * c)
               for i, j, k, c in L.structure_entries()]
    return LieAlgebra(L.labels, entries)


RESCALED = (
    ("sl2", (F(1, 2), F(1), F(1, 3))),
    ("sl3", (F(1, 2), F(1, 3), F(1), F(2, 5), F(1), F(3), F(1, 6), F(5, 2))),
    ("sl2 (x) jets:2", (F(1, 2), F(1), F(1), F(3, 5), F(1, 3), F(1))),
)


@pytest.mark.parametrize("name, scales", RESCALED, ids=[name for name, _ in RESCALED])
@pytest.mark.parametrize("m", [1, 3])
def test_cocycle_defect_matches_triple_walk_with_denominators(name, scales, m):
    # non-integer structure constants and values with denominators 2, 3
    # and 5: the integer totals, divided back, are the exact Fractions
    from oracles import coboundary_reference, cocycle_defect_reference

    L = _rescaled(_oracle_algebra(name), scales)
    assert any(c.denominator > 1 for _, _, _, c in L.structure_entries())
    rng = random.Random(f"denominators {name} {m}")
    pairs = list(combinations(range(L.dim), 2))

    def value():
        return F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5)))

    for _ in range(4):
        beta = OneCochain(L, m, [tuple(value() for _ in range(m)) for _ in range(L.dim)])
        psi = beta.coboundary()
        assert psi.values == coboundary_reference(beta)
        assert psi.cocycle_defect() is None
        pair = pairs[rng.randrange(len(pairs))]
        bad = psi + Cocycle2(L, m, {pair: tuple(value() for _ in range(m))})
        assert bad.cocycle_defect() == cocycle_defect_reference(bad)


def test_cocycle_defect_total_keeps_its_denominator():
    # psi(x_0, x_2) = 1/5 on rescaled sl3 fails on (0, 1, 2) with total 1/15
    from oracles import cocycle_defect_reference

    L = _rescaled(lie_catalog("sl3"), dict(RESCALED)["sl3"])
    bad = Cocycle2(L, 1, {(0, 2): (F(1, 5),)})
    assert bad.cocycle_defect() == ((0, 1, 2), (F(1, 15),))
    assert bad.cocycle_defect() == cocycle_defect_reference(bad)


def _block_rows(L, p, m):
    """Dense rows of the m-fold block differential C^p(L, Q^m) -> C^{p+1}."""
    from oracles import ce_differential_reference

    rows, cols, triplets = ce_differential_reference(L, p, m)
    dense = [[F(0)] * cols for _ in range(rows)]
    for i, j, value in triplets:
        dense[i][j] = value
    return dense


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
@pytest.mark.parametrize("m", [2, 3])
def test_h2_with_coefficients_matches_block_complex(name, m):
    # the scalar complex tensored with Q^m against the m-fold block
    # complex of the triple walk, eliminated densely
    from oracles import (
        dense_canonical_solve,
        dense_kernel_rref,
        dense_rank,
        dense_representatives,
        flat_cochain,
        tuple_cochain,
    )

    L = _oracle_algebra(name)
    d1, d2 = _block_rows(L, 1, m), _block_rows(L, 2, m)
    size = len(d2[0])
    h2 = cohomology(L, 2, m)
    kernel = dense_kernel_rref(d2, size)[1]
    image = [[row[c] for row in d1] for c in range(len(d1[0]))]
    assert h2.dimension == len(kernel) - dense_rank(image)
    identity = [tuple(F(int(r == c)) for c in range(h2.dimension))
                for r in range(h2.dimension)]
    rng = random.Random(f"{name} {m}")
    for k, rep in enumerate(dense_representatives(h2)):
        assert not any(sum(x * y for x, y in zip(row, rep)) for row in d2)
        assert h2.class_coordinates(tuple_cochain(rep, L.dim, 2, m)) == identity[k]
        boundary = image[rng.randrange(len(image))]
        shifted = [x + y for x, y in zip(rep, boundary)]
        assert h2.class_coordinates(tuple_cochain(shifted, L.dim, 2, m)) == identity[k]
    # an exact cocycle gets the dense canonical primitive (free
    # coordinates zero); a representative plus it keeps its class
    beta0 = OneCochain(L, m, [tuple(F(rng.randint(-3, 3)) for _ in range(m))
                              for _ in range(L.dim)])
    psi = beta0.coboundary()
    witness = coboundary_witness(psi)
    assert witness.is_exact
    beta_flat = [x for value in witness.beta.values for x in value]
    assert beta_flat == dense_canonical_solve(d1, flat_cochain(psi.values, L.dim, 2, m))
    for k, rep in enumerate(h2.representative_cocycles()[:2]):
        assert coboundary_witness(rep + psi).class_coordinates == identity[k]


def test_ce_differential_ceiling_counts_every_target_tuple():
    # d vanishes on an abelian algebra, yet the guard counts all
    # comb(n, p + 1) target rows before anything is assembled
    L = lie_catalog("abelian:3")
    assert ce_differential(L, 1, ceiling=3).shape == (3, 3)
    with pytest.raises(ResourceCeilingError):
        ce_differential(L, 1, ceiling=2)
    with pytest.raises(ResourceCeilingError):
        ce_differential(lie_catalog("abelian:60"), 3)
    # the weight-zero d^2 of sl3 has 4 of the 28 pairs as columns, and
    # its guard still counts all comb(8, 3) = 56 target triples
    L = lie_catalog("sl3")
    assert _block(L, 2, ceiling=56).cols == 4
    assert _needed(lambda: _block(L, 2, ceiling=55)) == 56


def _block(L, p, **kwargs):
    """d^p on the weight-zero p-tuples, the block cohomology() solves."""
    return ce_differential(L, p, sources=_weight_zero_tuples(_torus_weights(L), p), **kwargs)


# the large end of the ROADMAP ladder, in catalog order: (fibre, coefficients)
LADDER = (("sl2", "fun:8*sq2"), ("sl3", "fun:2*sq2"), ("sl2+so3", "sq2*jets:2"), ("sl2", "fun:4*sq2"))


def test_kernel_of_the_ladder_blocks_stays_within_its_row_step_budget(monkeypatch):
    # kernel_basis of the four weight-zero d^2 blocks took 7,635 row steps
    # before single-entry rows were peeled (elimination, back substitution
    # and the generators' elimination together) and 2,484 with the peel;
    # the budget is half the former count
    from currentext import linalg

    steps = []
    row_step = linalg._row_step

    def counted(prow, row, col):
        steps.append(col)
        return row_step(prow, row, col)

    blocks = [_block(current_algebra(lie_catalog(g), comm_catalog(a)).total, 2) for g, a in LADDER]
    monkeypatch.setattr(linalg, "_row_step", counted)
    kernels = [kernel_basis(d).dim for d in blocks]
    assert kernels == [40, 18, 42, 20]
    assert len(steps) <= 7635 // 2


def _needed(call):
    """The cochain count a refused call reports."""
    with pytest.raises(ResourceCeilingError) as info:
        call()
    return info.value.needed


def test_cohomology_ceiling_counts_the_coefficient_factor():
    # the scalar complex is solved, but the ceiling counts C^{p+1} and
    # C^p with their factor m, exactly at the limit and one below it
    m = 2
    abelian3, abelian4, abelian6 = (lie_catalog(f"abelian:{n}") for n in (3, 4, 6))
    # p = 1: comb(3, 2) * 2 = 6 before d^1; there is no d^0
    assert cohomology(abelian3, 1, m, ceiling=6).dimension == 3 * m
    assert _needed(lambda: cohomology(abelian3, 1, m, ceiling=5)) == 6
    # p = 2 where d^1 binds: comb(4, 3) * 2 = 8, comb(4, 2) * 2 = 12
    assert cohomology(abelian4, 2, m, ceiling=12).dimension == 6 * m
    assert _needed(lambda: cohomology(abelian4, 2, m, ceiling=11)) == 12
    # p = 2 where d^2 binds: comb(6, 3) * 2 = 40, comb(6, 2) * 2 = 30
    assert cohomology(abelian6, 2, m, ceiling=40).dimension == 15 * m
    assert _needed(lambda: cohomology(abelian6, 2, m, ceiling=39)) == 40
    # a torus shrinks the solved block, never the count: sl3 (rank 2)
    # solves 4 of its 28 pairs and 8 of its 56 triples, yet
    # comb(8, 3) * 2 = 112 binds
    sl3 = lie_catalog("sl3")
    assert cohomology(sl3, 2, m, ceiling=112).dimension == 0
    assert _needed(lambda: cohomology(sl3, 2, m, ceiling=111)) == 112


def test_witness_ceiling_counts_the_coefficient_factor():
    # comb(3, 2) * 2 = 6 entries of C^2(heis3, Q^2), also for psi = 0
    L = lie_catalog("heis3")
    psi = OneCochain(L, 2, [(F(1), F(0)), (F(0), F(2)), (F(3), F(-1))]).coboundary()
    for cocycle in (psi, Cocycle2.zero(L, 2)):
        assert coboundary_witness(cocycle, ceiling=6).is_exact
        assert _needed(lambda: coboundary_witness(cocycle, ceiling=5)) == 6


def test_cohomology_above_the_dimension_is_zero():
    # C^p = 0 for p > dim L; h2 of a one-dimensional algebra once escaped
    # as a ValueError traceback from ce_differential
    assert cohomology(lie_catalog("abelian:1"), 2, 3).dimension == 0
    assert cohomology(lie_catalog("sl2"), 4, 1).scalar_representatives == ()
    # (e, h, f) has weight 0
    assert _block(lie_catalog("sl2"), 3).shape == (0, 1)
    for d in (ce_differential(lie_catalog("sl2"), 4), _block(lie_catalog("sl2"), 4)):
        assert d.shape == (0, 0)
    report = run_command(["h2", "abelian:1", "--format", "json"])
    assert report.exit_code == 0 and report.results["dim"] == 0


def test_cohomology_rejects_negative_coefficient_dimension():
    with pytest.raises(ValueError):
        cohomology(lie_catalog("sl2"), 2, -1)


def test_zero_coefficients_give_zero_cohomology():
    L = lie_catalog("heis3")
    h2 = cohomology(L, 2, 0, ceiling=0)
    assert h2.dimension == 0 and h2.class_coordinates({}) == ()
    witness = coboundary_witness(Cocycle2.zero(L, 0), ceiling=0)
    assert witness.beta == OneCochain.zero(L, 0)


# -- the weight-zero block ----------------------------------------------------

ACCEPTANCE_PAIRS = (
    "sl2 (x) sq2", "sl2 (x) fun:2*sq2", "sl2 (x) jets:3", "sl2 (x) fun:2", "sl2+so3 (x) sq2",
)


def _class_probes(L, p, m, representatives, rng):
    """Flat cocycles to read classes of: each representative, and for
    p = 2 each representative plus a seeded coboundary d(beta), which has
    components of every weight, and that coboundary alone."""
    if p == 1:  # d^0 = 0: the cocycles are the classes
        return [list(rep) for rep in representatives]
    d1 = ce_differential(L, 1)
    boundary = [F(0)] * (d1.rows * m)
    for a in range(m):
        boundary[a::m] = matvec(d1, [F(rng.randint(-2, 2)) for _ in range(L.dim)])
    return [[x + y for x, y in zip(rep, boundary)] for rep in representatives] + [boundary]


def _assert_matches_full_complex(L, p, m, rng):
    """Same dimension, representatives and classes as the whole complex."""
    from oracles import cohomology_reference, dense_representatives, tuple_cochain

    got, ref = cohomology(L, p, m), cohomology_reference(L, p, m)
    assert got.dimension == ref.dimension
    assert dense_representatives(got) == ref.representatives
    for flat in _class_probes(L, p, m, ref.representatives, rng):
        cochain = tuple_cochain(flat, L.dim, p, m)
        assert got.class_coordinates(cochain) == ref.class_coordinates(flat)


def _permuted(L, order):
    """L on the basis order[0], order[1], ..."""
    new = {old: r for r, old in enumerate(order)}
    entries = [(new[i], new[j], new[k], c) for i, j, k, c in L.structure_entries()]
    return LieAlgebra([L.labels[old] for old in order], entries)


@pytest.mark.parametrize("name", LIE_NAMES + ACCEPTANCE_PAIRS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_cohomology_matches_full_complex(name, p, m):
    # solving the weight-zero block gives the full complex's answer
    _assert_matches_full_complex(_oracle_algebra(name), p, m, random.Random(f"{name} {p} {m}"))


PERMUTED = ("sl3", "gl2", "sl2C", "heis3", "sl2+so3", "sl2 (x) sq2", "sl2 (x) fun:2*sq2")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cohomology_matches_full_complex_on_permuted_bases(data):
    # the torus and the block are read from whatever basis order is given
    name = data.draw(st.sampled_from(PERMUTED), label="algebra")
    L = _oracle_algebra(name)
    L = _permuted(L, data.draw(st.permutations(range(L.dim)), label="order"))
    p = data.draw(st.sampled_from((1, 2)), label="p")
    m = data.draw(st.sampled_from((1, 2)), label="m")
    _assert_matches_full_complex(L, p, m, random.Random(name))


def _assert_representatives_are_lifts(L, p, m):
    """Each representative is a cocycle (by the triple walk), zero on
    every pivot column of the image, has the unit vector for its class
    coordinates, and lies in the class of the representative the
    row-operation transform gave."""
    from oracles import (
        ce_differential_reference,
        cohomology_reference,
        dense_representatives,
        tuple_cochain,
    )

    got, ref = cohomology(L, p, m), cohomology_reference(L, p, m)
    _, _, d_up = ce_differential_reference(L, p, m)
    reps = dense_representatives(got)
    assert len(reps) == len(ref.transform_representatives) == got.dimension
    for j, (rep, old) in enumerate(zip(reps, ref.transform_representatives)):
        defect = {}
        for row, col, value in d_up:
            defect[row] = defect.get(row, 0) + value * rep[col]
        assert not any(defect.values())
        assert not any(rep[c * m + a] for c in ref.image_pivots for a in range(m))
        unit = tuple(F(k == j) for k in range(got.dimension))
        assert got.class_coordinates(tuple_cochain(rep, L.dim, p, m)) == unit
        assert not any(ref.class_coordinates([x - y for x, y in zip(rep, old)]))


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS + ACCEPTANCE_PAIRS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_representatives_are_the_lifts_of_the_class_rows(name, p, m):
    _assert_representatives_are_lifts(_oracle_algebra(name), p, m)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_representatives_are_the_lifts_of_the_class_rows_on_permuted_bases(data):
    # the lift is zero on the image's pivot columns whatever the basis order
    name = data.draw(st.sampled_from(ORACLE_ALGEBRAS + ACCEPTANCE_PAIRS), label="algebra")
    L = _oracle_algebra(name)
    L = _permuted(L, data.draw(st.permutations(range(L.dim)), label="order"))
    p = data.draw(st.sampled_from((1, 2)), label="p")
    m = data.draw(st.sampled_from((1, 2)), label="m")
    _assert_representatives_are_lifts(L, p, m)


# direct sums of ideals, perfect and not: in degree 2 the block leaves out
# the pairs across two ideal classes with a perfect side
IDEAL_SUMS = ("sl2+abelian:2", "gl2+sl2", "heis3+gl2", "gl2+gl2", "so3+heis3+abelian:1",
              "sl2+so3", "sl2 (x) fun:3")


def _shuffled(name, shuffle):
    """The algebra of name on its catalog basis (shuffle 0) or on a seeded
    shuffle of it."""
    L = _oracle_algebra(name)
    if shuffle:
        order = list(range(L.dim))
        random.Random(f"{name} shuffle {shuffle}").shuffle(order)
        L = _permuted(L, order)
    return L


@pytest.mark.parametrize("name", IDEAL_SUMS)
@pytest.mark.parametrize("shuffle", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_h2_of_a_sum_of_ideals_matches_full_complex(name, shuffle, m):
    _assert_matches_full_complex(_shuffled(name, shuffle), 2, m,
                                 random.Random(f"{name} {shuffle} {m}"))


@pytest.mark.parametrize("name, count, left_out", [
    ("sl2+abelian:2", 3, 2),  # (h, a1), (h, a2)
    ("gl2+sl2", 2, 2),  # (E11, h), (E22, h)
    ("heis3+gl2", 2, 0),  # neither side is perfect
    ("gl2+gl2", 2, 0),
    ("so3+heis3+abelian:1", 3, 12),  # so3 x (heis3 + abelian:1): no torus
    ("sl2+so3", 2, 3),  # h x so3
    ("sl2 (x) fun:3", 3, 3),  # the h (x) e_s pairs across points
])
@pytest.mark.parametrize("shuffle", [0, 1])
def test_h2_block_leaves_out_the_cross_pairs_with_a_perfect_side(name, count, left_out,
                                                                  shuffle):
    # a class is perfect when [L, L] holds all of it; the block keeps every
    # weight-zero pair inside a class or across two classes not perfect
    L = _shuffled(name, shuffle)
    classes = _product_classes(L)
    assert len(classes) == count
    owner = {i: s for s, members in enumerate(classes) for i in members}
    derived = set(derived_subalgebra(L).pivots)
    perfect = {s for s, members in enumerate(classes) if derived.issuperset(members)}
    block = _weight_zero_tuples(_torus_weights(L), 2)
    kept = [(x, y) for x, y in block
            if owner[x] == owner[y] or not {owner[x], owner[y]} & perfect]
    assert len(block) - len(kept) == left_out
    assert cohomology(L, 2, 1).cochains == tuple(kept)


def test_gl2_plus_gl2_keeps_its_cross_pairs():
    # H^2(gl2 + gl2) is H^1(gl2) (x) H^1(gl2): the class of trace (x) trace,
    # which lives on the cross pairs; E11 (x) E11' is one of them
    h = cohomology(lie_catalog("gl2+gl2"), 2, 1)
    assert (0, 4) in h.cochains and h.dimension == 1
    assert all(x < 4 <= y for x, y in h.scalar_representatives[0])


@pytest.mark.parametrize("name, pair", [
    ("sl2+abelian:2", (1, 3)),  # (h, a1)
    ("gl2+sl2", (0, 5)),  # (E11, h)
    ("sl2 (x) fun:3", (3, 4)),  # (h (x) e1, h (x) e2)
])
def test_class_coordinates_reject_a_value_on_a_pair_left_out(name, pair):
    # the pair has weight zero but is no block column: the class maps check
    # it with the entries of nonzero weight, and no cocycle is nonzero there
    L = _oracle_algebra(name)
    h = cohomology(L, 2, 2)
    assert pair in _weight_zero_tuples(_torus_weights(L), 2) and pair not in h.cochains
    for rep in h.scalar_representatives or [{}]:
        cochain = {**rep, pair: F(1)}
        with pytest.raises(InternalConsistencyError):
            h.scalar_class_coordinates(cochain)
        with pytest.raises(InternalConsistencyError):
            h.class_coordinates({t: (F(0), value) for t, value in cochain.items()})


@pytest.mark.parametrize("name", ["heis3", "sl2+abelian:2", "so3+heis3+abelian:1"])
def test_h2_makes_no_extra_linalg_call(monkeypatch, name):
    # the perfect classes are read without derived_subalgebra (a
    # from_spanning): h2 makes one kernel_basis and two from_spanning
    # calls (the image of d^1, then the classes), with one class or more
    module = importlib.import_module("currentext.cohomology")
    calls = []

    def counted(f):
        return lambda *args: calls.append(f.__name__) or f(*args)

    monkeypatch.setattr(module, "kernel_basis", counted(module.kernel_basis))
    spanning = Subspace.from_spanning.__func__
    monkeypatch.setattr(Subspace, "from_spanning", classmethod(counted(spanning)))
    assert cohomology(lie_catalog(name), 2, 1).dimension > 0
    assert calls == ["kernel_basis", "from_spanning", "from_spanning"]


def test_torus_of_the_basis():
    def rank(L):
        return len(_torus_weights(L)[0])

    for name in ("heis3", "abelian:4", "so3"):
        assert rank(lie_catalog(name)) == 0
    assert rank(lie_catalog("sl3")) == 2
    assert rank(_oracle_algebra("sl2 (x) fun:4*sq2")) == 4
    # gl2 = (E11, E12, E21, E22): ad(E11) and ad(E22) are diagonal
    assert _torus_weights(lie_catalog("gl2")) == [(0, 0), (1, -1), (-1, 1), (0, 0)]


def test_weight_zero_block_sizes():
    # with an empty torus the block is every tuple, in lexicographic order
    weights = _torus_weights(lie_catalog("heis3"))
    for k in range(4):
        assert _weight_zero_tuples(weights, k) == list(combinations(range(3), k))
    # sl2 (x) fun:4*sq2 (dim 48): C^2 falls from 1128 to 184 pairs
    weights = _torus_weights(_oracle_algebra("sl2 (x) fun:4*sq2"))
    assert len(_weight_zero_tuples(weights, 2)) == 184
    assert all(not any(map(sum, zip(*(weights[i] for i in t))))
               for t in _weight_zero_tuples(weights, 3))


@pytest.mark.parametrize("name", ("sl3", "gl2", "heis3", "sl2+so3", "sl2 (x) fun:2*sq2"))
def test_weight_zero_differential_is_the_full_one_restricted(name):
    # the block's columns are the full matrix's weight-zero columns, in
    # order, and they reach weight-zero rows only
    L = _oracle_algebra(name)
    weights = _torus_weights(L)
    for p in range(4):
        full = ce_differential(L, p)
        block = _block(L, p)
        rank = {k: {t: r for r, t in enumerate(combinations(range(L.dim), k))}
                for k in (p, p + 1)}
        col = {rank[p][t]: c for c, t in enumerate(_weight_zero_tuples(weights, p))}
        targets = {rank[p + 1][t] for t in _weight_zero_tuples(weights, p + 1)}
        assert block.shape == (full.rows, len(col))
        assert block.triplets() == [
            (i, col[j], value) for i, j, value in full.triplets() if j in col]
        assert {i for i, _, _ in block.triplets()} <= targets


def test_differential_on_given_sources():
    # any increasing tuples give those columns, in the order given, and
    # anything else is refused
    L = _oracle_algebra("sl2 (x) fun:2*sq2")
    full = ce_differential(L, 1)
    picked = ce_differential(L, 1, sources=[(5,), (2,)])
    assert picked.triplets() == sorted(
        (i, c, value) for i, j, value in full.triplets() for c, t in enumerate((5, 2)) if j == t)
    for bad in ([(2, 1)], [(0,)], [(0, L.dim)], [[0, 1]]):
        with pytest.raises(DimensionMismatchError, match="is not an increasing 2-tuple"):
            ce_differential(L, 2, sources=bad)


@pytest.mark.parametrize("name", ("sl2+so3", "sl2 (x) fun:2*sq2"))
def test_differential_on_sources_out_of_lexicographic_order(name):
    # shuffled p-tuples are the columns in the order given, for rests
    # (a source less one index) of every length up to 3
    L = _oracle_algebra(name)
    rng = random.Random(26)
    for p in range(1, 5):
        tuples = list(combinations(range(L.dim), p))
        picked = rng.sample(tuples, min(len(tuples), 12))
        full = {}
        for i, j, value in ce_differential(L, p).triplets():
            full.setdefault(tuples[j], []).append((i, value))
        got = ce_differential(L, p, sources=picked)
        assert got.shape == (comb(L.dim, p + 1), len(picked))
        assert got.triplets() == sorted(
            (i, c, value) for c, t in enumerate(picked) for i, value in full.get(t, ()))


def _reference_coboundary(L, p, cochain):
    """d^p of the scalar cochain {p-tuple: value} by the triple walk,
    keyed by (p+1)-tuples."""
    from oracles import ce_differential_reference

    sources = list(combinations(range(L.dim), p))
    targets = list(combinations(range(L.dim), p + 1))
    out = {}
    for i, j, value in ce_differential_reference(L, p, 1)[2]:
        out[targets[i]] = out.get(targets[i], F(0)) + value * cochain.get(sources[j], F(0))
    return {t: value for t, value in out.items() if value}


@pytest.mark.parametrize("name, p, gamma, bump", [
    # sl3: (h1, e1) and (h1, h2, e1) have weight (2, -1)
    ("sl3", 2, {(2,): F(1)}, {(0, 2): F(1)}),
    ("sl3", 3, {(0, 2): F(1), (1, 5): F(-3)}, {(0, 1, 2): F(1)}),
    # sl2+so3: (h, e, e1) has the weight 2 of e
    ("sl2+so3", 3, {(0, 3): F(2)}, {(0, 1, 3): F(1)}),
])
def test_class_coordinates_with_a_part_of_nonzero_weight(name, p, gamma, bump):
    # rep + d(gamma) has entries off the weight-zero block, read by d^p to
    # check that they form a cocycle: they do, and the class is rep's;
    # with a non-cocycle of nonzero weight added the cochain is refused
    L = lie_catalog(name)
    h = cohomology(L, p, 1)
    exact = _reference_coboundary(L, p - 1, gamma)
    assert exact and not exact.keys() & set(h.cochains)
    assert _reference_coboundary(L, p, bump) and not bump.keys() & set(h.cochains)
    reps = h.scalar_representatives or [{}]
    for k, rep in enumerate(reps):
        cochain = dict(rep)
        for t, value in exact.items():
            cochain[t] = cochain.get(t, F(0)) + value
        coords = tuple(F(int(i == k)) for i in range(h.dimension))
        assert h.scalar_class_coordinates(cochain) == {i: c for i, c in enumerate(coords) if c}
        assert h.class_coordinates({t: (value,) for t, value in cochain.items()}) == coords
        cochain.update(bump)
        with pytest.raises(InternalConsistencyError):
            h.scalar_class_coordinates(cochain)
        with pytest.raises(InternalConsistencyError):
            h.class_coordinates({t: (value,) for t, value in cochain.items()})


def test_cohomology_reads_the_torus_once(monkeypatch):
    # one torus and one weight-zero listing per degree, each handed to the
    # two differentials (the package's attribute cohomology is the
    # function, so the module is looked up by name)
    module = importlib.import_module("currentext.cohomology")
    calls = []
    torus, tuples = module._torus_weights, module._weight_zero_tuples
    monkeypatch.setattr(module, "_torus_weights", lambda L: calls.append("torus") or torus(L))
    monkeypatch.setattr(module, "_weight_zero_tuples",
                        lambda w, k: calls.append(k) or tuples(w, k))
    assert cohomology(lie_catalog("gl2"), 2, 1).dimension == 0
    assert calls == ["torus", 2, 1]


def test_class_coordinates_reject_a_defect_of_nonzero_weight():
    # sl3: d(beta) with beta nonzero on h1 only is a weight-zero cocycle;
    # psi(h1, e1) = 1 in slot 1 has nonzero weight and is no cocycle
    L = lie_catalog("sl3")
    h2 = cohomology(L, 2, 2)
    exact = OneCochain(L, 2, [(F(1), F(-2))] + [(F(0), F(0))] * 7).coboundary()
    bump = Cocycle2(L, 2, {(0, 2): (F(0), F(1))})
    assert h2.class_coordinates(exact.values) == ()
    assert bump.cocycle_defect() is not None
    with pytest.raises(InternalConsistencyError):
        h2.class_coordinates((exact + bump).values)
    with pytest.raises(InternalConsistencyError):
        h2.scalar_class_coordinates((exact + bump).slot(1))
    # the same for a 1-cochain: the trace class of gl2 plus beta(E12) = 1,
    # for which (d beta)(E11, E12) = -beta(E12) != 0
    h1 = cohomology(lie_catalog("gl2"), 1, 1)
    rep = {t: (value,) for t, value in h1.scalar_representatives[0].items()}
    assert (1,) not in rep
    assert h1.class_coordinates(rep) == (F(1),)
    rep[(1,)] = (F(1),)
    with pytest.raises(InternalConsistencyError):
        h1.class_coordinates(rep)


@pytest.mark.parametrize("name, p, key", [
    ("sl3", 2, (0, 1)),  # psi(h1, h2) = 1
    ("sl3", 1, (0,)),  # beta(h1) = 1
    ("gl2", 2, (0, 3)),  # psi(E11, E22) = 1
    ("gl2", 1, (0,)),  # beta(E11) = 1, off the trace class
])
def test_class_coordinates_reject_a_weight_zero_non_cocycle(name, p, key):
    # the cochain lies in the weight-zero block, so only the check that its
    # quotient coordinates lie in the span of the classes can refuse it
    h = cohomology(lie_catalog(name), p, 1)
    assert key in h.cochains
    with pytest.raises(InternalConsistencyError):
        h.scalar_class_coordinates({key: F(1)})
    with pytest.raises(InternalConsistencyError):
        h.class_coordinates({key: (F(1),)})



# --- the integer row path off the integer lattice ---------------------------
#
# ce_differential keeps integer rows over the bracket denominator, the
# eliminator reads them as they are, and the torus weights are scaled to
# integers.  On rescaled bases the structure constants, the rows of d and
# the torus eigenvalues have denominators, so every scale differs from 1.

OFF_LATTICE = RESCALED + (
    ("sl2", (F(2), F(1, 3), F(1, 2))),  # ad(h/3) has eigenvalues 2/3 and -2/3
    ("gl2", (F(1, 3), F(2), F(1, 5), F(3, 4))),
    ("sl2 (x) fun:2", (F(1, 2), F(1), F(1, 3), F(3, 2), F(1), F(2, 5))),
)
OFF_LATTICE_IDS = [f"{name} {','.join(map(str, s))}" for name, s in OFF_LATTICE]


def _off_lattice(name, scales):
    return _rescaled(_oracle_algebra(name), scales)


def _fraction_weights(L):
    """The torus eigenvalues, unscaled: x_t is a torus element when every
    [x_t, x_j] is a multiple of x_j and one of them is nonzero."""
    torus = [t for t in range(L.dim)
             if all(set(L.bracket_basis(t, j)) <= {j} for j in range(L.dim))
             and any(L.bracket_basis(t, j) for j in range(L.dim))]
    return [tuple(F(L.bracket_basis(t, j).get(j, 0)) for t in torus) for j in range(L.dim)]


def _weight_zero_walk(weights, k):
    """Every increasing k-tuple whose weights sum to zero, by brute force."""
    rank = len(weights[0]) if weights else 0
    return [t for t in combinations(range(len(weights)), k)
            if not any(sum(weights[i][r] for i in t) for r in range(rank))]


def _accessor_values(d):
    """Every value the public accessors of a matrix and of its kernel
    hand out."""
    kernel = kernel_basis(d)
    values = [v for _, _, v in d.triplets()]
    values += [v for row in kernel.basis_rows() for v in row.values()]
    values += [v for _, _, v in kernel.basis_matrix().triplets()]
    return values


def test_off_lattice_inputs_have_denominators():
    for name, scales in OFF_LATTICE:
        L = _off_lattice(name, scales)
        assert any(c.denominator > 1 for _, _, _, c in L.structure_entries())
        assert any(v.denominator > 1 for _, _, v in ce_differential(L, 1).triplets())
    # all but rescaled sl2 and sl2 (x) jets:2 have fractional torus eigenvalues
    fractional = [t for t, (name, scales) in enumerate(OFF_LATTICE)
                  if any(x.denominator > 1
                         for w in _fraction_weights(_off_lattice(name, scales)) for x in w)]
    assert fractional == [1, 3, 4, 5]


@pytest.mark.parametrize("name, scales", OFF_LATTICE, ids=OFF_LATTICE_IDS)
def test_ce_differential_off_the_integer_lattice(name, scales):
    # full and weight-zero d^p against the triple walk, read through
    # every accessor as Fractions
    from oracles import ce_differential_reference

    L = _off_lattice(name, scales)
    exact = _fraction_weights(L)
    for p in range(4):
        rows, cols, triplets = ce_differential_reference(L, p, 1)
        full = ce_differential(L, p)
        assert full.shape == (rows, cols)
        assert full.triplets() == triplets
        rank = {t: r for r, t in enumerate(combinations(range(L.dim), p))}
        col = {rank[t]: c for c, t in enumerate(_weight_zero_walk(exact, p))}
        block = _block(L, p)
        assert block.shape == (rows, len(col))
        assert block.triplets() == [(i, col[j], v) for i, j, v in triplets if j in col]
        for d in (full, block):
            assert all(type(v) is Fraction for v in _accessor_values(d))
            assert d == SparseMatrix(d.rows, d.cols, {(i, j): v for i, j, v in d.triplets()})


@pytest.mark.parametrize("name, scales", OFF_LATTICE, ids=OFF_LATTICE_IDS)
@pytest.mark.parametrize("m", [1, 2])
def test_cohomology_off_the_integer_lattice(name, scales, m):
    from oracles import dense_rank

    L = _off_lattice(name, scales)
    for p in (1, 2):
        _assert_matches_full_complex(L, p, m, random.Random(f"off lattice {name} {p} {m}"))
    # and dim H^2 against a dense elimination of the triple walk
    d1, d2 = _block_rows(L, 1, 1), _block_rows(L, 2, 1)
    assert cohomology(L, 2, m).dimension == m * (len(d2[0]) - dense_rank(d2) - dense_rank(d1))


def _rhs_off_lattice(L, d1, rng):
    """Right-hand sides of d^1 with denominators 2, 3 and 5: three in
    the image, two drawn at random."""
    def value():
        return F(rng.randint(-4, 4), rng.choice((2, 3, 5)))

    bs = [matvec(d1, [value() for _ in range(L.dim)]) for _ in range(3)]
    bs += [tuple(value() if rng.random() < 0.5 else F(0) for _ in range(d1.rows))
           for _ in range(2)]
    return bs


@pytest.mark.parametrize("name, scales", OFF_LATTICE, ids=OFF_LATTICE_IDS)
def test_solve_many_on_d1_off_the_integer_lattice(name, scales):
    from oracles import dense_canonical_solve

    L = _off_lattice(name, scales)
    d1 = ce_differential(L, 1)
    bs = _rhs_off_lattice(L, d1, random.Random(f"solve {name}"))
    got = solve_many(d1, bs)
    assert [None if x is None else list(x) for x in got] == [
        dense_canonical_solve(_block_rows(L, 1, 1), b) for b in bs
    ]
    assert None not in got[:3]
    assert all(type(v) is Fraction for x in got if x is not None for v in x)


def test_rows_reaching_the_eliminator_are_the_integer_fraction_rows(monkeypatch):
    # kernel_basis, rank and solve_many hand the matrix's integer rows to
    # the eliminator: exactly the primitive rows _integer_rows makes of
    # the Fraction rows (with the right-hand sides appended for solve_many)
    from currentext import linalg

    seen = []
    eliminate = linalg._eliminate

    def record(rows, stop_col):
        seen.append(list(rows))
        return eliminate(seen[-1], stop_col)

    monkeypatch.setattr(linalg, "_eliminate", record)
    for name, scales in OFF_LATTICE:
        L = _off_lattice(name, scales)
        for p in (1, 2):
            for d in (ce_differential(L, p), _block(L, p)):
                want = linalg._integer_rows([row for row in matrix_rows(d) if row], d.cols)
                for solve in (linalg.kernel_basis, linalg.rank):
                    seen.clear()
                    solve(d)
                    assert seen[0] == want
        d1 = ce_differential(L, 1)
        bs = _rhs_off_lattice(L, d1, random.Random(f"rows {name}"))
        augmented = matrix_rows(d1)
        for t, b in enumerate(bs):
            for i, x in enumerate(b):
                if x:
                    augmented[i][d1.cols + t] = x
        seen.clear()
        solve_many(d1, bs)
        assert seen[0] == linalg._integer_rows(
            [row for row in augmented if row], d1.cols + len(bs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_weights_give_the_fraction_weight_zero_tuples(data):
    name, scales = data.draw(st.sampled_from(OFF_LATTICE), label="algebra")
    L = _off_lattice(name, scales)
    L = _permuted(L, data.draw(st.permutations(range(L.dim)), label="order"))
    weights, exact = _torus_weights(L), _fraction_weights(L)
    assert all(type(x) is int for w in weights for x in w)
    # coordinate r is the eigenvalue column r times one positive scale
    for r in range(len(exact[0])):
        ratios = {F(w[r]) / e[r] for w, e in zip(weights, exact) if e[r]}
        assert len(ratios) == 1 and min(ratios) > 0
        assert all(bool(w[r]) == bool(e[r]) for w, e in zip(weights, exact))
    for k in range(4):
        want = _weight_zero_walk(exact, k)
        assert _weight_zero_tuples(weights, k) == want
        assert _weight_zero_tuples(exact, k) == want


# --- integer cochains off the integer lattice -------------------------------
#
# Cocycle2 and OneCochain hold integer m-tuples over one denominator in
# lowest terms, and coboundary, cocycle_defect, the sums, restriction,
# gluing, the witness and the twist work on those integers against the
# algebras' integer tables.  On rescaled bases the structure constants
# and the cochain values have denominators 2, 3 and 5.

def _rescaled_comm(A, scales):
    """A on the basis s_i b_i, with its unit and idempotents in that basis."""
    entries = [(i, j, k, scales[i] * scales[j] / scales[k] * c) for i, j, k, c in A.entries()]
    unit = [x / s for x, s in zip(A.unit, scales)]
    idempotents = [(label, [x / s for x, s in zip(e, scales)]) for label, e in A.idempotents]
    return CommAlgebra(A.labels, entries, unit, idempotents)


def _off_lattice_current():
    """sl2 (x) fun:2*sq2 on rescaled bases of both factors."""
    g = _rescaled(lie_catalog("sl2"), (F(1, 2), F(1), F(1, 3)))
    A = _rescaled_comm(comm_catalog("fun:2*sq2"),
                       (F(1, 2), F(3), F(2, 5), F(1, 3), F(1), F(1, 2), F(5, 3), F(2)))
    return g, A, current_algebra(g, A)


def _fraction_value(rng):
    return F(rng.randint(-3, 3), rng.choice((1, 2, 3, 5)))


def _random_one_cochain(L, m, rng):
    return OneCochain(L, m, [tuple(_fraction_value(rng) for _ in range(m))
                             for _ in range(L.dim)])


def _combined(a, b, sign, m):
    """The value table of a + sign * b, from two {pair: m-tuple} tables."""
    out = {}
    zero = (F(0),) * m
    for pair in a.keys() | b.keys():
        value = tuple(x + sign * y for x, y in zip(a.get(pair, zero), b.get(pair, zero)))
        if any(value):
            out[pair] = value
    return out


def _same_integers(a, b):
    return a == b and a._num == b._num and a._den == b._den


@pytest.mark.parametrize("name, scales", OFF_LATTICE, ids=OFF_LATTICE_IDS)
@pytest.mark.parametrize("m", [1, 3])
def test_cochain_arithmetic_off_the_integer_lattice(name, scales, m):
    from oracles import coboundary_reference, cocycle_defect_reference

    L = _off_lattice(name, scales)
    rng = random.Random(f"integer cochains {name} {m}")
    pairs = list(combinations(range(L.dim), 2))
    for _ in range(3):
        beta = _random_one_cochain(L, m, rng)
        psi = beta.coboundary()
        assert psi.values == coboundary_reference(beta)
        assert psi.cocycle_defect() is None and cocycle_defect_reference(psi) is None
        other = Cocycle2(L, m, {pair: tuple(_fraction_value(rng) for _ in range(m))
                                for pair in rng.sample(pairs, min(3, len(pairs)))})
        for sign, got in ((1, psi + other), (-1, psi - other)):
            assert got.values == _combined(psi.values, other.values, sign, m)
            assert got.cocycle_defect() == cocycle_defect_reference(got)
        assert _same_integers((psi + other) - other, psi)
        assert _same_integers(psi - psi, Cocycle2.zero(L, m))


@pytest.mark.parametrize("name, scales", OFF_LATTICE, ids=OFF_LATTICE_IDS)
def test_witness_off_the_integer_lattice(name, scales):
    # exact cocycles with denominators, and the same plus each H^2
    # representative, against one solve per slot
    L = _off_lattice(name, scales)
    rng = random.Random(f"integer witness {name}")
    for m in (1, 2):
        psi = _random_one_cochain(L, m, rng).coboundary()
        assert psi._den > 1
        witness = _assert_witness_matches_reference(psi)
        assert witness.is_exact and witness.beta.coboundary() == psi
        for rep in cohomology(L, 2, m).representative_cocycles():
            assert not _assert_witness_matches_reference(psi + rep).is_exact


@pytest.mark.parametrize("a", [-1, 2, 5])
def test_cocycle_slot_refuses_an_out_of_range_slot(a):
    # slot(-1) used to return the last slot
    L = lie_catalog("sl2")
    psi = OneCochain(L, 2, [(F(1), F(0)), (F(0), F(2)), (F(3), F(-1))]).coboundary()
    assert psi.slot(1) == {pair: value[1] for pair, value in psi.values.items() if value[1]}
    with pytest.raises(IndexError):
        psi.slot(a)


def test_cochains_of_other_coefficient_dimensions_differ():
    # on abelian:0 both zero cochains store no integers at all, so only
    # the coefficient dimension tells them apart
    L = lie_catalog("abelian:0")
    assert OneCochain.zero(L, 1) != OneCochain.zero(L, 2)
    assert Cocycle2.zero(L, 1) != Cocycle2.zero(L, 2)
    assert OneCochain.zero(L, 2) == OneCochain(L, 2, [])
    assert Cocycle2.zero(L, 2) == Cocycle2(L, 2, {})
    # a 1-cochain and a 2-cochain are never equal
    assert OneCochain.zero(L, 1) != Cocycle2.zero(L, 1)


def test_a_repeated_cocycle_key_is_refused():
    # the later value used to win silently
    L = lie_catalog("heis3")
    with pytest.raises(ValueError, match=r"duplicate cocycle table key \(0, 1\)"):
        Cocycle2(L, 1, [((0, 1), (1,)), ((0, 1), (2,))])
    with pytest.raises(ValueError, match=r"duplicate cocycle table key \(0, 2\)"):
        Cocycle2(L, 1, [((0, 2), (0,)), ((1, 2), (1,)), ((0, 2), (0,))])


def test_two_routes_to_one_cochain_store_the_same_integers():
    L = _off_lattice(*OFF_LATTICE[1])
    half = Cocycle2(L, 1, {(0, 1): (F(1, 2),)})
    assert (half._num, half._den) == ({(0, 1): (1,)}, 2)
    # 1/2 + 1/2 is stored as 1 over 1, not 2 over 2
    assert _same_integers(half + half, Cocycle2(L, 1, {(0, 1): (1,)}))
    assert _same_integers(-(-half), half)
    rng = random.Random("two routes")
    beta = _random_one_cochain(L, 2, rng)
    assert _same_integers(OneCochain(L, 2, beta.values), beta)
    psi = beta.coboundary()
    assert _same_integers(Cocycle2(L, 2, psi.values), psi)
    assert _same_integers(Cocycle2(L, 2, [((i, j), value) for i, j, value in psi.entries()]), psi)
    # the primitive found by the witness has the same coboundary, stored alike
    assert _same_integers(coboundary_witness(psi).beta.coboundary(), psi)


def test_accessors_of_integer_cochains_return_fractions():
    def fractions(values):
        values = list(values)
        return values and all(type(x) is Fraction for x in values)

    L = _off_lattice(*OFF_LATTICE[1])
    rng = random.Random("accessors")
    for beta in (_random_one_cochain(L, 2, rng), OneCochain(L, 2, [(1, 0)] * L.dim)):
        psi = beta.coboundary()
        assert fractions(x for value in beta.values for x in value)
        assert fractions(beta.apply([F(1, 2)] + [0] * (L.dim - 1)))
        assert fractions(x for value in psi.values.values() for x in value)
        (i, j), _ = next(iter(psi.values.items()))
        assert fractions(psi.value(i, j) + psi.value(j, i) + psi.value(i, i))
        assert psi.value(j, i) == tuple(-x for x in psi.value(i, j))
        assert fractions(psi.slot(0).values())
        assert fractions(x for _, _, value in psi.entries() for x in value)
        u = [F(k + 1, 2) for k in range(L.dim)]
        v = [F(1, k + 1) for k in range(L.dim)]
        assert fractions(psi.apply(u, v))
    bad = Cocycle2(L, 1, {(0, 2): (F(1, 5),)})
    with pytest.raises(NotACocycleError) as err:
        coboundary_witness(bad)
    assert fractions(err.value.defect)


def test_restriction_and_gluing_off_the_integer_lattice():
    from oracles import (
        glue_primitives_reference,
        restrict_class_reference,
        restrict_cochain_reference,
    )

    g, A, ca = _off_lattice_current()
    ss = SupportStructure(ca)
    cover = Cover(ss, [("1",), ("1", "2")])
    rng = random.Random("integer locality")
    for m in (1, 2):
        beta = _random_one_cochain(ca.total, m, rng)
        psi = beta.coboundary()
        assert psi._den > 1
        primitives = []
        for subset in cover.subsets:
            corner = ss.corner(subset)
            local = restrict_class(psi, ss, subset)
            assert _same_integers(local, restrict_class_reference(psi, ss, corner))
            assert _same_integers(restrict_cochain(beta, ss, subset),
                                  restrict_cochain_reference(beta, ss, corner))
            witness = _assert_witness_matches_reference(local)
            primitives.append(witness.beta)
        glued = glue_primitives(psi, cover, primitives)
        assert _same_integers(glued, glue_primitives_reference(cover, primitives))
        assert glued.coboundary() == psi
        # a primitive off by 1/3 at one basis element is refused, with its
        # defect as Fractions
        spoiled = [list(value) for value in primitives[0].values]
        spoiled[0][0] += F(1, 3)
        bad = OneCochain(primitives[0].parent, m, spoiled)
        with pytest.raises(BadPrimitiveError) as err:
            glue_primitives(psi, cover, [bad] + primitives[1:])
        assert all(type(x) is Fraction for x in err.value.defect)
    # restricting keeps only the corner's pairs and their denominators
    one = [fi for fi in range(ca.dim) if ss.point_of_basis[ca.unflat(fi)[1]] == "1"]
    two = [fi for fi in range(ca.dim) if ss.point_of_basis[ca.unflat(fi)[1]] == "2"]
    psi = Cocycle2(ca.total, 1, {(one[0], one[1]): (F(1, 2),), (two[0], two[1]): (F(1, 3),)})
    assert psi._den == 6
    assert restrict_class(psi, ss, ["1"])._den == 2


def test_twist_difference_off_the_integer_lattice():
    from oracles import twist_difference_reference

    g, A, _ = _off_lattice_current()
    uc = universal_cocycle(g, A)
    ca = uc.current
    m = uc.coeff_dim
    # omega itself, read off its formula with Fraction products
    table = {}
    for fi, fj in combinations(range(ca.dim), 2):
        (i, p), (j, q) = ca.unflat(fi), ca.unflat(fj)
        kap, bar = uc.forms.kappa_basis(i, j), uc.kaehler.bar_pair(p, q)
        table[(fi, fj)] = tuple(k * b for k in kap for b in bar)
    assert _same_integers(uc.cocycle, Cocycle2(ca.total, m, table))
    assert uc.cocycle._den > 1
    rng = random.Random("integer twist")
    entries = {(i, t): _fraction_value(rng)
               for i in range(g.dim) for t in range(uc.kaehler.dim_omega1)}
    xi = GValuedOneForm(g.dim, uc.kaehler.dim_omega1, entries)
    result = twist_difference(g, A, xi, uc=uc)
    assert result.tau == result.beta.coboundary()
    assert result.tau._den > 1 and not result.tau.is_zero()
    tau, beta = twist_difference_reference(g, A, xi, uc)
    assert result.tau.values == tau
    assert result.beta.values == beta
    assert _assert_witness_matches_reference(result.tau).is_exact
