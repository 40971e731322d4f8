import random
from fractions import Fraction
from itertools import combinations

import pytest

from currentext.catalog import comm_catalog, lie_catalog
from currentext.cohomology import Cocycle2, OneCochain, ce_differential, coboundary_witness
from currentext.current import CommAlgebra, current_algebra, universal_cocycle
from currentext.errors import (
    BadPrimitiveError,
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NotDiagonalError,
)
from currentext.linalg import SparseMatrix, kernel_basis, rank
from currentext.locality import (
    Corner,
    Cover,
    OneFormLocality,
    SupportStructure,
    glue_primitives,
    is_diagonal,
    restrict_class,
    restrict_cochain,
    support_of,
)

from oracles import (
    basis_vectors,
    corner_entries_reference,
    decompose_class_reference,
    dense_matrix,
    glue_primitives_reference,
    injection_matrix_reference,
    restrict_class_reference,
    reparsed,
    restrict_cochain_reference,
    tuple_cochain,
)

F = Fraction


def _setup(gname="sl2", aname="fun:3"):
    g = lie_catalog(gname)
    A = comm_catalog(aname)
    ca = current_algebra(g, A)
    return g, A, ca, SupportStructure(ca)


def test_support_of_basis_elements():
    g, A, ca, ss = _setup()
    u = ca.tensor(g.basis_element(0).coords, (1, 0, 0))
    assert support_of(u, ss) == frozenset({"1"})
    assert support_of([0] * ca.dim, ss) == frozenset()
    both = ca.tensor(g.basis_element(0).coords, (1, 1, 0))
    assert support_of(both, ss) == frozenset({"1", "2"})


def test_support_of_reads_string_coordinates_as_rationals():
    # "0" is truthy as a string; as a coordinate it is zero
    g, A, ca, ss = _setup("sl2", "fun:2")
    assert ss.support_of(["0"] * ca.dim) == frozenset()
    u = ["0"] * ca.dim
    u[ca.flat(1, 1)] = "1/2"
    assert ss.support_of(u) == frozenset({"2"})


def test_disjoint_supports_bracket_to_zero():
    g, A, ca, ss = _setup()
    u = ca.tensor(g.basis_element(0).coords, (1, 1, 0))
    v = ca.tensor(g.basis_element(1).coords, (0, 0, 1))
    assert not (support_of(u, ss) & support_of(v, ss))
    assert not any(ca.total.bracket(u, v))


def test_support_subadditivity():
    g, A, ca, ss = _setup()
    rng = random.Random(4)
    for _ in range(10):
        u = [F(rng.randint(-2, 2)) for _ in range(ca.dim)]
        v = [F(rng.randint(-2, 2)) for _ in range(ca.dim)]
        total = [a + b for a, b in zip(u, v)]
        assert support_of(total, ss) <= support_of(u, ss) | support_of(v, ss)
        bracket = ca.total.bracket(u, v)
        assert support_of(bracket, ss) <= support_of(u, ss) & support_of(v, ss)


def _permuted_points(A, seed):
    """A on a seeded shuffle of its basis, idempotents included, so that
    the basis vectors of the points interleave."""
    order = list(range(A.dim))
    random.Random(seed).shuffle(order)
    new = {old: r for r, old in enumerate(order)}

    def perm(v):
        return [v[old] for old in order]

    return CommAlgebra(
        [A.labels[old] for old in order],
        [(new[i], new[j], new[k], c) for i, j, k, c in A.entries()],
        perm(A.unit),
        [(label, perm(e)) for label, e in A.idempotents],
    )


@pytest.mark.parametrize("aname", ["fun:3", "fun:2*sq2", "fun:3*jets:2", "fun:4*jets:2"])
@pytest.mark.parametrize("basis", ["catalog", "permuted"])
def test_idempotent_fixes_or_kills_each_basis_vector(aname, basis):
    # the invariant behind restriction and gluing by index maps:
    # e_s b_p = b_p when b_p sits over s, and 0 otherwise
    A = comm_catalog(aname)
    if basis == "permuted":
        A = _permuted_points(A, aname)
    ss = SupportStructure(current_algebra(lie_catalog("sl2"), A))
    for s in ss.points:
        e = ss.idempotent(s)
        for p in range(A.dim):
            b = A.basis_vector(p)
            expected = b if ss.point_of_basis[p] == s else (F(0),) * A.dim
            assert A.product(e, b) == expected


def test_cocycle_space_basis_is_diagonal():
    # the Lemma at desk scale: every cocycle on a perfect-fibre current
    # algebra is diagonal, checked on a full basis of Z^2
    for aname in ("fun:3", "fun:2*jets:2"):
        g, A, ca, ss = _setup("sl2", aname)
        from currentext.cohomology import ce_differential

        z2 = kernel_basis(ce_differential(ca.total, 2))
        assert z2.dim > 0
        for vec in basis_vectors(z2):
            psi = Cocycle2(ca.total, 1, tuple_cochain(vec, ca.dim, 2, 1))
            assert is_diagonal(psi, ss).ok


def test_universal_cocycle_is_diagonal():
    from currentext.current import universal_cocycle

    g = lie_catalog("sl2")
    A = comm_catalog("fun:2*sq2")
    uc = universal_cocycle(g, A)
    ss = SupportStructure(uc.current)
    assert is_diagonal(uc.cocycle, ss).ok


def test_ad_hoc_bilinear_map_is_not_diagonal():
    g, A, ca, ss = _setup()
    bad = Cocycle2(ca.total, 1, {(ca.flat(0, 0), ca.flat(2, 1)): (F(1),)})
    report = is_diagonal(bad, ss)
    assert not report.ok
    assert report.counterexample == (ca.flat(0, 0), ca.flat(2, 1))


def test_counterexample_is_the_first_failing_pair_in_flat_order():
    # the pairs are stored in a shuffled order, so the report must pick
    # the least failing pair, not the first one it meets
    g, A, ca, ss = _setup("sl2", "fun:2*sq2")
    rng = random.Random(11)
    point = [ss.point_of_basis[ca.unflat(i)[1]] for i in range(ca.dim)]
    pairs = list(combinations(range(ca.dim), 2))
    cross = [pair for pair in pairs if point[pair[0]] != point[pair[1]]]
    chosen = rng.sample(cross, 6) + rng.sample([p for p in pairs if p not in cross], 6)
    rng.shuffle(chosen)
    bad = Cocycle2(ca.total, 1, {pair: (F(rng.randint(1, 3)),) for pair in chosen})
    report = is_diagonal(bad, ss)
    assert not report.ok
    assert report.counterexample == min(pair for pair in chosen if pair in cross)
    assert is_diagonal(Cocycle2(ca.total, 1, {p: (F(1),) for p in chosen if p not in cross}), ss).ok


def test_restrict_full_set_is_identity():
    g, A, ca, ss = _setup()
    rng = random.Random(8)
    beta = OneCochain(ca.total, 1, [(F(rng.randint(-3, 3)),) for _ in range(ca.dim)])
    psi = beta.coboundary()
    restricted = restrict_class(psi, ss, ("1", "2", "3"))
    assert restricted.values == psi.values


def test_restrict_commutes_with_coboundary():
    g, A, ca, ss = _setup("sl2", "fun:3*jets:2")
    rng = random.Random(13)
    beta = OneCochain(ca.total, 1, [(F(rng.randint(-3, 3)),) for _ in range(ca.dim)])
    corner = Corner(ss, ("1", "3"))
    lhs = restrict_class(beta.coboundary(), ss, corner)
    rhs = restrict_cochain(beta, ss, corner).coboundary()
    assert lhs == rhs


def test_cover_partition_invariants():
    g, A, ca, ss = _setup("sl2", "fun:4*jets:2")
    cover = Cover(ss, [("1", "2"), ("2", "3"), ("3", "4")])
    assert cover.parts == (("1", "2"), ("3",), ("4",))
    total = [F(0)] * A.dim
    for lam in cover.lambdas:
        total = [a + b for a, b in zip(total, lam)]
    assert tuple(total) == A.unit
    for lam, comp in zip(cover.lambdas, cover.companions):
        assert A.product(lam, comp) == lam
        assert A.product(lam, lam) == lam  # idempotent-valued partition


def test_cover_must_reach_every_point():
    g, A, ca, ss = _setup()
    with pytest.raises(InputError):
        Cover(ss, [("1", "2")])


def test_glue_round_trip():
    g, A, ca, ss = _setup("sl2", "fun:3*jets:2")
    cover = Cover(ss, [("1", "2"), ("2", "3")])
    rng = random.Random(21)
    beta0 = OneCochain(ca.total, 1, [(F(rng.randint(-3, 3)),) for _ in range(ca.dim)])
    psi = beta0.coboundary()
    primitives = []
    for subset in cover.subsets:
        witness = coboundary_witness(restrict_class(psi, ss, subset))
        assert witness.is_exact
        primitives.append(witness.beta)
    beta = glue_primitives(psi, cover, primitives)
    assert beta.coboundary() == psi


def test_glue_zero():
    g, A, ca, ss = _setup()
    cover = Cover(ss, [("1", "2"), ("3",)])
    zero = Cocycle2.zero(ca.total, 1)
    corners = cover.corners()
    primitives = [OneCochain.zero(c.current.total, 1) for c in corners]
    beta = glue_primitives(zero, cover, primitives)
    assert not any(any(v) for v in beta.values)


def test_glue_rejects_bad_primitive():
    g, A, ca, ss = _setup("sl2", "fun:3")
    cover = Cover(ss, [("1", "2"), ("2", "3")])
    rng = random.Random(3)
    beta0 = OneCochain(ca.total, 1, [(F(rng.randint(-3, 3)),) for _ in range(ca.dim)])
    psi = beta0.coboundary()
    primitives = []
    for subset in cover.subsets:
        witness = coboundary_witness(restrict_class(psi, ss, subset))
        primitives.append(witness.beta)
    spoiled = [list(v) for v in primitives[1].values]
    spoiled[0] = (spoiled[0][0] + 1,)
    primitives[1] = OneCochain(primitives[1].parent, 1, [tuple(v) for v in spoiled])
    with pytest.raises(BadPrimitiveError) as info:
        glue_primitives(psi, cover, primitives)
    assert info.value.index == 1


def test_glue_rejects_non_diagonal():
    g, A, ca, ss = _setup()
    cover = Cover(ss, [("1", "2"), ("3",)])
    bad = Cocycle2(ca.total, 1, {(ca.flat(0, 0), ca.flat(2, 2)): (F(1),)})
    corners = cover.corners()
    primitives = [OneCochain.zero(c.current.total, 1) for c in corners]
    with pytest.raises(NotDiagonalError):
        glue_primitives(bad, cover, primitives)


def test_local_identity_axiom():
    """A cocycle whose restrictions are all exact is globally exact,
    constructively: glue the local witnesses."""
    g = lie_catalog("sl2")
    A = comm_catalog("fun:2*jets:2")
    ca = current_algebra(g, A)
    ss = SupportStructure(ca)
    cover = Cover(ss, [("1",), ("2",)])
    from currentext.cohomology import ce_differential

    z2 = kernel_basis(ce_differential(ca.total, 2))
    rng = random.Random(17)
    combo = [F(rng.randint(-2, 2)) for _ in range(z2.dim)]
    flat = [F(0)] * (ca.dim * (ca.dim - 1) // 2)
    for c, vec in zip(combo, basis_vectors(z2)):
        for t, x in enumerate(vec):
            flat[t] += c * x
    psi = Cocycle2(ca.total, 1, tuple_cochain(flat, ca.dim, 2, 1))
    primitives = []
    for subset in cover.subsets:
        witness = coboundary_witness(restrict_class(psi, ss, subset))
        assert witness.is_exact  # H^2 of the corner current algebra is 0
        primitives.append(witness.beta)
    beta = glue_primitives(psi, cover, primitives)
    assert beta.coboundary() == psi  # hence [psi] = 0 globally


def test_restriction_of_nontrivial_class_is_not_exact():
    # over fun:2*sq2 the corner over one point is sl2 (x) sq2 with H^2 = 1;
    # restriction of the universal cocycle stays cohomologically nontrivial,
    # so honest local primitives cannot exist
    from currentext.current import universal_cocycle

    g = lie_catalog("sl2")
    A = comm_catalog("fun:2*sq2")
    uc = universal_cocycle(g, A)
    ss = SupportStructure(uc.current)
    component = Cocycle2(
        uc.current.total, 1,
        {key: (value[0],) for key, value in uc.cocycle.values.items() if value[0]},
    )
    witness = coboundary_witness(restrict_class(component, ss, ("1",)))
    assert not witness.is_exact
    assert any(witness.class_coordinates)


def test_extend_form_identity_and_composition():
    g = lie_catalog("sl2")
    A = comm_catalog("fun:3*sq2")
    ca = current_algebra(g, A)
    ss = SupportStructure(ca)
    loc = OneFormLocality(ss)
    w = (F(2), F(-3))
    V = ("1", "2")
    assert loc.extend_class(w, V, V) == w
    # iota_{U,V} o iota_{V,W} = iota_{U,W}
    W = ("1",)
    w0 = (F(5),)
    one_step = loc.extend_class(w0, W, ("1", "2", "3"))
    two_step = loc.extend_class(loc.extend_class(w0, W, V), V, ("1", "2", "3"))
    assert one_step == two_step


def test_cosheaf_statement_1_rank_and_decomposition():
    g = lie_catalog("sl2")
    A = comm_catalog("fun:3*sq2")
    ss = SupportStructure(current_algebra(g, A))
    loc = OneFormLocality(ss)
    V, W, U = ("1", "2"), ("2", "3"), ("1", "2", "3")
    m_v = loc.injection_matrix(V, U)
    m_w = loc.injection_matrix(W, U)
    stacked = {}
    for r, c, x in m_v.triplets():
        stacked[(r, c)] = x
    for r, c, x in m_w.triplets():
        stacked[(r, c + m_v.cols)] = x
    dim_u = loc.kaehler(U).dim_omega1bar
    assert rank(SparseMatrix(dim_u, m_v.cols + m_w.cols, stacked)) == dim_u
    w_bar = (F(1), F(4), F(-2))
    w_v, w_w = loc.decompose_class(w_bar, V, W)
    recombined = tuple(
        a + b
        for a, b in zip(loc.extend_class(w_v, V, U), loc.extend_class(w_w, W, U))
    )
    assert recombined == w_bar


def test_cosheaf_statement_2_common_class():
    g = lie_catalog("sl2")
    A = comm_catalog("fun:3*sq2")
    ss = SupportStructure(current_algebra(g, A))
    loc = OneFormLocality(ss)
    V, W = ("1", "2"), ("2", "3")
    w0 = (F(7),)  # class on the intersection {2}
    w_v = loc.extend_class(w0, ("2",), V)
    w_w = loc.extend_class(w0, ("2",), W)
    found = loc.common_class(w_v, w_w, V, W)
    assert found == w0


def _permuted_with_points(A, order):
    """A on the basis order[0], order[1], ..., its idempotents included."""
    new = {old: r for r, old in enumerate(order)}
    entries = [(new[i], new[j], new[k], c) for i, j, k, c in A.entries()]
    return CommAlgebra(
        [A.labels[old] for old in order], entries, [A.unit[old] for old in order],
        [(label, [e[old] for old in order]) for label, e in A.idempotents],
    )


@pytest.mark.parametrize("basis", ["catalog", "permuted"])
@pytest.mark.parametrize("name", ["fun:3*sq2", "fun:3*jets:2", "fun:2*sq2*jets:2"])
def test_injection_matrix_matches_the_dense_reference(name, basis):
    # every corner into every corner containing it, on Omega1bar and Omega1;
    # every corner pair's decomposition of a seeded class on the union, and
    # the common class of a seeded class's extensions from the intersection
    A = comm_catalog(name)
    if basis == "permuted":
        order = list(range(A.dim))
        random.Random(f"{name}/inject").shuffle(order)
        A = _permuted_with_points(A, order)
    loc = OneFormLocality(SupportStructure(current_algebra(lie_catalog("sl2"), A)))
    points = loc.structure.points
    subsets = [s for k in range(1, len(points) + 1) for s in combinations(points, k)]
    for small in subsets:
        for large in subsets:
            if set(small) <= set(large):
                for bar in (True, False):
                    got = dense_matrix(loc.injection_matrix(small, large, bar=bar))
                    assert got == injection_matrix_reference(loc, small, large, bar)
    rng = random.Random(f"{name}/{basis}/classes")

    def seeded_class(subset):
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(loc.kaehler(subset).dim_omega1bar))

    def extended(w, small, large):
        matrix = injection_matrix_reference(loc, small, large, True)
        return tuple(sum(x * y for x, y in zip(row, w)) for row in matrix)

    for left in subsets:
        for right in subsets:
            union = tuple(s for s in points if s in set(left) | set(right))
            w_bar = seeded_class(union)
            got = loc.decompose_class(w_bar, left, right)
            assert got == decompose_class_reference(loc, w_bar, left, right)
            inter = tuple(s for s in left if s in right)
            if inter:
                w0 = seeded_class(inter)
                w_left, w_right = extended(w0, inter, left), extended(w0, inter, right)
                assert loc.common_class(w_left, w_right, left, right) == w0
    with pytest.raises(DimensionMismatchError):
        loc.inject_form((F(1),) * (loc.kaehler(points[:1]).dim_omega1 + 1), points[:1], points)


def test_common_class_rejects_disagreeing_extensions():
    g = lie_catalog("sl2")
    A = comm_catalog("fun:2*sq2")
    ss = SupportStructure(current_algebra(g, A))
    loc = OneFormLocality(ss)
    with pytest.raises(InputError):
        loc.common_class((F(1),), (F(0),), ("1",), ("2",))


def test_corner_requires_point_homogeneous_basis():
    from currentext.current import CommAlgebra, CurrentAlgebra

    # basis vector e1 + e2 is spread over both points
    A = CommAlgebra(
        ("u", "v"),
        [(0, 0, 0, 1), (1, 1, 1, 1)],
        unit=None,
        idempotents=None,
    )
    # direct support structure construction must fail without idempotents
    ca = CurrentAlgebra(lie_catalog("sl2"), A)
    with pytest.raises(InputError):
        SupportStructure(ca)


@pytest.mark.parametrize("aname", ["fun:3*sq2", "fun:2*sq2", "fun:3*jets:2", "fun:6*sq2"])
def test_corner_table_matches_the_former_loop(aname):
    g, A, ca, ss = _setup("sl2", aname)
    for size in range(1, len(ss.points) + 1):
        for names in combinations(ss.points, size):
            corner = ss.corner(names)
            assert corner.algebra.entries() == corner_entries_reference(A, corner.indices)
            assert corner.algebra.labels == tuple(A.labels[p] for p in corner.indices)
            assert corner.algebra.unit == tuple(ss.indicator(names)[p] for p in corner.indices)
            assert corner.algebra.points == names


def test_corner_tables_are_the_parsed_ones():
    g, A, ca, ss = _setup("sl2", "fun:3*sq2")
    for size in range(1, len(ss.points) + 1):
        for names in combinations(ss.points, size):
            corner = Corner(ss, names).algebra
            parsed = reparsed(corner)
            assert corner.labels == parsed.labels
            assert corner._integer_table == parsed._integer_table
            assert list(corner._integer_table[1]) == list(parsed._integer_table[1])
            assert corner._mirror_defects == parsed._mirror_defects == []
            assert (corner.unit, corner.idempotents) == (parsed.unit, parsed.idempotents)


def test_corner_product_leaving_the_corner_is_an_internal_error():
    # jets:3 over point 1 with its t^2 moved to point 2 by hand: t t = t^2
    # leaves the corner {1} = (1, t)
    g, A, ca, ss = _setup("sl2", "fun:2*jets:3")
    ss.point_of_basis = ("1", "1", "2", "2", "2", "2")
    with pytest.raises(InternalConsistencyError, match="corner product left the corner span"):
        Corner(ss, ("1",))


def test_restriction_rejects_cochains_of_another_algebra():
    g = lie_catalog("sl2")
    small = current_algebra(g, comm_catalog("fun:2"))
    ss = SupportStructure(current_algebra(g, comm_catalog("fun:3")))
    rng = random.Random(2)
    beta = OneCochain(small.total, 1, [(F(rng.randint(-3, 3)),) for _ in range(small.dim)])
    psi = beta.coboundary()
    assert psi.values
    with pytest.raises(InputError):
        restrict_class(psi, ss, ("1",))
    with pytest.raises(InputError):
        restrict_cochain(beta, ss, ("1",))
    # a corner of another support structure is refused as well
    foreign = Corner(SupportStructure(small), ("1",))
    big_beta = OneCochain.zero(ss.current.total, 1)
    with pytest.raises(InputError):
        restrict_class(big_beta.coboundary(), ss, foreign)
    with pytest.raises(InputError):
        restrict_cochain(big_beta, ss, foreign)


# (fibre, coefficients, basis, cover): gl2 is not perfect, so its local
# primitives are unique only up to 1-cocycles and disagree on overlaps
ORACLE_CASES = [
    ("sl2", "fun:3*jets:2", "catalog", [("1", "2"), ("2", "3")]),
    ("gl2", "fun:3*jets:2", "permuted", [("1", "2"), ("2", "3")]),
    ("gl2", "fun:3*jets:2", "catalog", [("1",), ("2",), ("3",)]),
    ("sl2", "fun:4*jets:2", "permuted", [("1", "2"), ("2", "3"), ("3", "4")]),
    ("gl2", "fun:4*jets:2", "permuted", [("1", "2", "3", "4"), ("4", "1"), ("2",)]),
    ("sl2", "fun:6*sq2", "catalog", [("1", "2", "3"), ("3", "4"), ("5",), ("6", "1", "5")]),
    ("sl2", "fun:6*sq2", "permuted", [("6",), ("1", "2", "3", "4", "5")]),
]


def _oracle_structure(gname, aname, basis):
    A = comm_catalog(aname)
    if basis == "permuted":
        A = _permuted_points(A, f"{gname}/{aname}")
    ss = SupportStructure(current_algebra(lie_catalog(gname), A))
    if basis == "permuted":
        # the basis vectors of some point are not contiguous
        spans = [Corner(ss, (s,)).indices for s in ss.points]
        assert any(ix[-1] - ix[0] + 1 != len(ix) for ix in spans)
    return ss


def _subsets(ss, cover):
    return list(cover) + [(s,) for s in ss.points] + [ss.points]


def _random_cochain(ss, m, rng):
    return OneCochain(
        ss.current.total, m,
        [tuple(F(rng.randint(-3, 3)) for _ in range(m)) for _ in range(ss.current.dim)],
    )


def _assert_same_cocycle(new, ref):
    assert new.values == ref.values
    assert new.entries() == ref.entries()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{len(c[3])}")
def test_restriction_matches_the_extension_by_zero_reference(case, m):
    gname, aname, basis, cover = case
    ss = _oracle_structure(gname, aname, basis)
    rng = random.Random(f"{case}/{m}")
    beta = _random_cochain(ss, m, rng)
    psi = beta.coboundary()
    # restriction is defined on every alternating form; a random one
    # also has pairs across points, which a coboundary never has
    n = ss.current.dim
    pairs = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], 4 * n)
    noise = Cocycle2(psi.parent, m, {
        pair: tuple(F(rng.randint(-3, 3)) for _ in range(m)) for pair in pairs
    })
    assert not is_diagonal(noise, ss).ok
    for names in _subsets(ss, cover):
        fresh = Corner(ss, names)
        ref_cochain = restrict_cochain_reference(beta, ss, fresh)
        for form in (psi, noise):
            ref_class = restrict_class_reference(form, ss, fresh)
            for subset in (names, Corner(ss, names)):
                _assert_same_cocycle(restrict_class(form, ss, subset), ref_class)
        for subset in (names, Corner(ss, names)):
            assert restrict_cochain(beta, ss, subset).values == ref_cochain.values


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{len(c[3])}")
def test_glue_matches_the_partition_of_unity_reference(case, m):
    gname, aname, basis, cover_sets = case
    ss = _oracle_structure(gname, aname, basis)
    cover = Cover(ss, cover_sets)
    rng = random.Random(f"{case}/{m}/glue")
    beta0 = _random_cochain(ss, m, rng)
    psi = beta0.coboundary()
    primitives = []
    for names in cover.subsets:
        fresh = Corner(ss, names)
        local = restrict_cochain_reference(beta0, ss, fresh)
        # add a random 1-cocycle of the corner, slot by slot
        z1 = basis_vectors(kernel_basis(ce_differential(fresh.current.total, 1)))
        values = [list(v) for v in local.values]
        for a in range(m):
            for vec in z1:
                c = F(rng.randint(-2, 2))
                for idx, x in enumerate(vec):
                    values[idx][a] += c * x
        primitives.append(OneCochain(fresh.current.total, m, values))
    glued = glue_primitives(psi, cover, primitives)
    assert glued.values == glue_primitives_reference(cover, primitives).values
    if gname == "gl2" and len(cover_sets) > 1:
        assert glued.values != beta0.values  # the primitives carried 1-cocycles


def test_universal_cocycle_restriction_matches_reference():
    g = lie_catalog("sl2")
    A = comm_catalog("fun:3*sq2")
    uc = universal_cocycle(g, A)
    ss = SupportStructure(uc.current)
    psi = uc.cocycle
    assert psi.coeff_dim == 3
    slices = [psi] + [
        Cocycle2(psi.parent, len(slots),
                 {key: tuple(value[a] for a in slots) for key, value in psi.values.items()})
        for slots in ((0,), (1, 2))
    ]
    for component in slices:
        nonzero = 0
        for names in _subsets(ss, [("1", "2"), ("2", "3")]):
            ref = restrict_class_reference(component, ss, Corner(ss, names))
            nonzero += bool(ref.values)
            for subset in (names, Corner(ss, names)):
                _assert_same_cocycle(restrict_class(component, ss, subset), ref)
        assert nonzero > 1
