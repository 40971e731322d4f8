import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from currentext import lie as lie_module
from currentext.catalog import comm_catalog, lie_catalog
from currentext.cli import EXIT_INTERNAL, run_command
from currentext.current import CommAlgebra, current_algebra
from currentext.errors import (
    CatalogError,
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NotInDerivedAlgebraError,
)
from currentext.invariants import BilinearForm, v_space_and_kappa
from currentext.lie import (
    LieAlgebra,
    _gl,
    _StructureTable,
    derivations,
    derived_subalgebra,
    direct_sum,
    is_perfect,
    killing_form,
    lie_from_matrices,
    perfect_witness,
    realify,
    validate_lie,
)

from oracles import (
    antisymmetry_violations_reference,
    comm_table_reference,
    commutativity_violations_reference,
    corner_entries_reference,
    dense_nullity,
    dense_solve,
    derived_subalgebra_reference,
    entries_on_reference,
    derivations_reference,
    invariance_defect_reference,
    jacobi_violations_reference,
    killing_form_reference,
    lie_from_matrices_reference,
    lie_table_reference,
    on_dense_basis,
    perfect_witness_reference,
    reparsed,
    v_space_and_kappa_reference,
)

F = Fraction

CATALOG = ["sl2", "sl3", "so3", "heis3", "abelian:3", "sl2C", "gl2", "sl2+so3"]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_algebras_are_valid(name):
    assert validate_lie(lie_catalog(name)).ok


def test_antisymmetry_violation_reported():
    L = LieAlgebra(("a", "b"), [(0, 1, 0, 1), (1, 0, 0, 1)])
    report = validate_lie(L)
    assert not report.ok
    assert report.antisymmetry_violations == [(0, 1, 0, F(2))]


def test_jacobi_violation_reported():
    # [x,y] = z, [y,z] = x, [x,z] = x: the Jacobi sum on (x,y,z) is
    # [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 + 0 + [-x, y] = -z
    L = LieAlgebra(("x", "y", "z"), [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 0, 1)])
    report = validate_lie(L)
    assert report.antisymmetry_violations == []
    assert len(report.jacobi_violations) == 1
    triple, defect = report.jacobi_violations[0]
    assert triple == (0, 1, 2)
    assert defect == (F(0), F(0), F(-1))


def test_killing_sl2_against_ad_matrix_oracle():
    # oracle: explicit ad matrices on the ordered basis (e, h, f)
    ad_e = [[0, -2, 0], [0, 0, 1], [0, 0, 0]]
    ad_h = [[2, 0, 0], [0, 0, 0], [0, 0, -2]]
    ad_f = [[0, 0, 0], [-1, 0, 0], [0, 2, 0]]
    ads = [ad_e, ad_h, ad_f]

    def trace_product(a, b):
        return sum(a[i][j] * b[j][i] for i in range(3) for j in range(3))

    expected = [[trace_product(x, y) for y in ads] for x in ads]
    matrix, semisimple = killing_form(lie_catalog("sl2"))
    assert [[int(x) for x in row] for row in matrix] == expected
    assert matrix[1][1] == 8 and matrix[0][2] == 4
    assert semisimple


def test_killing_abelian_is_zero():
    matrix, semisimple = killing_form(lie_catalog("abelian:3"))
    assert all(not any(row) for row in matrix)
    assert not semisimple


def test_killing_heisenberg_is_zero():
    # all ad matrices are strictly triangular, so every trace product vanishes
    matrix, semisimple = killing_form(lie_catalog("heis3"))
    assert all(not any(row) for row in matrix)
    assert not semisimple


def _derivation_system_oracle(L):
    """Dense constraint rows for D[bi,bj] = [Dbi,bj] + [bi,Dbj]."""
    n = L.dim
    rows = []
    for i, j in combinations(range(n), 2):
        for k in range(n):
            row = [F(0)] * (n * n)
            for l, c in L.bracket_basis(i, j).items():
                row[k * n + l] += c
            for r in range(n):
                row[r * n + i] -= L.bracket_basis(r, j).get(k, F(0))
                row[r * n + j] -= L.bracket_basis(i, r).get(k, F(0))
            rows.append(row)
    return rows


@pytest.mark.parametrize(
    "name,expected",
    [("abelian:2", 4), ("sl2", 3), ("heis3", 6)],
)
def test_derivation_dimensions(name, expected):
    L = lie_catalog(name)
    ders = derivations(L)
    assert ders.dim == expected
    # independent oracle: nullity of the dense constraint system
    assert dense_nullity(_derivation_system_oracle(L), L.dim ** 2) == expected


def test_derivation_law_holds_exactly():
    # sl3, so3 and sl2+so3 check the Leibniz law on the basis read off ad
    for name in ("sl2", "heis3", "gl2", "sl3", "so3", "sl2+so3"):
        L = lie_catalog(name)
        for D in derivations(L).basis:
            for i, j in combinations(range(L.dim), 2):
                lhs = [F(0)] * L.dim
                for l, c in L.bracket_basis(i, j).items():
                    for k in range(L.dim):
                        lhs[k] += c * D[k][l]
                di = [D[r][i] for r in range(L.dim)]
                dj = [D[r][j] for r in range(L.dim)]
                bi = [F(1) if t == i else F(0) for t in range(L.dim)]
                bj = [F(1) if t == j else F(0) for t in range(L.dim)]
                rhs = [
                    a + b
                    for a, b in zip(L.bracket(di, bj), L.bracket(bi, dj))
                ]
                assert lhs == rhs


def test_sl2_derivations_are_inner():
    ders = derivations(lie_catalog("sl2"))
    assert ders.dim == 3
    assert ders.contains_inner and ders.all_inner


def _matches_derivations_reference(L):
    ders = derivations(L)
    ref = derivations_reference(L)
    assert ders.kernel == ref.kernel
    assert ders.basis == ref.basis
    assert (ders.contains_inner, ders.all_inner) == (ref.contains_inner, ref.all_inner)
    return ders


def _sl_matrices(d):
    """sl(d) by lie_from_matrices, on E_ab for a != b and E_aa - E_(a+1)(a+1)."""
    labels = [f"E{a + 1}{b + 1}" for a in range(d) for b in range(d) if a != b]
    mats = [_unit_matrix(d, a, b) for a in range(d) for b in range(d) if a != b]
    for a in range(d - 1):
        labels.append(f"H{a + 1}")
        mats.append(tuple(tuple(int(r == c == a) - int(r == c == a + 1) for c in range(d))
                          for r in range(d)))
    return lie_from_matrices(labels, mats)


_SEMISIMPLE_BUILDERS = {
    **{name: lambda name=name: lie_catalog(name) for name in ("sl2", "so3", "sl3", "sl2C", "sl2+so3")},
    "sl(4)": lambda: _sl_matrices(4),
    "sl(5)": lambda: _sl_matrices(5),
    "sl3 on a dense basis": lambda: on_dense_basis(lie_catalog("sl3")),
}


@pytest.mark.parametrize("name", list(_SEMISIMPLE_BUILDERS))
def test_semisimple_derivations_all_inner(monkeypatch, name):
    # a nondegenerate Killing form on a valid table gives der = ad with no
    # solve: kernel_basis is never reached, and the span of ad is the
    # reference's kernel
    L = _SEMISIMPLE_BUILDERS[name]()

    def refuse(system):
        raise AssertionError("derivations solved its system")

    monkeypatch.setattr(lie_module, "kernel_basis", refuse)
    ders = _matches_derivations_reference(L)
    assert ders.dim == L.dim
    assert ders.all_inner


@pytest.mark.parametrize("entries, dim, contains_inner", [
    # [h, e] = 3e: Jacobi fails on (e, h, f), yet the Killing rows have
    # full rank; the solve gives one derivation, where span(ad) has three
    pytest.param([(1, 0, 0, 3), (1, 2, 2, -2), (0, 2, 1, 1)], 1, False, id="jacobi"),
    # sl2, with a mirror [h, e] = 5e that disagrees with [e, h] = -2e:
    # the stored table is sl2's, but the validator reports the mirror
    pytest.param([(0, 1, 0, -2), (1, 0, 0, 5), (1, 2, 2, -2), (0, 2, 1, 1)], 3, True,
                 id="mirror"),
])
def test_a_table_that_fails_validation_gets_the_solve(monkeypatch, entries, dim, contains_inner):
    L = LieAlgebra(["e", "h", "f"], entries)
    assert not validate_lie(L).ok and killing_form(L)[1]
    solves = []
    kernel_basis = lie_module.kernel_basis
    monkeypatch.setattr(lie_module, "kernel_basis",
                        lambda system: solves.append(system) or kernel_basis(system))
    ders = _matches_derivations_reference(L)
    assert solves
    assert (ders.dim, ders.contains_inner) == (dim, contains_inner)


def test_gl3_on_a_dense_basis_solves_its_derivation_system():
    # gl3 is not semisimple, so its dense n C(n, 2) x n^2 system is solved:
    # der(gl3) is ad(gl3), of dim 8, plus the maps of gl3 / [gl3, gl3]
    # into the centre, of dim 1
    L = on_dense_basis(_gl(3))
    assert len(L.structure_entries()) == 270
    ders = _matches_derivations_reference(L)
    assert (ders.dim, ders.all_inner, ders.contains_inner) == (9, False, True)


def test_perfect_witness_sl2_h():
    L = lie_catalog("sl2")
    pairs = perfect_witness(L, L.basis_element(1))
    assert len(pairs) == 1
    mu, nu = pairs[0]
    assert mu.coords == (F(1), F(0), F(0)) and nu.coords == (F(0), F(0), F(1))


def test_perfect_witness_sl2_e_recombines():
    L = lie_catalog("sl2")
    e = L.basis_element(0)
    pairs = perfect_witness(L, e)
    total = L.element([0, 0, 0])
    for mu, nu in pairs:
        total = total + mu.bracket(nu)
    assert total == e


def test_perfect_witness_recombination_failure_is_an_internal_error(monkeypatch):
    # a solver that returns twice the solution recombines to 2x: the check
    # must raise the package error (exit 70 from the CLI), not an assert
    import currentext.lie as lie

    solve = lie.solve_linear
    monkeypatch.setattr(lie, "solve_linear",
                        lambda matrix, rhs: tuple(2 * x for x in solve(matrix, rhs)))
    L = lie_catalog("sl2")
    with pytest.raises(InternalConsistencyError, match="witness recombination failed"):
        perfect_witness(L, L.basis_element(1))
    report = run_command(["witness", "sl2", "h"])
    assert report.exit_code == EXIT_INTERNAL
    assert report.results == {"error": "witness recombination failed"}


def test_perfect_witness_heisenberg_defect():
    L = lie_catalog("heis3")
    with pytest.raises(NotInDerivedAlgebraError) as info:
        perfect_witness(L, L.basis_element(0))
    # [L, L] = span{z}; the class of x in L/[L,L] over the (x, y) columns
    assert info.value.defect_coordinates == (F(1), F(0))


def test_witness_random_elements_of_perfect_algebras():
    rng = random.Random(11)
    for name in ("sl2", "so3", "sl3"):
        L = lie_catalog(name)
        assert is_perfect(L)
        for _ in range(5):
            x = L.element([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(L.dim)])
            total = L.element([0] * L.dim)
            for mu, nu in perfect_witness(L, x):
                total = total + mu.bracket(nu)
            assert total == x


def test_perfect_iff_derived_dim_full():
    for name in CATALOG:
        L = lie_catalog(name)
        expected = derived_subalgebra(L).dim == L.dim
        assert is_perfect(L) == expected
        witness_everywhere = True
        for i in range(L.dim):
            try:
                perfect_witness(L, L.basis_element(i))
            except NotInDerivedAlgebraError:
                witness_everywhere = False
        assert witness_everywhere == expected


def test_killing_matrices_symmetric():
    for name in CATALOG:
        matrix, _ = killing_form(lie_catalog(name))
        n = len(matrix)
        assert all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(n))


def test_direct_sum_brackets_split():
    L = direct_sum(lie_catalog("sl2"), lie_catalog("heis3"))
    assert L.dim == 6
    assert validate_lie(L).ok
    # cross brackets vanish
    for i in range(3):
        for j in range(3, 6):
            assert not L.bracket_basis(i, j)


def test_realified_sl2_constants():
    L = realify(lie_catalog("sl2"))
    assert L.dim == 6
    assert validate_lie(L).ok
    # [ie, if] = -[e, f] = -h
    assert L.bracket_basis(3, 5) == {1: F(-1)}
    # [e, if] = i h
    assert L.bracket_basis(0, 5) == {4: F(1)}


@pytest.mark.parametrize("labels, want", [
    # i b_k is labelled "i" before b_k's label, so "i" + "x" is the label "ix"
    (("x", "ix"), ("x", "ix.1", "ix.2", "iix")),
    (("e", "h", "f", "ie", "ih", "if"),
     ("e", "h", "f", "ie.1", "ih.1", "if.1", "ie.2", "ih.2", "if.2", "iie", "iih", "iif")),
])
def test_realify_suffixes_a_label_built_twice(labels, want):
    assert realify(LieAlgebra(labels, [])).labels == want


def test_realify_suffixes_again_past_a_label_in_use():
    # "ix" is in both halves; its suffix .1 gives "ix.1", which L has
    # already, so the suffix is appended again
    assert realify(LieAlgebra(("x", "ix", "ix.1"), [])).labels == (
        "x", "ix.1.1", "ix.1", "ix.2", "iix", "iix.1")


@pytest.mark.parametrize("groups, want", [
    # "a" in the second summand would be "a.2", the first summand's label
    ((("a", "a.2"), ("a",)), ("a.1", "a.2", "a.2.2")),
    # "a" in the first summand would be "a.1", the second summand's label
    ((("a",), ("a", "a.1")), ("a.1.1", "a.2", "a.1")),
    # the second "a.2" would be "a.2.2", the label the second "a" took
    ((("a", "a.2"), ("a", "a.2")), ("a.1", "a.2.1", "a.2.2", "a.2.2.2")),
])
def test_direct_sum_suffixes_again_past_a_label_in_use(groups, want):
    L = direct_sum(*(LieAlgebra(labels, []) for labels in groups))
    assert L.labels == want


def _unit_matrix(d, i, j):
    return tuple(tuple(int((r, c) == (i, j)) for c in range(d)) for r in range(d))


def _matmul(a, b):
    return [[sum((a[r][t] * b[t][c] for t in range(len(b))), F(0)) for c in range(len(b[0]))]
            for r in range(len(a))]


# matrix bases: sl2 on (e, h, f) as in the catalog's constants, sl3 and
# gl2 as the catalog builds them
MATRIX_BASES = {
    "sl2": (("e", "h", "f"), [_unit_matrix(2, 0, 1), ((1, 0), (0, -1)), _unit_matrix(2, 1, 0)]),
    "sl3": (
        ("h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3"),
        [((1, 0, 0), (0, -1, 0), (0, 0, 0)), ((0, 0, 0), (0, 1, 0), (0, 0, -1))]
        + [_unit_matrix(3, i, j) for i, j in ((0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0))],
    ),
    "gl2": (
        ("E11", "E12", "E21", "E22"),
        [_unit_matrix(2, i, j) for i in range(2) for j in range(2)],
    ),
}

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_nonzero_rationals = _rationals.filter(bool)


@st.composite
def _bracket_tables(draw):
    """Catalog algebras on permuted bases with at most one constant
    changed or added, and random tables up to dim 6.  Entries come in
    both orientations, so the tables carry mirror mismatches, diagonal
    entries and constants that break the Jacobi identity."""
    if draw(st.booleans()):
        L = lie_catalog(draw(st.sampled_from(CATALOG)))
        n, extra = L.dim, 1
        order = draw(st.permutations(range(n)))
        table = {(order[i], order[j], order[k]): c for i, j, k, c in L.structure_entries()}
    else:
        n = draw(st.integers(0, 6))
        extra, table = 3 * n, {}
    if n:
        index = st.integers(0, n - 1)
        table.update(draw(st.dictionaries(st.tuples(index, index, index), _rationals,
                                          max_size=extra)))
    return LieAlgebra([f"b{i}" for i in range(n)],
                      [(i, j, k, c) for (i, j, k), c in table.items()])


@settings(max_examples=200, deadline=None)
@given(_bracket_tables())
def test_jacobi_violations_match_the_triple_walk(L):
    assert validate_lie(L).jacobi_violations == jacobi_violations_reference(L)


@st.composite
def _conjugated_bases(draw):
    """A catalog matrix basis, each matrix scaled by a nonzero rational and
    conjugated by one invertible P = (unit lower) (invertible upper); the
    span stays closed under the commutator."""
    name = draw(st.sampled_from(sorted(MATRIX_BASES)))
    labels, mats = MATRIX_BASES[name]
    d = len(mats[0])
    lower = [[F(r == c) if r <= c else draw(_rationals) for c in range(d)] for r in range(d)]
    upper = [[draw(_nonzero_rationals) if r == c else (draw(_rationals) if r < c else F(0))
              for c in range(d)] for r in range(d)]
    p = _matmul(lower, upper)
    p_inverse_columns = [dense_solve(p, [F(r == c) for r in range(d)]) for c in range(d)]
    p_inverse = [[p_inverse_columns[c][r] for c in range(d)] for r in range(d)]
    scales = [draw(_nonzero_rationals) for _ in mats]
    return name, labels, [
        [[s * x for x in row] for row in _matmul(_matmul(p, m), p_inverse)]
        for s, m in zip(scales, mats)
    ]


@settings(max_examples=40, deadline=None)
@given(_conjugated_bases())
def test_lie_from_matrices_matches_dense_commutators(basis):
    name, labels, mats = basis
    L = lie_from_matrices(labels, mats)
    assert L.labels == labels
    assert L.structure_entries() == lie_from_matrices_reference(mats)
    assert validate_lie(L).ok


@pytest.mark.parametrize("name", sorted(MATRIX_BASES))
def test_lie_from_matrices_of_catalog_bases(name):
    labels, mats = MATRIX_BASES[name]
    L = lie_from_matrices(labels, mats)
    assert L.structure_entries() == lie_from_matrices_reference(mats)
    assert L.structure_entries() == lie_catalog(name).structure_entries()


@pytest.mark.parametrize("labels, mats, message", [
    # E11 + E12 is dependent on E11 and E12
    pytest.param("abc", [_unit_matrix(2, 0, 0), _unit_matrix(2, 0, 1), ((1, 1), (0, 0))],
                 "not linearly independent", id="dependent"),
    # [E12, E21] = E11 - E22 is not in their span
    pytest.param("ab", [_unit_matrix(2, 0, 1), _unit_matrix(2, 1, 0)],
                 "commutator of basis elements 0, 1", id="not-closed"),
    pytest.param("a", [((1, 0, 0), (0, 1, 0))], "matrix 0 is not 2 x 2", id="one-2x3"),
    pytest.param("ab", [((1, 0, 0), (0, 1, 0)), ((0, 0, 1), (0, 0, 0))],
                 "matrix 0 is not 2 x 2", id="two-2x3"),
    pytest.param("ab", [_unit_matrix(2, 0, 0), _unit_matrix(3, 0, 0)],
                 "matrix 1 is not 2 x 2", id="two-sizes"),
    pytest.param("ab", [_unit_matrix(2, 0, 0), ((0, 0), (0,))],
                 "matrix 1 is not 2 x 2", id="ragged"),
    pytest.param("a", [_unit_matrix(2, 0, 0), _unit_matrix(2, 1, 1)],
                 "label count 1 != matrix count 2", id="too-few-labels"),
    pytest.param("abc", [_unit_matrix(2, 0, 0), _unit_matrix(2, 1, 1)],
                 "label count 3 != matrix count 2", id="too-many-labels"),
    pytest.param("a", [], "label count 1 != matrix count 0", id="no-matrices"),
])
def test_lie_from_matrices_rejects_bad_bases(labels, mats, message):
    with pytest.raises(ValueError, match=message):
        lie_from_matrices(tuple(labels), mats)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gl_matches_the_dense_commutators_of_unit_matrices(d):
    L = _gl(d)
    assert L.labels == tuple(f"E{a + 1}{b + 1}" for a in range(d) for b in range(d))
    mats = [_unit_matrix(d, a, b) for a in range(d) for b in range(d)]
    assert L.structure_entries() == lie_from_matrices_reference(mats)
    assert validate_lie(L).ok


def _assert_reparsed_alike(built):
    """built has the labels and integer table, pairs in order, that the
    parsing constructor builds from built's own public entries, and
    neither has a mirror defect."""
    parsed = reparsed(built)
    assert built.labels == parsed.labels
    assert built._integer_table == parsed._integer_table
    assert list(built._integer_table[1]) == list(parsed._integer_table[1])
    assert built._mirror_defects == parsed._mirror_defects == []
    if isinstance(built, CommAlgebra):
        assert (built.unit, built.idempotents) == (parsed.unit, parsed.idempotents)


@pytest.mark.parametrize("name", [
    "sl2", "sl3", "so3", "heis3", "sl2C", "gl2", "abelian:0", "abelian:1", "abelian:4",
    "sq2", "jets:1", "jets:2", "jets:5", "fun:1", "fun:2", "fun:5",
])
def test_catalog_tables_are_the_parsed_ones(name):
    _assert_reparsed_alike(_catalog_algebra(name))


@pytest.mark.parametrize("names", [
    ("sl2", "so3"), ("gl2", "heis3"), ("sl2", "sl2"),
    ("sl2", "heis3", "gl2"), ("so3", "abelian:2", "so3"), ("sl3", "sl2C", "abelian:0"),
])
def test_direct_sum_table_is_the_parsed_one(names):
    _assert_reparsed_alike(direct_sum(*[lie_catalog(name) for name in names]))


@pytest.mark.parametrize("name", ["sl2", "sl3", "so3", "heis3", "sl2C", "gl2", "abelian:2"])
def test_realify_table_is_the_parsed_one(name):
    _assert_reparsed_alike(realify(lie_catalog(name)))


@pytest.mark.parametrize("name", ["gl2", "sl3"])
def test_lie_from_matrices_table_is_the_parsed_one(name):
    labels, mats = MATRIX_BASES[name]
    _assert_reparsed_alike(lie_from_matrices(labels, mats))
    # labels that are not strings are read as their str()
    L = lie_from_matrices(range(len(mats)), mats)
    assert L.labels == tuple(str(t) for t in range(len(mats)))
    _assert_reparsed_alike(L)
    # scaled matrices give constants with denominators
    _assert_reparsed_alike(lie_from_matrices(labels, [
        [[F(t + 1, 3) * x for x in row] for row in m] for t, m in enumerate(mats)
    ]))


def test_lie_from_matrices_of_no_matrices_is_the_parsed_zero_algebra():
    L = lie_from_matrices((), [])
    assert L.dim == 0
    _assert_reparsed_alike(L)


_BASIS_CHANGE_NAMES = ("sl2", "so3", "heis3", "gl2", "sl2+so3", "fun:2*sq2", "sq2*jets:2")


def _catalog_algebra(name):
    try:
        return lie_catalog(name)
    except CatalogError:
        return comm_catalog(name)


def _unimodular_columns(draw, n):
    """The columns of (unit lower) (unit upper), small integer factors, with
    the columns permuted: an integer basis change of determinant +-1."""
    small = st.integers(-1, 1)
    lower = [[int(r == c) if r <= c else draw(small) for c in range(n)] for r in range(n)]
    upper = [[int(r == c) if r >= c else draw(small) for c in range(n)] for r in range(n)]
    p = [[sum(lower[r][t] * upper[t][c] for t in range(n)) for c in range(n)] for r in range(n)]
    return [[p[r][c] for r in range(n)] for c in draw(st.permutations(range(n)))]


@st.composite
def _computed_bases(draw):
    """(algebra, sparse vectors, corner indices or None): a random
    unimodular basis change of a catalog algebra of either kind, or a
    corner of fun:n * X on its basis vectors, mixed inside the corner by
    a unimodular change or not."""
    if draw(st.booleans()):
        A = _catalog_algebra(draw(st.sampled_from(_BASIS_CHANGE_NAMES)))
        columns = _unimodular_columns(draw, A.dim)
        return A, [{p: x for p, x in enumerate(col) if x} for col in columns], None
    n = draw(st.integers(1, 4))
    A = comm_catalog(f"fun:{n}*" + draw(st.sampled_from(["sq2", "jets:2", "jets:3"])))
    dx = A.dim // n  # basis vector s * dx + p lies over point s + 1
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    indices = [s * dx + p for s in sorted(points) for p in range(dx)]
    if draw(st.booleans()):
        return A, [{p: 1} for p in indices], indices
    columns = _unimodular_columns(draw, len(indices))
    return A, [{indices[r]: x for r, x in enumerate(col) if x} for col in columns], None


@settings(max_examples=200, deadline=None)
@given(_computed_bases())
def test_entries_on_matches_the_dense_products(case):
    A, vectors, corner = case
    table = type(A)._from_integer_table([f"v{t}" for t in range(len(vectors))],
                                        *A._entries_on(vectors))
    entries = table._entries()
    assert entries == entries_on_reference(A, vectors)
    if corner is not None:
        assert entries == corner_entries_reference(A, corner)
    if isinstance(A, LieAlgebra):
        assert validate_lie(table).ok


_DERIVATION_NAMES = ("sl2", "sl3", "so3", "sl2C", "gl2", "heis3", "sl2+so3", "sl2 (x) jets:2")


def _derivation_fibre(name):
    if name == "sl2 (x) jets:2":
        return current_algebra(lie_catalog("sl2"), comm_catalog("jets:2")).total
    return lie_catalog(name)


@st.composite
def _derivation_cases(draw):
    """(algebra, bump): a unimodular basis change of a fibre whose
    derivations are all inner or, for gl2, heis3 and sl2 (x) jets:2, not,
    and None or a pair i <= j and a nonzero integer to add to the kappa
    form there."""
    base = _derivation_fibre(draw(st.sampled_from(_DERIVATION_NAMES)))
    columns = _unimodular_columns(draw, base.dim)
    L = LieAlgebra._from_integer_table(
        [f"v{t}" for t in range(base.dim)],
        *base._entries_on([{p: x for p, x in enumerate(col) if x} for col in columns]))
    if draw(st.booleans()):
        return L, None
    i = draw(st.integers(0, L.dim - 1))
    j = draw(st.integers(i, L.dim - 1))
    return L, (i, j, draw(st.integers(-2, 2).filter(bool)))


@settings(max_examples=40, deadline=None)
@given(_derivation_cases())
def test_derivation_layer_matches_the_dense_references(case):
    L, bump = case
    forms = v_space_and_kappa(L)
    ders = forms.ders
    ref = derivations_reference(L)
    assert ders.kernel == ref.kernel
    assert ders.basis == ref.basis
    assert (ders.contains_inner, ders.all_inner) == (ref.contains_inner, ref.all_inner)
    span, kappa_table = v_space_and_kappa_reference(L, ref.basis)
    assert forms.v_space.subspace == span
    assert forms.kappa_table == kappa_table
    assert killing_form(L) == killing_form_reference(L)
    # the kappa form is invariant; bumped at one pair, it is not when some
    # derivation reaches that pair, and the first witness is compared (on a
    # zero V the zero form stands in for kappa)
    values = [[value or (F(0),) for value in row] for row in forms.kappa_form().values]
    if bump is not None:
        i, j, x = bump
        values[i][j] = values[j][i] = tuple(v + x for v in values[i][j])
    form = BilinearForm(L.dim, len(values[0][0]), values)
    assert form.invariance_defect(ders) == invariance_defect_reference(form, ref.basis)


@pytest.mark.parametrize("name, vectors, message", [
    # sl2 on (e, h, f): e + h is dependent on e and h
    ("sl2", [{0: 1}, {1: 1}, {0: 1, 1: 1}], "basis is not linearly independent"),
    ("sq2", [{1: 1}, {1: 2}], "basis is not linearly independent"),
    # gl2 on (E11, E12, E21, E22): [E11, E12] = E12 and [E11, E21] = -E21
    # stay in the span, [E12, E21] = E11 - E22 is the first to leave it
    ("gl2", [{0: 1}, {1: 1}, {2: 1}],
     "^commutator of basis elements 1, 2 leaves the span$"),
    ("so3", [{0: 1}, {1: 1}], "^commutator of basis elements 0, 1 leaves the span$"),
    # jets:3 on (1, t, t^2): the first product, t t = t^2, leaves the span
    ("jets:3", [{1: 1}, {0: 1}], "^product of basis elements 0, 0 leaves the span$"),
    # sq2 on (1, x, y, xy): 1 x, x x = 0 and 1 y stay, x y = xy leaves
    ("sq2", [{0: 1}, {1: 1}, {2: 1}],
     "^product of basis elements 1, 2 leaves the span$"),
])
def test_entries_on_names_the_first_bad_pair(name, vectors, message):
    with pytest.raises(ValueError, match=message):
        _catalog_algebra(name)._entries_on(vectors)


@st.composite
def _entry_lists(draw, sign):
    """(dim, entries) up to dim 5 for a table with mirror sign ``sign``, in
    shuffled order: entries in either orientation, diagonal entries, zero
    coefficients, and for some off-diagonal entries a mirror entry that
    agrees (sign times the value) or one that disagrees."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    given = draw(st.dictionaries(st.tuples(index, index, index), _rationals, max_size=3 * n))
    entries = []
    for (i, j, k), c in given.items():
        entries.append((i, j, k, c))
        if i != j and (j, i, k) not in given:
            mirror = draw(st.sampled_from(["none", "agree", "disagree"]))
            if mirror == "agree":
                entries.append((j, i, k, sign * c))
            elif mirror == "disagree":
                entries.append((j, i, k, sign * c + draw(_nonzero_rationals)))
    return n, draw(st.permutations(entries))


# per kind: the class, its table and mirror-report references, and its
# public basis product, dense product, entry list and mirror report
TABLE_KINDS = {
    "lie": (LieAlgebra, lie_table_reference, antisymmetry_violations_reference,
            lambda L: (L.bracket_basis, L.bracket, L.structure_entries(),
                       validate_lie(L).antisymmetry_violations)),
    "comm": (CommAlgebra, comm_table_reference, commutativity_violations_reference,
             lambda A: (A.product_basis, A.product, A.entries(), A.validate().commutativity)),
}


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_structure_table_matches_the_former_constructor(kind, data):
    cls, reference, violations_reference, public = TABLE_KINDS[kind]
    n, entries = data.draw(_entry_lists(cls._sign))
    alg = cls([f"b{i}" for i in range(n)], entries)
    ref = reference(entries)
    # the one stored table, in pair order, and the defects parsed with it
    assert alg._integer_table == ref.integer_table
    assert list(alg._integer_table[1]) == sorted(alg._integer_table[1])
    assert alg._mirror_defects == violations_reference(ref.raw)
    basis, dense, listed, report = public(alg)
    assert listed == ref.entries
    assert report == violations_reference(ref.raw)
    for i in range(n):
        for j in range(n):
            assert basis(i, j) == ref.basis(i, j)
    vectors = st.lists(_rationals, min_size=n, max_size=n)
    u, v = data.draw(vectors), data.draw(vectors)
    assert dense(u, v) == ref.product(u, v)


@pytest.mark.parametrize("cls", [LieAlgebra, CommAlgebra])
def test_integer_table_is_the_only_table(cls):
    A = cls(("a", "b", "c"), [(0, 1, 2, F(1, 2)), (2, 0, 1, F(-3, 4))])
    assert set(_StructureTable.__slots__) == {"labels", "_mirror_defects", "_integer_table"}
    assert A._integer_table == (4, {(0, 1): {2: 2}, (0, 2): {1: -3 * A._sign}})
    # the Fractions a caller reads are built from it
    assert A._basis_product(2, 0) == {1: F(-3, 4)}
    assert A._basis_product(0, 2) == {1: F(-3, 4) * A._sign}


@pytest.mark.parametrize("cls, entries, message", [
    (LieAlgebra, [(0, 1, 2, 1)], "structure constant index (0,1,2) out of range"),
    (LieAlgebra, [(0, 1, 0, 1), (0, 1, 0, 2)], "duplicate structure constant at (0,1,0)"),
    (CommAlgebra, [(-1, 0, 0, 1)], "product index (-1,0,0) out of range"),
    (CommAlgebra, [(1, 1, 1, 1), (1, 1, 1, 1)], "duplicate product entry at (1,1,1)"),
])
def test_constructors_name_the_bad_entry(cls, entries, message):
    with pytest.raises(ValueError) as info:
        cls(("a", "b"), entries)
    assert str(info.value) == message


@pytest.mark.parametrize("cls, message", [
    (LieAlgebra, "bracket operands must match the algebra dimension"),
    (CommAlgebra, "product operands must match the algebra dimension"),
])
def test_dense_products_reject_operands_of_the_wrong_length(cls, message):
    alg = cls(("a", "b"), [(0, 1, 0, 1)])
    with pytest.raises(DimensionMismatchError) as info:
        (alg.bracket if cls is LieAlgebra else alg.product)((1, 0), (1, 0, 0))
    assert str(info.value) == message


@st.composite
def _algebras_with_zero_brackets(draw):
    """heis3, gl2 or abelian:3, alone or in a direct sum with another
    catalog algebra, on a permuted basis."""
    L = lie_catalog(draw(st.sampled_from(["heis3", "gl2", "abelian:3"])))
    if draw(st.booleans()):
        other = lie_catalog(draw(st.sampled_from(["sl2", "so3", "heis3", "gl2", "abelian:3"])))
        L = direct_sum(*draw(st.permutations([L, other])))
    order = draw(st.permutations(range(L.dim)))
    return LieAlgebra(L.labels, [(order[i], order[j], order[k], c)
                                 for i, j, k, c in L.structure_entries()])


@settings(max_examples=200, deadline=None)
@given(_algebras_with_zero_brackets(), st.data())
def test_perfect_witness_matches_the_solve_over_every_pair(L, data):
    n = L.dim
    vectors = st.lists(_rationals, min_size=n, max_size=n)
    if data.draw(st.booleans()):  # a sum of two brackets, inside [L, L]
        x = tuple(a + b for a, b in zip(L.bracket(data.draw(vectors), data.draw(vectors)),
                                        L.bracket(data.draw(vectors), data.draw(vectors))))
    else:
        x = tuple(data.draw(vectors))
    derived = derived_subalgebra_reference(L)
    assert derived_subalgebra(L) == derived
    assert is_perfect(L) == (derived.dim == n)
    pairs, defect = perfect_witness_reference(L, x)
    if pairs is None:
        with pytest.raises(NotInDerivedAlgebraError) as info:
            perfect_witness(L, x)
        assert info.value.defect_coordinates == defect
        return
    unit = [tuple(F(int(t == i)) for t in range(n)) for i in range(n)]
    assert [(mu.coords, nu.coords) for mu, nu in perfect_witness(L, x)] == [
        (tuple(c * e for e in unit[i]), unit[j]) for i, j, c in pairs
    ]
