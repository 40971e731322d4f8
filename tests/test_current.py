import random
from fractions import Fraction
import pytest
from hypothesis import given, settings, strategies as st

from currentext.catalog import comm_catalog, lie_catalog
from currentext.cohomology import Cocycle2, OneCochain, coboundary_witness
from currentext.current import (
    CommAlgebra,
    GValuedOneForm,
    adjoin_unit_extend,
    current_algebra,
    kaehler_module,
    tensor_comm,
    twist_difference,
    universal_cocycle,
    universality_map,
)
from currentext.errors import (
    DimensionMismatchError,
    FibreNotSemisimpleError,
    NoLocalUnitError,
    NonUnitalError,
    NotDiagonalError,
)
from currentext.lie import LieAlgebra, validate_lie
from currentext.linalg import SparseMatrix, rank
from currentext.locality import OneFormLocality, SupportStructure

from oracles import (
    adjoin_unit_extend_reference,
    associativity_violations_reference,
    current_algebra_reference,
    cyclic_one_reference,
    dense_rank,
    hochschild_one_reference,
    jacobi_violations_reference,
    kaehler_cross_units_reference,
    kaehler_reference,
    module_action_reference,
    reparsed,
    tensor_comm_reference,
)

F = Fraction

COMM_CATALOG = ["jets:2", "jets:3", "sq2", "fun:2", "fun:3", "fun:2*sq2", "fun:2*jets:2"]


@pytest.mark.parametrize("name", COMM_CATALOG)
def test_catalog_comm_algebras_valid(name):
    assert comm_catalog(name).validate().ok


def test_commutativity_violation_reported():
    # 1 * x = x against x * 1 = 2x; the i <= j entry wins, so the table
    # is QQ[x]/x^2 and nothing else fails
    A = CommAlgebra(("1", "x"), [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 2)], unit=(1, 0))
    report = A.validate()
    assert report.commutativity == [(0, 1, 1, F(-1))]
    assert report.associativity == [] and report.unit == [] and report.idempotents == []


def test_associativity_violations_reported():
    # b0 b0 = b1 and b1 b1 = b0: (b0 b0) b1 = b0 but b0 (b0 b1) = 0, and so on
    A = CommAlgebra(("b0", "b1"), [(0, 0, 1, 1), (1, 1, 0, 1)])
    report = A.validate()
    assert report.associativity == [
        ((0, 0, 1), (F(1), F(0))),
        ((0, 1, 1), (F(0), F(-1))),
        ((1, 0, 0), (F(-1), F(0))),
        ((1, 1, 0), (F(0), F(1))),
    ]
    assert report.commutativity == [] and report.unit == [] and report.idempotents == []


def test_unit_violation_reported():
    # functions on two points with the first point's idempotent as "unit"
    A = CommAlgebra(("p", "q"), [(0, 0, 0, 1), (1, 1, 1, 1)], unit=(1, 0))
    report = A.validate()
    assert report.unit == [(1, (F(0), F(0)))]
    assert report.commutativity == [] and report.associativity == []
    assert report.idempotents == []


def test_duplicate_idempotent_labels_raise():
    with pytest.raises(ValueError, match="duplicate idempotent point label 'p'"):
        CommAlgebra(("a", "b"), [(0, 0, 0, 1), (1, 1, 1, 1)], (1, 1),
                    idempotents=[("p", (1, 0)), ("p", (0, 1))])


def test_idempotent_violations_reported():
    # e_q = 1 is idempotent but not orthogonal to e_p, and e_p + e_q != 1
    A = CommAlgebra(("p", "q"), [(0, 0, 0, 1), (1, 1, 1, 1)], unit=(1, 1),
                    idempotents=[("p", (1, 0)), ("q", (1, 1))])
    report = A.validate()
    assert report.idempotents == [
        ("p", "q", (F(1), F(0))),
        ("q", "p", (F(1), F(0))),
        ("sum", "unit", (F(2), F(1))),
    ]
    assert report.commutativity == [] and report.associativity == [] and report.unit == []


_values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
SMALL_COMM = ["jets:2", "jets:3", "sq2", "fun:2", "fun:3"]
SMALL_LIE = ["sl2", "so3", "heis3", "gl2", "abelian:3"]


def _entries(table):
    return [(i, j, k, c) for (i, j, k), c in table.items()]


def _changes(draw, n, size):
    """Up to size random constants at random (i, j, k), either orientation."""
    if not n:
        return {}
    index = st.integers(0, n - 1)
    return draw(st.dictionaries(st.tuples(index, index, index), _values, max_size=size))


@st.composite
def _comm_tables(draw, names=COMM_CATALOG, max_dim=5):
    """Catalog algebras on permuted bases with at most one constant changed
    or added, and random tables with products in both orders, wrong units
    and idempotents that are neither orthogonal nor sum to the unit."""
    if draw(st.booleans()):
        A = comm_catalog(draw(st.sampled_from(names)))
        n = A.dim
        order = draw(st.permutations(range(n)))

        def move(v):
            out = [F(0)] * n
            for i, x in enumerate(v):
                out[order[i]] = x
            return out

        table = {(order[i], order[j], order[k]): c for i, j, k, c in A.entries()}
        table.update(_changes(draw, n, 1))
        unit = move(A.unit) if A.is_unital else None
        idempotents = None if A.idempotents is None else [
            (label, move(e)) for label, e in A.idempotents
        ]
    else:
        n = draw(st.integers(0, max_dim))
        table = _changes(draw, n, 2 * n)
        vectors = st.lists(_values, min_size=n, max_size=n)
        unit = draw(st.none() | vectors)
        idempotents = draw(st.none() | st.lists(vectors, max_size=2))
        if idempotents is not None:
            idempotents = [(str(t + 1), e) for t, e in enumerate(idempotents)]
    return CommAlgebra([f"a{i}" for i in range(n)], _entries(table), unit, idempotents)


@st.composite
def _fibres(draw):
    """Small catalog Lie algebras on permuted bases with at most one
    constant changed or added."""
    g = lie_catalog(draw(st.sampled_from(SMALL_LIE)))
    order = draw(st.permutations(range(g.dim)))
    table = {(order[i], order[j], order[k]): c for i, j, k, c in g.structure_entries()}
    table.update(_changes(draw, g.dim, 1))
    return LieAlgebra(g.labels, _entries(table))


@settings(max_examples=200, deadline=None)
@given(_comm_tables())
def test_associativity_violations_match_the_triple_walk(A):
    assert A.validate().associativity == associativity_violations_reference(A)


@settings(max_examples=200, deadline=None)
@given(_fibres(), _comm_tables(SMALL_COMM, 4), st.data())
def test_jacobi_violations_of_current_algebras_match_the_triple_walk(g, A, data):
    total = current_algebra(g, A).total
    table = {(i, j, k): c for i, j, k, c in total.structure_entries()}
    table.update(_changes(data.draw, total.dim, 1))
    L = LieAlgebra(total.labels, _entries(table))
    assert validate_lie(L).jacobi_violations == jacobi_violations_reference(L)


@pytest.mark.parametrize("gname,aname", [
    ("sl2", "sq2"), ("gl2", "fun:2*jets:2"), ("sl2+so3", "sq2"), ("sl3", "fun:2*sq2"),
    ("sl2", "fun:8*sq2"),
])
def test_jacobi_violations_of_large_current_algebras_match_the_triple_walk(gname, aname):
    # dims 12 to 96, each with one constant doubled so that Jacobi fails
    total = current_algebra(lie_catalog(gname), comm_catalog(aname)).total
    entries = total.structure_entries()
    i, j, k, c = entries[len(entries) // 2]
    entries[len(entries) // 2] = (i, j, k, 2 * c)
    L = LieAlgebra(total.labels, entries)
    report = validate_lie(L)
    assert report.jacobi_violations
    assert report.jacobi_violations == jacobi_violations_reference(L)


@settings(max_examples=200, deadline=None)
@given(_fibres(), _comm_tables())
def test_current_algebra_matches_the_pairwise_builder(g, A):
    total = current_algebra(g, A).total
    labels, entries = current_algebra_reference(g, A)
    assert total.labels == labels
    assert total.structure_entries() == entries


@settings(max_examples=200, deadline=None)
@given(_comm_tables(), _comm_tables())
def test_tensor_comm_matches_the_pairwise_builder(A, B):
    T = tensor_comm(A, B)
    R = CommAlgebra(*tensor_comm_reference(A, B))
    assert T.labels == R.labels
    assert T._integer_table == R._integer_table
    assert T.entries() == R.entries()
    assert T.unit == R.unit and T.idempotents == R.idempotents


# the catalog tensor names and the current algebras that the benchmark's
# three workloads build
WORKLOAD_TENSORS = ["fun:8*sq2", "fun:2*sq2", "sq2*jets:2", "fun:4*sq2", "sq2*jets:3",
                    "sq2*sq2", "fun:6*sq2", "fun:2*jets:2"]
WORKLOAD_CURRENTS = [
    ("sl2", "fun:8*sq2"), ("sl3", "fun:2*sq2"), ("sl2+so3", "sq2*jets:2"), ("sl2", "fun:4*sq2"),
    ("sl2", "sq2*jets:3"), ("so3", "sq2*sq2"), ("sl2", "fun:6*sq2"), ("sl2", "sq2"),
    ("sl2", "jets:3"), ("sl2", "fun:2"), ("sl2+so3", "sq2"),
]


def _assert_same_table(built, reference):
    """The same labels, integer table, key order, row key order and
    mirror defects as the public constructor's."""
    assert built.labels == reference.labels
    assert built._integer_table == reference._integer_table
    rows, expected = built._integer_table[1], reference._integer_table[1]
    assert list(rows) == list(expected)
    assert [list(row) for row in rows.values()] == [list(row) for row in expected.values()]
    assert built._mirror_defects == reference._mirror_defects == []


@pytest.mark.parametrize("name", WORKLOAD_TENSORS)
def test_catalog_tensor_table_is_the_public_constructors(name):
    left, _, right = name.rpartition("*")
    T = comm_catalog(name)
    R = CommAlgebra(*tensor_comm_reference(comm_catalog(left), comm_catalog(right)))
    _assert_same_table(T, R)
    assert T.unit == R.unit and T.idempotents == R.idempotents


@pytest.mark.parametrize("gname,aname", WORKLOAD_CURRENTS)
def test_current_algebra_table_is_the_public_constructors(gname, aname):
    g, A = lie_catalog(gname), comm_catalog(aname)
    _assert_same_table(current_algebra(g, A).total,
                       LieAlgebra(*current_algebra_reference(g, A)))


def _kaehler_dims_oracle(A):
    """(dim Omega1, dim Omega1bar) by dense rank of the relation span."""
    d = A.dim
    rows = []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                row = [F(0)] * (d * d)
                for k, coef in A.product_basis(a, b).items():
                    row[c * d + k] += coef
                for k, coef in A.product_basis(c, a).items():
                    row[k * d + b] -= coef
                for k, coef in A.product_basis(c, b).items():
                    row[k * d + a] -= coef
                rows.append(row)
    dim_omega1 = d * d - dense_rank(rows)
    # span of d(b_j) inside the quotient: rank of [relations; unit tensors]
    # minus rank of relations
    d_rows = []
    for j in range(d):
        row = [F(0)] * (d * d)
        for i, u in enumerate(A.unit):
            if u:
                row[i * d + j] += u
        d_rows.append(row)
    dim_dA = dense_rank(rows + d_rows) - dense_rank(rows)
    return dim_omega1, dim_omega1 - dim_dA


# frozen after computing with the dense oracle above
KAEHLER_DIMS = {
    "jets:3": (2, 0),
    "fun:2": (0, 0),
    "sq2": (4, 1),
    "jets:2": (1, 0),
    "fun:2*sq2": (8, 2),
    "fun:2*jets:2": (2, 0),
}


@pytest.mark.parametrize("name,expected", sorted(KAEHLER_DIMS.items()))
def test_kaehler_dimensions(name, expected):
    A = comm_catalog(name)
    module = kaehler_module(A)
    assert (module.dim_omega1, module.dim_omega1bar) == expected
    assert _kaehler_dims_oracle(A) == expected


def test_kaehler_jets3_exactness():
    # d(t^3) = 3 t^2 dt = 0 kills the top form and dA spans everything
    A = comm_catalog("jets:3")
    module = kaehler_module(A)
    assert module.dim_omega1bar == 0
    # dt and t dt stay independent in Omega1
    dt = module.d(A.basis_vector(1))
    t_dt = module.module_action(A.basis_vector(1), dt)
    assert dense_rank([list(dt), list(t_dt)]) == 2


def test_kaehler_fun_points_have_no_forms():
    # d(e_i) = 2 e_i d(e_i) forces d(e_i) = 0
    module = kaehler_module(comm_catalog("fun:2"))
    assert module.dim_omega1 == 0


def test_kaehler_sq2_class_relation():
    # dA = span{dx, dy, x dy + y dx}; the class [x dy] = -[y dx] is nonzero
    A = comm_catalog("sq2")
    module = kaehler_module(A)
    x, y = A.basis_vector(1), A.basis_vector(2)
    x_dy = module.bar(module.one_form(x, y))
    y_dx = module.bar(module.one_form(y, x))
    assert any(x_dy)
    assert x_dy == tuple(-v for v in y_dx)


def test_kaehler_leibniz_and_unit():
    for name in ("jets:3", "sq2", "fun:2*sq2"):
        A = comm_catalog(name)
        module = kaehler_module(A)
        assert not any(module.d(A.unit))
        for i in range(A.dim):
            for j in range(A.dim):
                ab = A.product(A.basis_vector(i), A.basis_vector(j))
                lhs = module.d(ab)
                rhs = tuple(
                    p + q
                    for p, q in zip(
                        module.module_action(A.basis_vector(i), module.d(A.basis_vector(j))),
                        module.module_action(A.basis_vector(j), module.d(A.basis_vector(i))),
                    )
                )
                assert lhs == rhs


def test_kaehler_requires_unit():
    Aug = CommAlgebra(("t", "t^2"), [(0, 0, 1, 1)])
    with pytest.raises(NonUnitalError):
        kaehler_module(Aug)


def test_kaehler_rejects_vectors_of_the_wrong_length():
    # on sq2 (dim 4) a length-7 vector used to wrap into another pair
    A = comm_catalog("sq2")
    module = kaehler_module(A)
    x = A.basis_vector(1)
    w = module.d(A.basis_vector(2))
    for bad in ((0,) * 6 + (1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatchError):
            module.d(bad)
        with pytest.raises(DimensionMismatchError):
            module.one_form(bad, x)
        with pytest.raises(DimensionMismatchError):
            module.one_form(x, bad)
        with pytest.raises(DimensionMismatchError):
            module.module_action(bad, w)
    with pytest.raises(IndexError):
        module.pair_class(0, 4)
    # a negative index would wrap to the last basis element
    for j in (-1, 4):
        with pytest.raises(IndexError):
            module.d_basis(j)


@pytest.mark.parametrize("i, j", [(100, 200), (-1, 0), (0, 12), (3, -12)])
def test_cocycle_value_refuses_an_out_of_range_pair(i, j):
    psi = universal_cocycle(lie_catalog("sl2"), comm_catalog("sq2")).cocycle
    with pytest.raises(IndexError):
        psi.value(i, j)


def test_current_algebra_refuses_operands_of_the_wrong_length():
    # on sl2 (x) sq2 the length-5 coefficient used to set coordinate 4,
    # which is h*1, and a short fibre element was embedded as it was
    ca = current_algebra(lie_catalog("sl2"), comm_catalog("sq2"))
    assert ca.tensor([1, 0, 0], [1, 0, 0, 0]) == ca.embed_fibre([1, 0, 0])
    for x, a in (([1, 0, 0], [1, 0, 0, 0, 1]), ([1, 0, 0], [1, 0, 0]),
                 ([1, 0], [1, 0, 0, 0]), ([1, 0, 0, 0], [1, 0, 0, 0])):
        with pytest.raises(DimensionMismatchError):
            ca.tensor(x, a)
    for x in ([1], [1, 0, 0, 0]):
        with pytest.raises(DimensionMismatchError):
            ca.embed_fibre(x)


def test_idempotent_splitting_of_omega1bar():
    # fun:n tensor B splits: dim Omega1bar(fun:n * B) = n * dim Omega1bar(B)
    base = kaehler_module(comm_catalog("sq2")).dim_omega1bar
    for n in (2, 3):
        split = kaehler_module(comm_catalog(f"fun:{n}*sq2")).dim_omega1bar
        assert split == n * base


@pytest.mark.parametrize("name", ["fun:3*sq2", "fun:3*jets:2"])
def test_omega1bar_is_the_direct_sum_of_the_points(name):
    # the extensions by zero from the three one-point corners together
    # map isomorphically onto Omega1bar (and Omega1) of the whole algebra
    loc = OneFormLocality(SupportStructure(current_algebra(lie_catalog("sl2"), comm_catalog(name))))
    points = loc.structure.points
    for bar in (True, False):
        stacked, cols = {}, 0
        for point in points:
            m = loc.injection_matrix((point,), points, bar=bar)
            for r, c, x in m.triplets():
                stacked[(r, c + cols)] = x
            cols += m.cols
        whole = loc.kaehler(points)
        rows = whole.dim_omega1bar if bar else whole.dim_omega1
        assert rows == cols
        assert rank(SparseMatrix(rows, cols, stacked)) == rows


def _permuted_comm(A, order):
    """A on the basis order[0], order[1], ..."""
    new = {old: r for r, old in enumerate(order)}
    entries = [(new[i], new[j], new[k], c) for i, j, k, c in A.entries()]
    return CommAlgebra(
        [A.labels[old] for old in order], entries, [A.unit[old] for old in order]
    )


def _sheared_comm(A, i, k, c):
    """A on the basis with b_i replaced by b_i + c b_k (k != i); in the new
    coordinates a vector's k-th entry loses c times its i-th."""
    def coords(v):
        v = list(v)
        v[k] -= c * v[i]
        return v

    basis = [A.basis_vector(m) for m in range(A.dim)]
    basis[i] = tuple(x + c * y for x, y in zip(basis[i], basis[k]))
    entries = [
        (p, q, r, value)
        for p in range(A.dim)
        for q in range(p, A.dim)
        for r, value in enumerate(coords(A.product(basis[p], basis[q])))
        if value
    ]
    return CommAlgebra(A.labels, entries, coords(A.unit))


KAEHLER_SPLIT_CASES = ["fun:8*sq2", "fun:6*sq2", "fun:2*sq2", "sq2*jets:2", "fun:3", "fun:2*jets:2"]


@pytest.mark.parametrize("basis", ["catalog", "permuted", "mixed"])
@pytest.mark.parametrize("name", KAEHLER_SPLIT_CASES)
def test_kaehler_matches_the_all_triples_span(name, basis):
    A = comm_catalog(name)
    rng = random.Random(f"{name}/{basis}")
    classes = kaehler_module(A).classes
    if basis == "permuted":
        order = list(range(A.dim))
        rng.shuffle(order)
        A = _permuted_comm(A, order)
    elif basis == "mixed":
        # one shear from each product class into the next joins them all;
        # a single class gets one shear inside it
        links = list(zip(classes, classes[1:])) or [(classes[0], classes[0])]
        for left, right in links:
            i = rng.choice(left)
            k = rng.choice([m for m in right if m != i])
            A = _sheared_comm(A, i, k, F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
    module = kaehler_module(A)
    if basis == "mixed":
        assert len(module.classes) == 1
    reference = kaehler_reference(A)
    assert module.omega1.subspace == reference.omega1.subspace
    assert module.omega1.rep_cols == reference.omega1.rep_cols
    assert module.omega1bar.subspace == reference.omega1bar.subspace
    for j in range(A.dim):
        assert module.d_basis(j) == reference.d_basis(j)
    for i in range(A.dim):
        for j in range(A.dim):
            assert module.pair_class(i, j) == reference.pair_class(i, j)


@pytest.mark.parametrize("name", ["fun:3", "fun:2*sq2", "fun:8*sq2", "fun:2*jets:2", "sq2*sq2",
                                  "jets:3"])
def test_kaehler_span_is_the_span_with_cross_units_eliminated(name):
    A = comm_catalog(name)
    assert kaehler_module(A).omega1.subspace == kaehler_cross_units_reference(A)


@pytest.mark.parametrize("basis", ["catalog", "permuted"])
@pytest.mark.parametrize("name", COMM_CATALOG + ["fun:3*sq2", "sq2*jets:2"])
def test_module_action_matches_the_dense_reference(name, basis):
    A = comm_catalog(name)
    rng = random.Random(f"{name}/{basis}/action")
    if basis == "permuted":
        order = list(range(A.dim))
        rng.shuffle(order)
        A = _permuted_comm(A, order)
    module = kaehler_module(A)

    def draw(n):
        return [F(rng.choice([0, 0, -2, 1, 3]), rng.randint(1, 3)) for _ in range(n)]

    cases = [(draw(A.dim), draw(module.dim_omega1)) for _ in range(3)]
    cases += [(A.basis_vector(p), draw(module.dim_omega1)) for p in range(A.dim)]
    for a, w in cases:
        assert module.module_action(a, w) == module_action_reference(module, a, w)
    with pytest.raises(DimensionMismatchError):
        module.module_action(A.unit, (0,) * (module.dim_omega1 + 1))


def test_a_repeated_one_form_entry_is_refused():
    # a later zero used to be dropped while a later nonzero value won
    for entries in ([((0, 0), 1), ((0, 0), 0)], [((0, 0), 0), ((0, 0), 1)],
                    [((0, 0), 1), ((1, 0), 2), ((0, 0), 3)]):
        with pytest.raises(ValueError, match=r"duplicate one-form entry \(0, 0\)"):
            GValuedOneForm(3, 1, entries)
    assert GValuedOneForm(3, 1, [((0, 0), 0), ((1, 0), 2)]).entries == {(1, 0): 2}


HOCHSCHILD_CASES = ["jets:3", "sq2", "fun:2", "fun:3", "fun:2*sq2", "fun:2*jets:2",
                    "sq2*sq2", "sq2*jets:2", "jets:2*jets:3"]


@pytest.mark.parametrize("name", HOCHSCHILD_CASES)
def test_degree_one_hochschild_and_cyclic_homology_are_the_kaehler_spaces(name):
    # HH_1 = Omega1 and HC_1 = Omega1bar, read from the complexes alone
    A = comm_catalog(name)
    module = kaehler_module(A)
    hh, hc = hochschild_one_reference(A), cyclic_one_reference(A)
    assert hh.dimension == module.dim_omega1
    assert hc.dimension == module.dim_omega1bar
    # a (x) b -> [a d(b)], read through one_form and bar, kills every
    # b-boundary (in Omega1) and every cyclic relation (in Omega1bar), and
    # is onto both spaces, so it induces the isomorphisms
    basis = [A.basis_vector(i) for i in range(A.dim)]
    forms = [module.one_form(a, b) for a in basis for b in basis]
    bars = [module.bar(w) for w in forms]

    def image(row, vectors, size):
        out = [F(0)] * size
        for flat, coef in row.items():
            for t, x in enumerate(vectors[flat]):
                out[t] += coef * x
        return out

    assert not any(any(image(row, forms, module.dim_omega1)) for row in hh.relations)
    assert not any(any(image(row, bars, module.dim_omega1bar)) for row in hc.relations)
    assert dense_rank(forms) == module.dim_omega1
    assert dense_rank(bars) == module.dim_omega1bar


def test_current_algebra_dims_and_validity():
    for gname in ("sl2", "so3"):
        for aname in ("jets:2", "fun:2", "sq2"):
            g, A = lie_catalog(gname), comm_catalog(aname)
            ca = current_algebra(g, A)
            assert ca.dim == g.dim * A.dim
            assert validate_lie(ca.total).ok


def test_current_fun2_is_direct_sum():
    # orthogonal idempotents split sl2 (x) fun:2 into sl2 + sl2
    from currentext.cohomology import cohomology
    from currentext.lie import killing_form

    ca = current_algebra(lie_catalog("sl2"), comm_catalog("fun:2"))
    _, semisimple = killing_form(ca.total)
    assert semisimple
    assert cohomology(ca.total, 2, 1).dimension == 0


def test_current_jets2_takiff_nilradical():
    # sl2 (x) t is an abelian ideal: [x (x) t, y (x) t] = [x,y] (x) t^2 = 0
    g, A = lie_catalog("sl2"), comm_catalog("jets:2")
    ca = current_algebra(g, A)
    for i in range(3):
        for j in range(3):
            u = ca.tensor(g.basis_element(i).coords, A.basis_vector(1))
            v = ca.tensor(g.basis_element(j).coords, A.basis_vector(1))
            assert not any(ca.total.bracket(u, v))


def test_fibre_embedding_is_homomorphism():
    g, A = lie_catalog("sl2"), comm_catalog("sq2")
    ca = current_algebra(g, A)
    for i in range(3):
        for j in range(3):
            u = ca.embed_fibre(g.basis_element(i).coords)
            v = ca.embed_fibre(g.basis_element(j).coords)
            expected = ca.embed_fibre(
                g.bracket(g.basis_element(i).coords, g.basis_element(j).coords)
            )
            assert ca.total.bracket(u, v) == expected


def test_universal_cocycle_nonzero_value():
    # omega(e (x) x, f (x) y) = kappa(e, f) (x) [x dy] != 0
    g, A = lie_catalog("sl2"), comm_catalog("sq2")
    uc = universal_cocycle(g, A)
    ca = uc.current
    value = uc.cocycle.value(ca.flat(0, 1), ca.flat(2, 2))
    assert any(value)


def test_universal_cocycle_alternation_from_leibniz():
    # omega(u, v) + omega(v, u) = kappa (x) [d(ab)] = 0
    g, A = lie_catalog("sl2"), comm_catalog("fun:2*sq2")
    uc = universal_cocycle(g, A)
    ca = uc.current
    rng = random.Random(2)
    for _ in range(5):
        u = [F(rng.randint(-2, 2)) for _ in range(ca.dim)]
        v = [F(rng.randint(-2, 2)) for _ in range(ca.dim)]
        forward = uc.cocycle.apply(u, v)
        backward = uc.cocycle.apply(v, u)
        assert forward == tuple(-x for x in backward)


def test_universal_cocycle_identity_and_constants():
    for gname, aname in (("sl2", "sq2"), ("so3", "sq2"), ("sl2", "fun:2*sq2")):
        g, A = lie_catalog(gname), comm_catalog(aname)
        uc = universal_cocycle(g, A)
        assert uc.cocycle.cocycle_defect() is None
        ca = uc.current
        for i in range(g.dim):
            for j in range(g.dim):
                u = ca.embed_fibre(g.basis_element(i).coords)
                v = ca.embed_fibre(g.basis_element(j).coords)
                assert not any(uc.cocycle.apply(u, v))


def test_universal_cocycle_zero_when_omega1bar_vanishes():
    uc = universal_cocycle(lie_catalog("sl2"), comm_catalog("jets:3"))
    assert uc.cocycle.is_zero()
    assert uc.coeff_dim == 0
    assert uc.note is not None


def test_adjoin_unit_of_augmentation_ideal():
    Aug = CommAlgebra(("t", "t^2"), [(0, 0, 1, 1)])
    ext = adjoin_unit_extend(Aug)
    assert ext.algebra.dim == 3
    assert ext.algebra.validate().ok
    assert ext.algebra.entries() == comm_catalog("jets:3").entries()


@pytest.mark.parametrize("labels, entries, idempotents", [
    (("t", "t^2"), [(0, 0, 1, 1)], None),
    # halves and thirds in the table: the unit row is brought over its den
    (("x", "y", "z"), [(0, 0, 1, F(1, 2)), (0, 1, 2, F(-2, 3))], None),
    # two points with no unit: e1 and e2 are local units only
    (("e1", "e2"), [(0, 0, 0, 1), (1, 1, 1, 1)], [("1", (1, 0)), ("2", (0, 1))]),
])
def test_unit_extension_table_is_the_parsed_one(labels, entries, idempotents):
    A = CommAlgebra(labels, entries, None, idempotents)
    plus = adjoin_unit_extend(A).algebra
    parsed = reparsed(plus)
    assert plus.labels == parsed.labels == ("1",) + A.labels
    assert plus._integer_table == parsed._integer_table
    assert list(plus._integer_table[1]) == list(parsed._integer_table[1])
    assert plus._mirror_defects == parsed._mirror_defects == []
    assert (plus.unit, plus.idempotents) == (parsed.unit, parsed.idempotents)
    assert plus.validate().ok


def test_adjoin_unit_extends_zero_cocycle():
    Aug = CommAlgebra(("t", "t^2"), [(0, 0, 1, 1)])
    ca = current_algebra(lie_catalog("sl2"), Aug)
    ext = adjoin_unit_extend(Aug, Cocycle2.zero(ca.total, 1), ca)
    assert ext.cocycle.is_zero()


def test_adjoin_unit_with_local_idempotent():
    # functions on {1, 2} vanishing at 2: span{e1} with local unit e1
    g = lie_catalog("sl2")
    A = CommAlgebra(("e1",), [(0, 0, 0, 1)], unit=None, idempotents=[("1", (1,))])
    ca = current_algebra(g, A)
    beta = OneCochain(ca.total, 1, [(F(1),), (F(2),), (F(-1),)])
    psi = beta.coboundary()
    ext = adjoin_unit_extend(A, psi, ca)
    cap = ext.current
    # psi+(f, x (x) 1) = psi(f, x (x) e1) for f supported at 1
    for i in range(3):
        for j in range(3):
            f_plus = cap.tensor(g.basis_element(i).coords, (0, 1))
            const = cap.tensor(g.basis_element(j).coords, (1, 0))
            want = psi.apply(
                ca.tensor(g.basis_element(i).coords, (1,)),
                ca.tensor(g.basis_element(j).coords, (1,)),
            )
            assert ext.cocycle.apply(f_plus, const) == want
    # constants pair to zero and the extension is again a cocycle
    assert ext.cocycle.cocycle_defect() is None
    for i in range(3):
        for j in range(3):
            u = cap.embed_fibre(g.basis_element(i).coords)
            v = cap.embed_fibre(g.basis_element(j).coords)
            assert not any(ext.cocycle.apply(u, v))


def test_adjoin_unit_no_local_unit():
    Aug = CommAlgebra(("t", "t^2"), [(0, 0, 1, 1)])
    ca = current_algebra(lie_catalog("sl2"), Aug)
    beta = OneCochain(ca.total, 1, [(F(1),)] * ca.dim)
    psi = beta.coboundary()
    assert not psi.is_zero()
    with pytest.raises(NoLocalUnitError):
        adjoin_unit_extend(Aug, psi, ca)


@pytest.mark.parametrize("aname", ["fun:2", "fun:2*sq2", "fun:3*jets:2"])
@pytest.mark.parametrize("gname", ["sl2", "so3", "heis3"])
def test_adjoin_unit_extend_matches_the_dense_reference(gname, aname):
    # A with its unit dropped keeps its points, so every basis vector has
    # a local unit; coboundaries are diagonal
    full = comm_catalog(aname)
    A = CommAlgebra(full.labels, full.entries(), None, full.idempotents)
    ca = current_algebra(lie_catalog(gname), A)
    rng = random.Random(f"{gname} {aname}")
    for m in (1, 2):
        beta = OneCochain(ca.total, m, [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m))
            for _ in range(ca.dim)
        ])
        psi = beta.coboundary()
        assert adjoin_unit_extend(A, psi, ca).cocycle == adjoin_unit_extend_reference(A, psi, ca)
    # a value on x_0 (x) b_0 and the last basis element, over different
    # points: both refuse it at the same first pair
    bad = psi + Cocycle2(ca.total, m, {(0, ca.dim - 1): (F(1),) * m})
    with pytest.raises(NotDiagonalError) as got:
        adjoin_unit_extend(A, bad, ca)
    with pytest.raises(NotDiagonalError) as want:
        adjoin_unit_extend_reference(A, bad, ca)
    assert got.value.pair == want.value.pair


def test_twist_difference_zero():
    g, A = lie_catalog("sl2"), comm_catalog("sq2")
    uc = universal_cocycle(g, A)
    result = twist_difference(g, A, GValuedOneForm.zero(3, uc.kaehler.dim_omega1), uc=uc)
    assert result.tau.is_zero()
    assert not any(any(v) for v in result.beta.values)


def test_twist_difference_h_dx():
    g, A = lie_catalog("sl2"), comm_catalog("sq2")
    uc = universal_cocycle(g, A)
    dx = uc.kaehler.d(A.basis_vector(1))
    xi = GValuedOneForm(3, uc.kaehler.dim_omega1, {(1, t): c for t, c in enumerate(dx) if c})
    result = twist_difference(g, A, xi, uc=uc)  # verifies tau = d beta internally
    assert result.tau.values  # the twist is nontrivial as a cochain
    # ... but trivial in cohomology
    witness = coboundary_witness(result.tau)
    assert witness.is_exact


def test_twist_class_equality_randomized():
    g, A = lie_catalog("sl2"), comm_catalog("sq2")
    uc = universal_cocycle(g, A)
    rng = random.Random(9)
    for _ in range(3):
        entries = {}
        for i in range(3):
            for t in range(uc.kaehler.dim_omega1):
                value = rng.randint(-2, 2)
                if value:
                    entries[(i, t)] = F(value)
        result = twist_difference(g, A, GValuedOneForm(3, uc.kaehler.dim_omega1, entries), uc=uc)
        shifted = uc.cocycle + result.tau
        # [omega + tau] = [omega]: their difference has an exact witness
        witness = coboundary_witness(shifted - uc.cocycle)
        assert witness.is_exact
        assert witness.beta.coboundary() == result.tau


# the five acceptance pairs and one with a five-dimensional Omega1bar
TWIST_CASES = [
    ("sl2", "sq2"),
    ("sl2", "fun:2*sq2"),
    ("sl2", "jets:3"),
    ("sl2", "fun:2"),
    ("sl2+so3", "sq2"),
    ("sl2", "sq2*jets:2"),
]


@pytest.mark.parametrize("gname,aname", TWIST_CASES)
def test_twist_difference_matches_term_by_term_reference(gname, aname):
    from oracles import twist_difference_reference

    g, A = lie_catalog(gname), comm_catalog(aname)
    uc = universal_cocycle(g, A)
    rng = random.Random(f"twist {gname} {aname}")
    for _ in range(3):
        entries = {(i, t): F(rng.randint(-3, 3))
                   for i in range(g.dim) for t in range(uc.kaehler.dim_omega1)}
        xi = GValuedOneForm(g.dim, uc.kaehler.dim_omega1, entries)
        result = twist_difference(g, A, xi, uc=uc)
        tau, beta = twist_difference_reference(g, A, xi, uc)
        assert result.tau.values == tau
        assert result.beta.values == beta


UNIVERSALITY_CASES = [
    ("sl2", "sq2", 1, 1),
    ("sl2", "jets:3", 0, 0),
    ("sl2", "fun:2", 0, 0),
    ("sl2", "fun:2*sq2", 2, 2),
    ("sl2+so3", "sq2", 2, 2),
]


@pytest.mark.parametrize("gname,aname,dim_hom,dim_h2", UNIVERSALITY_CASES)
def test_universality_bijective(gname, aname, dim_hom, dim_h2):
    result = universality_map(lie_catalog(gname), comm_catalog(aname), 1)
    assert result.dim_hom == dim_hom
    assert result.dim_h2 == dim_h2
    assert result.bijective


def test_universality_h2_matches_target_dimension():
    for gname, aname, _, _ in UNIVERSALITY_CASES:
        uc = universal_cocycle(lie_catalog(gname), comm_catalog(aname))
        from currentext.cohomology import cohomology

        h2 = cohomology(uc.current.total, 2, 1)
        assert h2.dimension == uc.forms.dim * uc.kaehler.dim_omega1bar


def test_universality_rejects_non_semisimple_fibre():
    with pytest.raises(FibreNotSemisimpleError):
        universality_map(lie_catalog("heis3"), comm_catalog("sq2"), 1)


def test_a_universal_cocycle_on_other_algebras_is_refused():
    sl2, so3, sq2 = lie_catalog("sl2"), lie_catalog("so3"), comm_catalog("sq2")
    # so3 (x) fun:2*sq2 would give a bijective 2 x 2 answer for sl2 (x) sq2
    with pytest.raises(DimensionMismatchError):
        universality_map(sl2, sq2, 1, uc=universal_cocycle(so3, comm_catalog("fun:2*sq2")))
    with pytest.raises(DimensionMismatchError):
        universality_map(sl2, sq2, 1, uc=universal_cocycle(sl2, comm_catalog("jets:3")))
    uc = universal_cocycle(so3, sq2)
    xi = GValuedOneForm.zero(3, uc.kaehler.dim_omega1)
    with pytest.raises(DimensionMismatchError):
        twist_difference(sl2, sq2, xi, uc=uc)
    # copies built apart are the same algebras
    assert twist_difference(lie_catalog("so3"), comm_catalog("sq2"), xi, uc=uc).tau.is_zero()


def test_universality_higher_coefficient_dim():
    result = universality_map(lie_catalog("sl2"), comm_catalog("sq2"), 2)
    assert result.dim_hom == 2 and result.dim_h2 == 2
    assert result.bijective


# the scalar matrices here are not multiples of the identity, so the
# test also fixes the k-major, a-minor order of rows and columns
@pytest.mark.parametrize("gname,aname,m", [("sl2C", "sq2", 3), ("sl2", "sq2*jets:2", 2)])
def test_universality_matrix_is_scalar_matrix_tensor_identity(gname, aname, m):
    # rows k * m + a and columns t * m + b: entry M1[k][t] when a == b
    g, A = lie_catalog(gname), comm_catalog(aname)
    scalar = universality_map(g, A, 1).matrix
    result = universality_map(g, A, m)
    assert result.matrix == tuple(
        tuple(scalar[r // m][c // m] if r % m == c % m else 0
              for c in range(len(scalar[0]) * m))
        for r in range(len(scalar) * m)
    )


def test_universality_realified_fibre():
    # dim V(sl2C) = 2 makes H^2(sl2C (x) sq2) two-dimensional, twice what
    # a Killing-form count would predict; the map still matches it exactly
    result = universality_map(lie_catalog("sl2C"), comm_catalog("sq2"), 1)
    assert result.dim_hom == 2 and result.dim_h2 == 2
    assert result.bijective


def test_tensor_comm_points():
    A = comm_catalog("fun:2*sq2")
    assert A.points == ("1", "2")
    assert A.validate().ok
    B = tensor_comm(comm_catalog("jets:2"), comm_catalog("fun:2"))
    assert B.points == ("1", "2")
