import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from currentext.errors import DimensionMismatchError
from currentext.linalg import (
    SparseMatrix,
    Subspace,
    _augmented_rows,
    _back_substitute,
    _eliminate,
    _peel,
    _peel_order,
    _primitive,
    _solve_rows,
    kernel_basis,
    quotient_space,
    rank,
    rref_with_transform,
    solve_linear,
    solve_many,
)

from oracles import (
    basis_vectors,
    dense_canonical_solve,
    dense_kernel_rref,
    dense_matrix,
    dense_rank,
    dense_rref,
    dense_solve_many,
    matrix_rows,
    matvec,
)

F = Fraction


def test_kernel_of_identity_is_zero():
    assert kernel_basis(SparseMatrix.identity(3)).dim == 0


def test_mixed_denominators_are_held_over_their_lcm():
    # 1/2, 1/3 and 2/3 are 3, 2 and 4 over their lcm 6; the integers over
    # 12 share the factor 2, which is divided out, and an empty row drops
    m = SparseMatrix(3, 3, {(0, 0): F(1, 2), (0, 1): F(1, 3), (1, 2): F(2, 3)})
    assert m == SparseMatrix._from_integer_rows(3, 3, {0: {0: 3, 1: 2}, 1: {2: 4}}, 6)
    assert m == SparseMatrix._from_integer_rows(3, 3, {0: {0: 6, 1: 4}, 1: {2: 8}, 2: {}}, 12)
    assert m != SparseMatrix._from_integer_rows(3, 3, {0: {0: 3, 1: 2}, 1: {2: 4}}, 12)
    assert m != SparseMatrix._from_integer_rows(3, 4, {0: {0: 3, 1: 2}, 1: {2: 4}}, 6)
    expected = [(0, 0, F(1, 2)), (0, 1, F(1, 3)), (1, 2, F(2, 3))]
    assert m.triplets() == expected
    assert SparseMatrix._from_integer_rows(3, 3, {1: {2: 8}, 0: {1: 4, 0: 6}}, 12).triplets() == expected
    assert all(type(value) is Fraction for _, _, value in m.triplets())
    assert m.nnz == 3
    assert SparseMatrix.from_rows([{0: F(1, 2), 1: F(1, 3)}, {2: F(2, 3)}, {}], 3) == m


def test_kernel_of_zero_matrix_is_full():
    k = kernel_basis(SparseMatrix.zeros(2, 3))
    assert k.dim == 3
    assert basis_vectors(k) == [
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def test_kernel_of_proportional_rows():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]])
    k = kernel_basis(m)
    assert k.dim == 1
    # reduced echelon normalisation of span{(2, -1)}
    assert basis_vectors(k) == [(F(1), F(-1, 2))]
    assert k.contains((2, -1))


def test_kernel_vectors_annihilate():
    rng = random.Random(42)
    for _ in range(25):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        data = {}
        for _ in range(rng.randrange(rows * cols + 1)):
            data[(rng.randrange(rows), rng.randrange(cols))] = F(
                rng.randint(-9, 9), rng.randint(1, 4)
            )
        m = SparseMatrix(rows, cols, data)
        k = kernel_basis(m)
        for v in basis_vectors(k):
            assert not any(matvec(m, v))
        # rank + nullity, against the dense oracle
        assert rank(m) + k.dim == cols
        assert dense_rank(dense_matrix(m)) == rank(m)


def test_solve_identity():
    assert solve_linear(SparseMatrix.identity(2), (1, 2)) == (F(1), F(2))


def test_solve_frees_are_zeroed():
    assert solve_linear(SparseMatrix.from_dense([[1, 1]]), (5,)) == (F(5), F(0))


def test_solve_inconsistent_returns_none():
    assert solve_linear(SparseMatrix.from_dense([[1], [2]]), (1, 3)) is None


def test_solve_dimension_mismatch_is_distinct():
    with pytest.raises(DimensionMismatchError):
        solve_linear(SparseMatrix.identity(2), (1, 2, 3))


def test_solve_random_consistency():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = SparseMatrix(
            rows,
            cols,
            {
                (rng.randrange(rows), rng.randrange(cols)): F(rng.randint(-5, 5))
                for _ in range(rows * cols // 2 + 1)
            },
        )
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        b = matvec(m, x0)
        x = solve_linear(m, b)
        assert x is not None
        assert matvec(m, x) == b


def test_solve_many_mixes_consistent_inconsistent_and_zero_right_hand_sides():
    # rows 0 and 1 leave one remainder row, the zero row 3 another: the
    # two inconsistent right-hand sides fail in different remainder rows
    m = SparseMatrix.from_dense([[1, 1], [2, 2], [0, 3], [0, 0]])
    bs = [(1, 2, 0, 0), (1, 3, 0, 0), (0, 0, 0, 0), (2, 4, 6, 0), (0, 0, 0, 1)]
    assert solve_many(m, bs) == [(F(1), F(0)), None, (F(0), F(0)), (F(0), F(2)), None]
    assert solve_many(m, bs) == [solve_linear(m, b) for b in bs]


def test_solve_many_of_no_right_hand_sides_is_empty():
    assert solve_many(SparseMatrix.from_dense([[1, 2], [3, 4]]), []) == []


def test_solve_many_on_a_matrix_with_no_rows():
    assert solve_many(SparseMatrix.zeros(0, 3), [(), ()]) == [(F(0),) * 3] * 2


def test_solve_many_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError):
        solve_many(SparseMatrix.identity(2), [(1, 2), (1, 2, 3)])


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _systems(draw):
    """A rational matrix, mostly zero, with right-hand sides that are in
    its image, arbitrary (often outside it) or zero, mixed in one list."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(F(0)), _RATIONALS)
    dense = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    m = SparseMatrix.from_dense(dense)
    bs = []
    for kind in draw(st.lists(st.sampled_from(("image", "any", "zero")), max_size=6)):
        if kind == "image":
            bs.append(matvec(m, draw(st.lists(_RATIONALS, min_size=cols, max_size=cols))))
        elif kind == "any":
            bs.append(tuple(draw(st.lists(_RATIONALS, min_size=rows, max_size=rows))))
        else:
            bs.append((F(0),) * rows)
    return dense, m, bs


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_solve_many_matches_single_solves_and_the_dense_oracle(system):
    dense, m, bs = system
    solutions = solve_many(m, bs)
    assert len(solutions) == len(bs)
    for b, x in zip(bs, solutions):
        assert x == solve_linear(m, b)
        expected = dense_canonical_solve(dense, b)
        assert x == (None if expected is None else tuple(expected))


_MIXED = ([[F(1), F(1)], [F(2), F(2)], [F(0), F(0)]],
          [(F(1), F(2), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(1))])


@settings(max_examples=80, deadline=None)
@given(_systems())
@example((_MIXED[0], SparseMatrix.from_dense(_MIXED[0]), _MIXED[1]))
def test_solve_rows_matches_the_dense_oracle(system):
    # [dense | bs] row by row, scaled to primitive integer rows
    dense, _, bs = system
    cols = len(dense[0])
    rows = []
    for i, row in enumerate(dense):
        entries = list(row) + [b[i] for b in bs]
        den = lcm(*[x.denominator for x in entries])
        rows.append(_primitive({j: int(x * den) for j, x in enumerate(entries) if x}))
    solutions = _solve_rows(rows, cols, len(bs))
    assert len(solutions) == len(bs)
    for b, solution in zip(bs, solutions):
        expected = dense_canonical_solve(dense, b)
        if expected is None:
            assert solution is None
            continue
        assert list(solution) == sorted(solution)
        assert all(num and lead > 0 for num, lead in solution.values())
        x = [F(0)] * cols
        for pivot, (num, lead) in solution.items():
            x[pivot] = F(num, lead)
        assert x == expected


def test_quotient_by_coordinate_line():
    sub = Subspace.from_spanning(3, [(1, 0, 0)])
    q = quotient_space(3, sub)
    assert q.dim == 2
    assert q.project((5, 1, 2)) == (F(1), F(2))
    assert q.project((7, 0, 0)) == (F(0), F(0))


def test_quotient_by_zero_subspace_is_identity():
    q = quotient_space(4, Subspace.zero(4))
    v = (F(1), F(2), F(3), F(4))
    assert q.project(v) == v
    assert q.lift(q.project(v)) == v


def test_quotient_antipodal_classes():
    q = quotient_space(2, Subspace.from_spanning(2, [(1, 1)]))
    assert q.dim == 1
    a = q.project((1, 0))
    b = q.project((0, 1))
    assert a == tuple(-x for x in b)
    assert any(a)


def test_project_lift_identity_and_kernel():
    rng = random.Random(3)
    for _ in range(20):
        ambient = rng.randrange(1, 9)
        spanning = [
            [F(rng.randint(-3, 3)) for _ in range(ambient)]
            for _ in range(rng.randrange(ambient + 1))
        ]
        sub = Subspace.from_spanning(ambient, spanning)
        q = quotient_space(ambient, sub)
        for _ in range(3):
            v = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(q.dim)]
            assert q.project(q.lift(v)) == tuple(v)
        for row in spanning:
            assert not any(q.project(row))


def test_determinism_bit_identical():
    data = {
        (0, 0): F(2, 3), (0, 2): F(-5), (1, 1): F(7, 2),
        (2, 0): F(4), (2, 2): F(1, 6), (3, 1): F(-1),
    }
    m = SparseMatrix(4, 3, data)
    runs = [(basis_vectors(kernel_basis(m)), solve_linear(m, matvec(m, (1, 2, 3))))
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_rref_with_transform_reconstructs():
    vectors = [(1, 2, 0), (0, 1, 1), (1, 3, 1), (2, 4, 0)]
    out = rref_with_transform(vectors, 3)
    assert len(out) == 2  # rank
    for vec_part, combo, pivot in out:
        recombined = [F(0)] * 3
        for t, c in enumerate(combo):
            for col in range(3):
                recombined[col] += c * F(vectors[t][col])
        assert tuple(recombined) == vec_part
        assert vec_part[pivot] == 1


def test_no_stored_zeros():
    m = SparseMatrix(2, 2, {(0, 0): F(0), (1, 1): F(3)})
    assert m.nnz == 1
    assert m.triplets() == [(1, 1, F(3))]


def _random_sparse(rng, rows, cols, density, fractional):
    data = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                data[(i, j)] = F(rng.randint(-9, 9), rng.randint(1, 6) if fractional else 1)
    return SparseMatrix(rows, cols, data)


def _full_rank(rng, rows, cols):
    """A rows x cols matrix of rank min(rows, cols): a shuffled echelon
    staircase with fractional pivots and random entries to their right."""
    r = min(rows, cols)
    lead_cols = sorted(rng.sample(range(cols), r))
    data = {}
    for i, lead in enumerate(lead_cols):
        data[(i, lead)] = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        for j in range(lead + 1, cols):
            if rng.random() < 0.4:
                data[(i, j)] = F(rng.randint(-5, 5), rng.randint(1, 3))
    order = list(range(rows))
    rng.shuffle(order)
    return SparseMatrix(rows, cols, {(order[i], j): v for (i, j), v in data.items()})


def _oracle_matrices():
    """Seeded random sparse rational matrices: general ones with integer
    and fractional entries, full-rank ones of every shape, zero ones."""
    rng = random.Random(20240601)
    general = [
        _random_sparse(rng, rng.randrange(1, 10), rng.randrange(1, 10),
                       rng.choice([0.1, 0.25, 0.5]), t % 2 == 1)
        for t in range(40)
    ]
    full = [_full_rank(rng, rows, cols) for rows, cols in ((1, 1), (5, 5), (4, 8), (8, 3), (9, 9))]
    zero = [SparseMatrix.zeros(rows, cols) for rows, cols in ((1, 1), (3, 5), (6, 2))]
    return general + full + zero


def test_oracle_matrices_cover_full_and_zero_rank():
    ranks = [(rank(m), min(m.shape)) for m in _oracle_matrices()]
    assert sum(r == full for r, full in ranks) >= 5
    assert sum(r == 0 for r, _ in ranks) >= 3
    assert any(0 < r < full for r, full in ranks)


def test_from_spanning_matches_dense_oracle():
    for m in _oracle_matrices():
        sub = Subspace.from_spanning(m.cols, matrix_rows(m))
        want_pivots, want_rows = dense_rref(dense_matrix(m), m.cols)
        assert list(sub.pivots) == want_pivots
        assert [[row.get(c, 0) for c in range(m.cols)] for row in sub.basis_rows()] == want_rows
        assert Subspace.from_spanning(m.cols, dense_matrix(m)) == sub


def test_kernel_basis_matches_dense_oracle():
    for m in _oracle_matrices():
        k = kernel_basis(m)
        want_pivots, want_rows = dense_kernel_rref(dense_matrix(m), m.cols)
        assert list(k.pivots) == want_pivots
        assert [list(v) for v in basis_vectors(k)] == want_rows
        assert k.basis_rows() == [
            {c: x for c, x in enumerate(v) if x} for v in basis_vectors(k)
        ]


def test_kernel_of_a_wide_matrix_with_zero_repeated_and_proportional_columns():
    # columns 1 and 4 are zero, 2 repeats 0, 5 is -3/2 times 3 and 6 is
    # 1/2 times 0: more columns than rows, each dependency a kernel vector
    dense = [[1, 0, 1, 2, 0, -3, F(1, 2)],
             [3, 0, 3, -4, 0, 6, F(3, 2)]]
    _matches_the_dense_oracles(dense, 7)
    k = kernel_basis(SparseMatrix.from_dense(dense))
    assert k.dim == 5
    for v in ([0, 1, 0, 0, 0, 0, 0], [1, 0, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0],
              [0, 0, 0, 3, 0, 2, 0], [1, 0, 0, 0, 0, 0, -2]):
        assert k.contains(v)


def test_kernel_of_fraction_entries_over_a_common_denominator():
    # entries in sixths, fourths, thirds and twelfths, stored as integers
    # over 12: the kernel is the one of 12 times the matrix
    dense = [[F(1, 6), F(1, 4), F(-1, 3), F(5, 12)],
             [F(1, 3), F(1, 2), F(-2, 3), F(5, 6)],
             [F(-1, 4), F(1, 6), 0, F(1, 12)]]
    m = SparseMatrix.from_dense(dense)
    assert m._den == 12
    _matches_the_dense_oracles(dense, 4)
    k = kernel_basis(m)
    assert k == kernel_basis(SparseMatrix.from_dense([[12 * x for x in row] for row in dense]))
    assert k.dim == 2


def test_kernel_tags_start_past_every_row_not_past_the_stored_rows():
    # the only nonzero row is the last: one row is stored, but the tag of
    # column c sits at rows + c = 3 + c, clear of row index 3
    dense = [[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 2, 3]]
    m = SparseMatrix.from_dense(dense)
    assert list(m._rows) == [3]
    _matches_the_dense_oracles(dense, 3)
    assert basis_vectors(kernel_basis(m)) == [(F(1), F(0), F(-1, 3)), (F(0), F(1), F(-2, 3))]


def test_kernel_of_a_matrix_with_no_rows_or_no_columns():
    full = kernel_basis(SparseMatrix.zeros(0, 4))
    assert full.ambient_dim == 4
    assert basis_vectors(full) == [tuple(F(int(i == j)) for j in range(4)) for i in range(4)]
    for rows in (3, 0):
        assert kernel_basis(SparseMatrix.zeros(rows, 0)) == Subspace.zero(0)


@st.composite
def _shaped_matrices(draw):
    """A sparse rational matrix of any shape up to 6 x 8, tall or wide,
    zero rows and columns included."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    if not (rows and cols):
        return SparseMatrix.zeros(rows, cols)
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return SparseMatrix(rows, cols, draw(st.dictionaries(cells, _RATIONALS, max_size=rows * cols)))


@settings(max_examples=80, deadline=None)
@given(_shaped_matrices())
def test_kernel_basis_annihilates_and_has_the_nullity(m):
    k = kernel_basis(m)
    assert all(not any(matvec(m, v)) for v in basis_vectors(k))
    assert k.dim == m.cols - dense_rank(dense_matrix(m))


def test_sparse_and_dense_vectors_agree():
    rng = random.Random(11)
    for m in _oracle_matrices():
        n = m.cols
        sub = Subspace.from_spanning(n, matrix_rows(m))
        q = quotient_space(n, sub)
        dense_vectors = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)
             for _ in range(n)]
            for _ in range(4)
        ]
        sparse_vectors = [{j: x for j, x in enumerate(v) if x} for v in dense_vectors]
        for dense, sparse in zip(dense_vectors, sparse_vectors):
            reduced = sub.reduce(dense)
            assert sub.reduce(sparse) == {j: x for j, x in enumerate(reduced) if x}
            projected = q.project(dense)
            assert q.project(sparse) == {t: x for t, x in enumerate(projected) if x}
        assert rref_with_transform(sparse_vectors, n) == rref_with_transform(dense_vectors, n)


def test_project_reads_an_integer_mapping_its_fractions_and_its_dense_form_alike():
    rng = random.Random(25)
    for m in _oracle_matrices():
        n = m.cols
        q = quotient_space(n, Subspace.from_spanning(n, matrix_rows(m)))
        vectors = [{t: 1} for t in range(n)] + [
            {j: rng.choice([-4, -1, 2, 3, 7]) for j in rng.sample(range(n), rng.randint(0, n))}
            for _ in range(4)
        ]
        for ints in vectors:
            fractions = {j: F(x) for j, x in ints.items()}
            dense = q.project([F(ints.get(j, 0)) for j in range(n)])
            assert len(dense) == q.dim
            projected = q.project(ints)
            assert projected == q.project(fractions) == {t: x for t, x in enumerate(dense) if x}
            assert list(projected) == sorted(projected)
            assert all(type(x) is F for x in (*projected.values(), *dense))


def test_contains_reads_the_reduced_values():
    # a reduced mapping is keyed by columns, and column 0 is falsy
    zero = Subspace.zero(2)
    assert not zero.contains({0: 1})
    assert not zero.contains({1: F(1, 2)})
    assert zero.contains({0: 0, 1: "0"})
    assert not zero.contains((1, 0))
    line = Subspace.from_spanning(3, [(2, 0, 4)])
    assert line.contains({0: F(1, 2), 2: 1})
    assert not line.contains({0: 1, 2: 1})
    assert line.contains((0, 0, 0))


def test_sparse_vector_column_out_of_range():
    sub = Subspace.from_spanning(3, [(1, 0, 0)])
    with pytest.raises(DimensionMismatchError):
        sub.reduce({3: F(1)})
    with pytest.raises(DimensionMismatchError):
        rref_with_transform([{-1: F(1)}], 3)


def test_a_string_zero_is_not_an_entry():
    # "0" is truthy; it must be read as the rational it names before its
    # test, or it reaches the eliminator as a zero entry of an integer row
    sub = Subspace.from_spanning(2, [["0", 1]])
    assert sub.pivots == (1,)
    assert sub == Subspace.from_spanning(2, [[0, 1]])
    assert rref_with_transform([["0", "1"]], 2) == [((F(0), F(1)), (F(1),), 1)]
    assert rref_with_transform([{0: "0", 1: "1"}], 2) == rref_with_transform([[0, 1]], 2)
    # a string zero in a right-hand side is no evidence against a solution
    m = SparseMatrix.from_dense([[1, 0], [0, 0]])
    assert solve_linear(m, ["1", "0"]) == (F(1), F(0))
    assert solve_many(m, [{1: "0"}, {0: "1/2", 1: "0"}]) == [(F(0), F(0)), (F(1, 2), F(0))]


@pytest.mark.parametrize("to_int", [True, False], ids=["int", "Fraction"])
def test_solve_many_on_mapping_right_hand_sides(to_int):
    # sparse {row: value} right-hand sides give what their dense forms
    # give, and what the dense oracle gives; int entries are read as
    # they are
    rng = random.Random(f"mapping {to_int}")

    def value():
        x = rng.randint(-4, 4)
        return x if to_int else F(x, rng.choice((1, 2, 3, 5)))

    for m in _oracle_matrices():
        image = matvec(m, [F(rng.randint(-3, 3)) for _ in range(m.cols)])
        scale = lcm(*[x.denominator for x in image])
        bs = [{i: value() for i in range(m.rows) if rng.random() < 0.5} for _ in range(4)]
        bs.append({i: int(x * scale) if to_int else x for i, x in enumerate(image) if x})
        dense_bs = [[b.get(i, 0) for i in range(m.rows)] for b in bs]
        got = solve_many(m, bs)
        assert got == solve_many(m, dense_bs)
        for b, x in zip(dense_bs, got):
            expected = dense_canonical_solve(dense_matrix(m), b)
            assert x == (None if expected is None else tuple(expected))
        assert got[-1] is not None
        assert all(type(v) is Fraction for x in got if x is not None for v in x)


def test_solve_many_rejects_a_mapping_row_out_of_range():
    with pytest.raises(DimensionMismatchError):
        solve_many(SparseMatrix.identity(2), [{2: 1}])


def _matches_the_dense_oracles(dense, cols):
    """from_spanning, kernel_basis and rank of a dense matrix, against
    dense_rref and dense_kernel_rref."""
    m = SparseMatrix.from_dense(dense)
    want_pivots, want_rows = dense_rref(dense, cols)
    sub = Subspace.from_spanning(cols, dense)
    assert list(sub.pivots) == want_pivots
    assert [[row.get(c, 0) for c in range(cols)] for row in sub.basis_rows()] == want_rows
    assert rank(m) == len(want_pivots)
    k = kernel_basis(m)
    assert (list(k.pivots), [list(v) for v in basis_vectors(k)]) == dense_kernel_rref(dense, cols)


def test_duplicate_and_negative_single_entry_rows_fix_one_pivot():
    # {0: 1}, {0: -1} and {0: 1} again fix column 0 once: its pivot row is
    # {0: 1}, and the row {0: 2, 1: 3} is struck to {1: 3}, which fixes 1
    rows = [{0: 1}, {0: -1}, {0: 2, 1: 3}, {0: 1}, {1: -1, 2: 1}, {2: -1, 3: 4}]
    assert _peel(rows, 4) == ([0, 1, 2, 3], [])
    dense = [[F(0), F(0), F(0), F(0)], [F(-3), 0, 0, 0], [F(1, 2), 0, 0, 0],
             [0, F(-1, 5), 0, 0], [0, F(2), F(4), 0], [0, 0, F(-7), F(1)], [F(5), 0, 0, 0]]
    _matches_the_dense_oracles(dense, 4)
    assert Subspace._from_integer_rows(4, rows) == Subspace.from_spanning(4, dense)


def test_a_cascade_chain_fixes_every_column():
    # each row is left with one entry once the column before it is fixed;
    # the chain runs backwards in input order, so each link takes a round
    # of its own, found among the rows the round before struck
    chain = [{0: 1}, {0: 1, 1: 2}, {1: 3, 2: 1}, {2: -2, 3: 5}, {3: 1, 4: 1, 5: 1}]
    rows = chain[::-1]
    assert _peel(rows, 6) == ([0, 1, 2, 3], [{4: 1, 5: 1}])
    assert _peel(chain, 6) == _peel(rows, 6)
    dense = [[row.get(c, 0) for c in range(6)] for row in rows]
    _matches_the_dense_oracles(dense, 6)
    # a chain that ends past stop_col leaves its last link in the remainder
    assert _peel([{0: 1}, {0: 1, 1: 2}, {1: 3, 2: 1}], 2) == ([0, 1], [{2: 1}])


def test_peel_order_walks_a_cascade_chain():
    # the chain runs backwards in input order: each link is queued once
    # the column before it is fixed, and substitutes only fixed columns
    chain = [{0: 1}, {0: 1, 1: 2}, {1: 3, 2: 1}, {2: -2, 3: 5}, {3: 1, 4: 1}]
    rows = chain[::-1]
    order = _peel_order(rows, 5)
    assert order == [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    fixed = set()
    for r, col in order:
        assert col in rows[r] and set(rows[r]) - {col} <= fixed
        fixed.add(col)
    assert rank(SparseMatrix.from_rows(rows, 5)) == 5


def test_peel_order_lets_one_row_fix_a_column():
    # {0: 1} and {0: 5} both hold column 0 alone: the first fixes it and
    # the second fixes nothing; {0: 2, 1: 1} and {0: 1, 1: 3} are then both
    # left with column 1, which the first of them fixes
    rows = [{0: 1}, {0: 5}, {0: 2, 1: 1}, {0: 1, 1: 3}]
    assert _peel_order(rows, 2) == [(0, 0), (2, 1)]


@pytest.mark.parametrize("rows, cols", [
    ([{0: 1, 1: 1}, {0: 1, 1: -1}], 2),  # rank 2, but no row holds one column
    ([{0: 1}, {0: 1, 1: 1, 2: 1}], 3),  # the peel fixes 0 and leaves two
    ([{0: 1}, {0: 2}], 2),  # no row holds column 1
    ([], 1),
], ids=["no single entry", "stalls after one", "empty column", "no rows"])
def test_peel_order_reports_a_stall(rows, cols):
    assert _peel_order(rows, cols) is None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_full_peel_order_is_triangular_and_proves_full_rank(data):
    cols = data.draw(st.integers(1, 5))
    entry = st.integers(-3, 3).filter(bool)
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry, min_size=1,
                                              max_size=2), max_size=8))
    order = _peel_order(rows, cols)
    if order is None:
        return
    assert rank(SparseMatrix.from_rows(rows, cols)) == cols
    assert sorted(col for _, col in order) == list(range(cols))
    fixed = set()
    for r, col in order:
        assert col in rows[r] and set(rows[r]) - {col} <= fixed
        fixed.add(col)


def test_a_matrix_of_single_entry_rows_needs_no_row_step(monkeypatch):
    from currentext import linalg

    def no_step(*args):
        raise AssertionError("a single-entry row reached a row step")

    dense = [[0, F(3), 0, 0, 0], [F(-1, 2), 0, 0, 0, 0], [0, 0, 0, 0, F(7)],
             [0, F(-2), 0, 0, 0], [0, 0, 0, 0, F(1, 3)], [0, 0, 0, 0, 0]]
    monkeypatch.setattr(linalg, "_row_step", no_step)
    sub = Subspace.from_spanning(5, dense)
    assert sub.pivots == (0, 1, 4)
    assert sub._rows == ({0: 1}, {1: 1}, {4: 1})
    monkeypatch.undo()
    _matches_the_dense_oracles(dense, 5)


def test_single_entry_rows_at_the_right_hand_sides_through_solve_many():
    # row 1 holds only x1 in every system, so x1 is fixed at zero; the zero
    # row 3 holds only right-hand side 1, which has no solution
    m = SparseMatrix.from_dense([[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 0, 0]])
    bs = [(2, 0, 5, 0), (0, 0, 0, 3), (1, 0, F(4, 3), 0)]
    want = [None if x is None else tuple(x) for x in dense_solve_many(dense_matrix(m), bs)]
    assert want == [(F(2), F(0), F(3)), None, (F(1), F(0), F(1, 3))]
    assert solve_many(m, bs) == want
    # x0 = 0 fixed by row 0, so row 1 (x0 = 1) is struck to a lone
    # right-hand-side entry: the system has no solution
    m = SparseMatrix.from_dense([[1, 0], [1, 0]])
    assert dense_solve_many(dense_matrix(m), [(0, 1)]) == [None]
    assert solve_many(m, [(0, 1), (0, 0)]) == [None, (F(0), F(0))]
    assert _solve_rows([{0: 1}, {0: 1, 2: 1}], 2, 1) == [None]


@st.composite
def _planted_singletons(draw):
    """A sparse rational matrix, a drawn share of whose rows hold one
    entry (duplicates and sign flips likely), in drawn order, with
    right-hand sides in its image, arbitrary or zero."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    singles = draw(st.integers(0, rows))
    dense = []
    for i in range(rows):
        row = [F(0)] * cols
        if i < singles:
            row[draw(st.integers(0, cols - 1))] = draw(_RATIONALS.filter(bool))
        else:
            for j in draw(st.sets(st.integers(0, cols - 1), max_size=3)):
                row[j] = draw(_RATIONALS)
        dense.append(row)
    dense = draw(st.permutations(dense))
    m = SparseMatrix.from_dense(dense)
    bs = [matvec(m, draw(st.lists(_RATIONALS, min_size=cols, max_size=cols))),
          tuple(draw(st.lists(_RATIONALS, min_size=rows, max_size=rows))),
          (F(0),) * rows]
    return dense, cols, m, bs


@settings(max_examples=60, deadline=None)
@given(_planted_singletons())
def test_planted_single_entry_rows_match_the_dense_oracles(system):
    dense, cols, m, bs = system
    _matches_the_dense_oracles(dense, cols)
    got = solve_many(m, bs)
    assert got[0] is not None
    for b, x in zip(bs, got):
        expected = dense_canonical_solve(dense, b)
        assert x == (None if expected is None else tuple(expected))


@settings(max_examples=60, deadline=None)
@given(_planted_singletons(), st.lists(st.integers(-6, 6).filter(bool), min_size=8, max_size=8))
@example(([[F(1), F(1)]], 2, SparseMatrix.from_dense([[1, 1]]), [(F(0),)] * 3), [2] * 8)
def test_scaling_the_input_rows_changes_nothing(system, factors):
    # the eliminator divides each row by its gcd as the row enters its
    # heap, so multiplying an input row by a nonzero integer is invisible
    # in every result read off its echelon rows; a system has at most 8
    # rows, one factor each
    _, cols, m, bs = system
    rows = [m._rows[i] for i in sorted(m._rows)]
    scaled = [{j: f * v for j, v in row.items()} for f, row in zip(factors, rows)]
    assert _back_substitute(_eliminate(scaled, cols)[0]) == (
        _back_substitute(_eliminate(rows, cols)[0]))
    assert Subspace._from_integer_rows(cols, scaled) == Subspace._from_integer_rows(cols, rows)
    assert Subspace.from_spanning(cols, scaled) == Subspace.from_spanning(cols, rows)
    m_scaled = SparseMatrix._from_integer_rows(m.rows, cols, dict(zip(sorted(m._rows), scaled)))
    assert kernel_basis(m_scaled) == kernel_basis(m)
    assert rank(m_scaled) == rank(m)
    aug = _augmented_rows(m, bs)
    aug_scaled = [{j: f * v for j, v in row.items()} for f, row in zip(factors, aug)]
    assert _solve_rows(aug_scaled, cols, len(bs)) == _solve_rows(aug, cols, len(bs))
