import random
from fractions import Fraction

import pytest

from currentext.errors import DimensionMismatchError
from currentext.linalg import (
    SparseMatrix,
    Subspace,
    kernel_basis,
    quotient_space,
    rank,
    rref_rows,
    rref_with_transform,
    solve_linear,
)

from oracles import dense_kernel_rref, dense_rank, dense_rref

F = Fraction


def test_kernel_of_identity_is_zero():
    assert kernel_basis(SparseMatrix.identity(3)).dim == 0


def test_kernel_of_zero_matrix_is_full():
    k = kernel_basis(SparseMatrix.zeros(2, 3))
    assert k.dim == 3
    assert k.basis_vectors() == [
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def test_kernel_of_proportional_rows():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]])
    k = kernel_basis(m)
    assert k.dim == 1
    # reduced echelon normalisation of span{(2, -1)}
    assert k.basis_vectors() == [(F(1), F(-1, 2))]
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
        for v in k.basis_vectors():
            assert not any(m.matvec(v))
        # rank + nullity, against the dense oracle
        assert rank(m) + k.dim == cols
        assert dense_rank(m.to_dense()) == rank(m)


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
        b = m.matvec(x0)
        x = solve_linear(m, b)
        assert x is not None
        assert m.matvec(x) == b


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
    runs = [(kernel_basis(m).basis_vectors(), solve_linear(m, m.matvec((1, 2, 3))))
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


def test_from_triplets_rejects_duplicates():
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 2, [(0, 0, F(1)), (0, 0, F(2))])


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


def test_rref_rows_matches_dense_oracle():
    for m in _oracle_matrices():
        pivots, rows = rref_rows(m.row_dicts(), m.cols)
        want_pivots, want_rows = dense_rref(m.to_dense(), m.cols)
        assert list(pivots) == want_pivots
        assert [[row.get(c, 0) for c in range(m.cols)] for row in rows] == want_rows
        assert rref_rows(m.to_dense(), m.cols) == (pivots, rows)


def test_kernel_basis_matches_dense_oracle():
    for m in _oracle_matrices():
        k = kernel_basis(m)
        want_pivots, want_rows = dense_kernel_rref(m.to_dense(), m.cols)
        assert list(k.pivots) == want_pivots
        assert [list(v) for v in k.basis_vectors()] == want_rows
        assert k.basis_rows() == [
            {c: x for c, x in enumerate(v) if x} for v in k.basis_vectors()
        ]


def test_sparse_and_dense_vectors_agree():
    rng = random.Random(11)
    for m in _oracle_matrices():
        n = m.cols
        sub = Subspace.from_spanning(n, m.row_dicts())
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


def test_sparse_vector_column_out_of_range():
    sub = Subspace.from_spanning(3, [(1, 0, 0)])
    with pytest.raises(DimensionMismatchError):
        sub.reduce({3: F(1)})
    with pytest.raises(DimensionMismatchError):
        rref_with_transform([{-1: F(1)}], 3)
