"""Independent dense-arithmetic oracles for cross-checking.

Deliberately shares no code with the package: plain Gaussian
elimination over Fraction on dense row lists.  Slow but obviously
correct, which is the point.
"""

from fractions import Fraction
from itertools import combinations


def dense_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / inv
                for c in range(col, cols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
    return rank


def dense_nullity(rows, cols):
    return cols - dense_rank(rows)


def dense_solve(rows, rhs):
    """Any solution of rows * x = rhs, or None."""
    if not rows:
        return None if any(rhs) else []
    cols = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / inv
                for c in range(col, cols + 1):
                    m[r][c] -= factor * m[rank][c]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(m)):
        if m[r][cols]:
            return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = m[r][cols] / m[r][col]
    return x


def dense_rref(rows, cols):
    """Reduced row echelon form: (pivot columns, nonzero rows as lists)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    return pivots, m[:rank]


def dense_kernel_rref(rows, cols):
    """Reduced echelon basis of {v : rows v = 0}, as (pivots, rows)."""
    pivots, echelon = dense_rref(rows, cols)
    generators = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for pivot, row in zip(pivots, echelon):
            v[pivot] = -row[free]
        generators.append(v)
    return dense_rref(generators, cols)


def ce_differential_reference(L, p, m):
    """The CE differential C^p(L, Q^m) -> C^{p+1}(L, Q^m) by the triple walk.

    Visits every target (p+1)-tuple and every pair of its positions,
    with the convention (d psi)(x_0..x_p) = sum_{i<j} (-1)^(i+j)
    psi([x_i, x_j], x_0, ..^i..^j.., x_p).  Only L.dim and
    L.bracket_basis are used.  Returns (rows, cols, sorted triplets).
    """
    n = L.dim
    source = list(combinations(range(n), p))
    target = list(combinations(range(n), p + 1))
    src_index = {t: r for r, t in enumerate(source)}
    scalar = {}
    for row, tup in enumerate(target):
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                sign_ij = -1 if (i + j) % 2 else 1
                rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                for k, c in L.bracket_basis(tup[i], tup[j]).items():
                    if k in rest:
                        continue
                    pos = sum(1 for t in rest if t < k)
                    sign = sign_ij * (-1 if pos % 2 else 1)
                    key = (row, src_index[tuple(sorted((k,) + rest))])
                    scalar[key] = scalar.get(key, Fraction(0)) + sign * Fraction(c)
    triplets = sorted(
        (row * m + a, col * m + a, value)
        for (row, col), value in scalar.items()
        if value
        for a in range(m)
    )
    return len(target) * m, len(source) * m, triplets
