"""Independent dense-arithmetic oracles for cross-checking.

The elimination oracles deliberately share no code with the package:
plain Gaussian elimination over Fraction on dense row lists.  The
matrix and subspace helpers (dense matrix, rows, columns, matvec and
basis vectors) read a SparseMatrix only through triplets() and a Subspace
only through basis_rows().  The term-by-term references below the
elimination oracles (matrix commutators, products on a
computed basis and on a corner's basis vectors, the Jacobi and
associativity walks over every basis triple, the current-algebra and
tensor-product builders over every basis pair, CE differential, cocycle
defect, coboundary, twist difference, Kaehler module action, restriction
and gluing over a cover) evaluate each defining formula entry by entry
and read the package's objects only through basic accessors such as
bracket_basis, product_basis, kappa_basis, pair_class and bar.  Slow
but obviously correct, which is the point.
cohomology_reference and kaehler_reference are the exceptions: they
solve the whole scalar complex and the whole all-triples Leibniz span
with the package's own linear algebra, as references for the
weight-zero block and the product-class split, not for the
elimination; kaehler_cross_units_reference eliminates the in-class
relations together with every cross-class unit tensor, as the
reference for placing those units' echelon rows.
coboundary_witness_reference likewise solves each coefficient slot
with the package's solve_linear, as the reference for solving all
slots in one elimination, inject_form_reference projects
a dense tensor with the package's Omega1 quotient, as the reference for
extension by zero as a coordinate map, and decompose_class_reference
solves the stacked extension matrices with solve_linear, as the
reference for reading a class's coordinates.  adjoin_unit_extend_reference
is the former loop over every basis pair of g (x) A+, evaluating psi
with value and apply, as the reference for the one pass over psi's
stored pairs.  derived_subalgebra_reference
and perfect_witness_reference span and solve a column for every basis
pair with the package's linear algebra, as the references for reading
only the nonzero brackets.  derivations_reference,
v_space_and_kappa_reference, killing_form_reference and
invariance_defect_reference are the former dense derivation layer: the
n^2-unknown system, the S2 action span and the kappa projections of unit
vectors as dense Fraction rows through the package's Subspace and
quotient, the Killing traces of dense ad matrices, and the invariance
sums over every r.  hochschild_one_reference and cyclic_one_reference
compute HH_1 and HC_1 from the Hochschild and Connes complexes in
degree one, with their own sparse elimination and no Kaehler module, as
the references for the dimensions of Omega1 and Omega1bar that read
no representatives.  lie_table_reference and comm_table_reference
are the former constructor loops of the two kinds of algebra, and the
two violations references their former mirror checks.  reparsed feeds
a table's own public entries (and a CommAlgebra's unit and idempotents)
back to the parsing constructor, as the reference for the tables the
package derives.

The package keys cochains by increasing index tuples, {p-tuple: m-tuple}.
The dense references use flat vectors of C^p(L, Q^m) instead, entry
rank * m + a holding slot a of the tuple of lexicographic rank rank;
flat_cochain and tuple_cochain convert between the two forms.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from types import SimpleNamespace


def dense_matrix(m):
    """A SparseMatrix as a tuple of dense Fraction rows, from triplets()."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for i, j, value in m.triplets():
        out[i][j] = value
    return tuple(tuple(row) for row in out)


def matrix_rows(m):
    """Every row of a SparseMatrix as a {col: Fraction} dict, empty rows
    included, from triplets()."""
    out = [{} for _ in range(m.rows)]
    for i, j, value in m.triplets():
        out[i][j] = value
    return out


def matrix_columns(m):
    """Every column of a SparseMatrix as a {row: Fraction} dict, from
    triplets()."""
    out = [{} for _ in range(m.cols)]
    for i, j, value in m.triplets():
        out[j][i] = value
    return out


def matvec(m, v):
    """m v for a SparseMatrix m and a dense vector v, as Fractions."""
    assert len(v) == m.cols
    out = [Fraction(0)] * m.rows
    for i, j, value in m.triplets():
        out[i] += value * v[j]
    return tuple(out)


def basis_vectors(sub):
    """The reduced echelon basis of a Subspace as dense Fraction tuples,
    from basis_rows()."""
    out = []
    for row in sub.basis_rows():
        v = [Fraction(0)] * sub.ambient_dim
        for col, value in row.items():
            v[col] = value
        out.append(tuple(v))
    return out


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
    return dense_solve_many(rows, [rhs])[0]


def dense_solve_many(rows, rhss):
    """dense_solve(rows, rhs) for every rhs in rhss, from one elimination
    of [rows | rhss]."""
    if not rows:
        return [None if any(rhs) else [] for rhs in rhss]
    cols, k = len(rows[0]), len(rhss)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[r]) for rhs in rhss]
         for r, row in enumerate(rows)]
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
                for c in range(col, cols + k):
                    m[r][c] -= factor * m[rank][c]
        pivots.append(col)
        rank += 1
    out = []
    for t in range(cols, cols + k):
        if any(m[r][t] for r in range(rank, len(m))):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for r, col in enumerate(pivots):
            x[col] = m[r][t] / m[r][col]
        out.append(x)
    return out


def lie_from_matrices_reference(mats):
    """Structure entries (i, j, k, c), i < j, of the Lie algebra spanned by
    the d x d matrices mats: each commutator by the dense formula
    [a, b][r][c] = sum_t a[r][t] b[t][c] - b[r][t] a[t][c], then the
    coordinates of all of them in the basis mats by one dense elimination.
    The matrices must be independent and closed under the commutator."""
    n, d = len(mats), len(mats[0])
    mats = [[[Fraction(x) for x in row] for row in m] for m in mats]
    span = [[mats[k][r][c] for k in range(n)] for r in range(d) for c in range(d)]
    pairs = list(combinations(range(n), 2))
    commutators = [
        [
            sum((a[r][t] * b[t][c] - b[r][t] * a[t][c] for t in range(d)), Fraction(0))
            for r in range(d)
            for c in range(d)
        ]
        for a, b in ((mats[i], mats[j]) for i, j in pairs)
    ]
    out = []
    for (i, j), coords in zip(pairs, dense_solve_many(span, commutators)):
        assert coords is not None, f"commutator {i}, {j} leaves the span"
        out.extend((i, j, k, x) for k, x in enumerate(coords) if x)
    return out


def entries_on_reference(A, vectors):
    """Structure entries (i, j, k, c) of A's product on the span of the
    sparse {coordinate: value} vectors, i < j for a bracket and i <= j
    for a product: each product by A's dense _product, then the
    coordinates of all of them in the vectors by one dense elimination.
    The vectors must be independent and their span closed."""
    n, m = A.dim, len(vectors)
    dense = [[Fraction(v.get(p, 0)) for p in range(n)] for v in vectors]
    span = [[dense[t][p] for t in range(m)] for p in range(n)]
    assert dense_rank(span) == m, "vectors are dependent"
    pairs = [(i, j) for i in range(m) for j in range(i + (A._sign < 0), m)]
    solutions = dense_solve_many(span, [A._product(dense[i], dense[j]) for i, j in pairs])
    out = []
    for (i, j), coords in zip(pairs, solutions):
        assert coords is not None, f"product {i}, {j} leaves the span"
        out.extend((i, j, k, x) for k, x in enumerate(coords) if x)
    return out


def reparsed(A):
    """The algebra the parsing constructor builds from A's public
    accessors: its labels and entries, and for a CommAlgebra its unit and
    idempotents."""
    if hasattr(A, "structure_entries"):
        return type(A)(A.labels, A.structure_entries())
    return type(A)(A.labels, A.entries(), A.unit, A.idempotents)


def corner_entries_reference(A, indices):
    """Product entries (t_i, t_j, t_k, c), t_i <= t_j, of the corner of A
    on the basis vectors ``indices``, in sorted order: every product of
    two of them re-indexed, each of its coordinates required to lie in
    the corner (the former Corner constructor loop)."""
    back = {p: t for t, p in enumerate(indices)}
    entries = []
    for t_i, p_i in enumerate(indices):
        for t_j, p_j in enumerate(indices):
            if t_i > t_j:
                continue
            for k, c in A.product_basis(p_i, p_j).items():
                assert k in back, "corner product left the corner span"
                entries.append((t_i, t_j, back[k], c))
    return sorted(entries)


def dense_canonical_solve(rows, rhs):
    """The solution of rows * x = rhs with free coordinates zero, or None."""
    cols = len(rows[0])
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots, echelon = dense_rref(augmented, cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for pivot, row in zip(pivots, echelon):
        x[pivot] = row[cols]
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


def _raw_table(entries):
    """{(i, j): {k: coefficient}}: the nonzero entries as given."""
    raw = {}
    for i, j, k, value in entries:
        value = Fraction(value)
        if value:
            raw.setdefault((i, j), {})[k] = value
    return raw


def _tables(raw, table, basis):
    """The reference namespace of a structure-constant table: the raw
    entries, the canonical table and its integer form (den, {pair: {k:
    den * c}}), the sorted entries, the basis product and a dense product
    that sums every pair of coordinates through it."""
    den = lcm(*{c.denominator for row in table.values() for c in row.values()})
    integer = den, {
        pair: {k: c.numerator * (den // c.denominator) for k, c in row.items()}
        for pair, row in table.items()
    }
    entries = [(i, j, k, table[(i, j)][k]) for (i, j) in sorted(table)
               for k in sorted(table[(i, j)])]

    def dense(u, v):
        out = [Fraction(0)] * len(u)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                for k, c in basis(i, j).items():
                    out[k] += Fraction(a) * Fraction(b) * c
        return tuple(out)

    return SimpleNamespace(raw=raw, table=table, integer_table=integer, entries=entries,
                           basis=basis, product=dense)


def lie_table_reference(entries):
    """LieAlgebra's tables by its former constructor loop: an (i, j) with
    i < j is taken as given, one given only as (j, i) is negated, and a
    diagonal entry is dropped; the table is in pair order."""
    raw = _raw_table(entries)
    table = {}
    for (i, j), row in raw.items():
        if i == j:
            continue
        if i < j:
            if (i, j) not in table:
                table[(i, j)] = dict(row)
        elif (j, i) not in raw:
            table[(j, i)] = {k: -v for k, v in row.items()}
    table = dict(sorted(table.items()))

    def basis(i, j):
        if i == j:
            return {}
        if i < j:
            return table.get((i, j), {})
        return {k: -v for k, v in table.get((j, i), {}).items()}

    return _tables(raw, table, basis)


def comm_table_reference(entries):
    """CommAlgebra's tables by its former constructor loop: an (i, j) with
    i <= j is taken as given, one given only as (j, i) is copied; the
    table is in the order the entries were given."""
    raw = _raw_table(entries)
    table = {}
    for (i, j), row in raw.items():
        if i <= j:
            table[(i, j)] = dict(row)
    for (i, j), row in raw.items():
        if i > j and (j, i) not in table:
            table[(j, i)] = dict(row)

    def basis(i, j):
        return table.get((i, j) if i <= j else (j, i), {})

    return _tables(raw, table, basis)


def antisymmetry_violations_reference(raw):
    """validate_lie's antisymmetry list by its former loop: each diagonal
    entry, then for a pair i < j given in both orientations each k where
    [b_i, b_j]_k + [b_j, b_i]_k != 0, in sorted order."""
    anti = []
    for (i, j), row in sorted(raw.items()):
        if i == j:
            for k in sorted(row):
                anti.append((i, j, k, row[k]))
            continue
        mirror = raw.get((j, i))
        if mirror is None or i > j:
            continue
        for k in sorted(set(row) | set(mirror)):
            defect = row.get(k, Fraction(0)) + mirror.get(k, Fraction(0))
            if defect:
                anti.append((i, j, k, defect))
    return anti


def commutativity_violations_reference(raw):
    """CommAlgebra.validate's commutativity list by its former loop: for a
    pair i < j given in both orders, each k where (b_i b_j)_k differs from
    (b_j b_i)_k, with the difference, in sorted order."""
    comm = []
    for (i, j), row in sorted(raw.items()):
        if i >= j:
            continue
        mirror = raw.get((j, i))
        if mirror is None:
            continue
        for k in sorted(set(row) | set(mirror)):
            if row.get(k, Fraction(0)) != mirror.get(k, Fraction(0)):
                comm.append((i, j, k, row.get(k, Fraction(0)) - mirror.get(k, Fraction(0))))
    return comm


def _bracket_pair_matrix(L):
    """The bracket map Lambda^2 L -> L with a dense column for every pair
    i < j, zero brackets included."""
    from currentext.linalg import SparseMatrix

    pairs = list(combinations(range(L.dim), 2))
    data = {(k, t): c for t, (i, j) in enumerate(pairs) for k, c in L.bracket_basis(i, j).items()}
    return pairs, SparseMatrix(L.dim, len(pairs), data)


def derived_subalgebra_reference(L):
    """[L, L] spanned by the columns of every basis pair."""
    from currentext.linalg import Subspace

    _, matrix = _bracket_pair_matrix(L)
    return Subspace.from_spanning(L.dim, matrix_columns(matrix))


def perfect_witness_reference(L, coords):
    """perfect_witness by a solve against every basis pair's column:
    ([(i, j, coefficient)], None) for the pairs with a nonzero coefficient,
    or (None, defect class in L/[L, L]) when coords is not in [L, L]."""
    from currentext.linalg import quotient_space, solve_linear

    pairs, matrix = _bracket_pair_matrix(L)
    solution = solve_linear(matrix, coords)
    if solution is None:
        return None, quotient_space(L.dim, derived_subalgebra_reference(L)).project(coords)
    return [(*pairs[t], c) for t, c in enumerate(solution) if c], None


def jacobi_violations_reference(L):
    """validate_lie's Jacobi list by walking every basis triple.

    For each i < j < k the cyclic sum [[x_i,x_j],x_k] + [[x_j,x_k],x_i] +
    [[x_k,x_i],x_j] is summed term by term through bracket_basis, and the
    triples with a nonzero sum are listed with it, in lexicographic order.
    """
    n = L.dim
    out = []
    for i, j, k in combinations(range(n), 3):
        defect = [Fraction(0)] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, coef in L.bracket_basis(a, b).items():
                for s, c2 in L.bracket_basis(t, c).items():
                    defect[s] += coef * c2
        if any(defect):
            out.append(((i, j, k), tuple(defect)))
    return out


def associativity_violations_reference(A):
    """CommAlgebra.validate's associativity list by walking all dim^3
    ordered basis triples with dense products: ((i, j, k), (b_i b_j) b_k -
    b_i (b_j b_k)) wherever that is nonzero, in lexicographic order."""
    n = A.dim
    e = [A.basis_vector(i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = A.product(A.product(e[i], e[j]), e[k])
                right = A.product(e[i], A.product(e[j], e[k]))
                if left != right:
                    out.append(((i, j, k), tuple(a - b for a, b in zip(left, right))))
    return out


def current_algebra_reference(g, A):
    """(labels, structure entries) of g (x) A from the formula
    [x_i (x) b_p, x_j (x) b_q] = [x_i, x_j] (x) b_p b_q over every pair of
    flat indices fi < fj, summed per (fi, fj, fk) and sorted."""
    da = A.dim
    totals = {}
    for fi, fj in combinations(range(g.dim * da), 2):
        (i, p), (j, q) = divmod(fi, da), divmod(fj, da)
        for k, c in g.bracket_basis(i, j).items():
            for r, m in A.product_basis(p, q).items():
                key = (fi, fj, k * da + r)
                totals[key] = totals.get(key, Fraction(0)) + c * m
    labels = tuple(f"{x}*{a}" for x in g.labels for a in A.labels)
    return labels, [(i, j, k, v) for (i, j, k), v in sorted(totals.items()) if v]


def tensor_comm_reference(A, B):
    """(labels, entries, unit, idempotents) of A (x) B on the product
    basis: the entries of (b_i (x) b_p)(b_j (x) b_q) = b_i b_j (x) b_p b_q
    for every flat pair (i, p) <= (j, q) with i <= j, in loop order; the
    unit and idempotents are tensored with B's unit (or A's)."""
    db = B.dim
    labels = [f"{a}*{b}" for a in A.labels for b in B.labels]
    entries = []
    for i in range(A.dim):
        for j in range(i, A.dim):
            prod_a = A.product_basis(i, j)
            for p in range(db):
                for q in range(db):
                    if (i, p) > (j, q):
                        continue
                    for r, ca in prod_a.items():
                        for s, cb in B.product_basis(p, q).items():
                            entries.append((i * db + p, j * db + q, r * db + s, ca * cb))
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = [x * y for x in A.unit for y in B.unit]
    idempotents = None
    if A.idempotents is not None and B.unit is not None:
        idempotents = [(label, tuple(x * y for x in e for y in B.unit))
                       for label, e in A.idempotents]
    elif A.unit is not None and A.idempotents is None and B.idempotents is not None:
        idempotents = [(label, tuple(x * y for x in A.unit for y in e))
                       for label, e in B.idempotents]
    return labels, entries, unit, idempotents


def _ad_reference(L, i):
    """ad(b_i) as a dense n x n list: column j holds [b_i, b_j]."""
    n = L.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for k, c in L.bracket_basis(i, j).items():
            out[k][j] = Fraction(c)
    return out


def killing_form_reference(L):
    """(matrix, semisimple): trace(ad b_i . ad b_j) on dense ad matrices,
    one entry at a time, and det B != 0 by dense rank."""
    n = L.dim
    ads = [_ad_reference(L, i) for i in range(n)]
    matrix = tuple(
        tuple(sum((ads[i][k][l] * ads[j][l][k] for k in range(n) for l in range(n)), Fraction(0))
              for j in range(n))
        for i in range(n)
    )
    return matrix, dense_rank(matrix) == n


def derivations_reference(L):
    """der(L) from the dense n^2-unknown system, one row per (i < j, k):
    D[k][l] [b_i, b_j]_l - D[r][i] [b_r, b_j]_k - D[r][j] [b_i, b_r]_k.
    The kernel, the span of the flattened ad(b_i) and the containment test
    are the package's linear algebra on dense Fraction rows.  Returns a
    namespace with kernel, basis (dense matrices), contains_inner and
    all_inner."""
    from currentext.linalg import SparseMatrix, Subspace, kernel_basis

    n = L.dim
    rows = []
    for i, j in combinations(range(n), 2):
        for k in range(n):
            row = [Fraction(0)] * (n * n)
            for l, coef in L.bracket_basis(i, j).items():
                row[k * n + l] += coef
            for r in range(n):
                row[r * n + i] -= L.bracket_basis(r, j).get(k, 0)
                row[r * n + j] -= L.bracket_basis(i, r).get(k, 0)
            rows.append(row)
    kernel = kernel_basis(SparseMatrix.from_dense(rows) if rows else SparseMatrix.zeros(0, n * n))
    basis = tuple(tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n))
                  for flat in basis_vectors(kernel))
    ad_span = Subspace.from_spanning(
        n * n, [[x for row in _ad_reference(L, i) for x in row] for i in range(n)])
    contains_inner = all(kernel.contains(v) for v in basis_vectors(ad_span))
    return SimpleNamespace(kernel=kernel, basis=basis, contains_inner=contains_inner,
                           all_inner=contains_inner and ad_span.dim == kernel.dim)


def derivation_image_reference(sym, D, t):
    """D.(b_i . b_j) = D b_i . b_j + b_i . D b_j for the t-th symmetric
    basis pair (i, j), as a dense vector over sym's pairs."""
    i, j = sym.pairs[t]
    out = [Fraction(0)] * sym.dim
    for r in range(len(D)):
        out[sym.flat(r, j)] += D[r][i]
        out[sym.flat(i, r)] += D[r][j]
    return tuple(out)


def v_space_and_kappa_reference(L, basis):
    """(V, kappa_table) for the dense derivation basis ``basis``: V is the
    Subspace spanned by every dense derivation image, and kappa_table[t]
    the projection of the t-th unit vector of S2(L) to S2(L) / V, each by
    the package's Subspace and quotient."""
    from currentext.invariants import SymSquare
    from currentext.linalg import Subspace, quotient_space

    sym = SymSquare(L)
    span = Subspace.from_spanning(
        sym.dim, [derivation_image_reference(sym, D, t) for D in basis for t in range(sym.dim)])
    quotient = quotient_space(sym.dim, span)
    units = [tuple(Fraction(int(s == t)) for s in range(sym.dim)) for t in range(sym.dim)]
    return span, tuple(quotient.project(u) for u in units)


def invariance_defect_reference(form, basis):
    """First (derivation index, i, j), i <= j, with
    beta(D b_i, b_j) + beta(b_i, D b_j) != 0, over the dense matrices of
    ``basis`` and every r."""
    n = form.dim
    for d_idx, D in enumerate(basis):
        for i in range(n):
            for j in range(i, n):
                total = [Fraction(0)] * form.target_dim
                for r in range(n):
                    for a in range(form.target_dim):
                        total[a] += D[r][i] * form.values[r][j][a] + D[r][j] * form.values[i][r][a]
                if any(total):
                    return (d_idx, i, j)
    return None


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


def cocycle_defect_reference(psi):
    """First basis triple i < j < k where d psi does not vanish, with its total.

    Walks every triple and sums psi([x,y],z) - psi([x,z],y) + psi([y,z],x)
    term by term.  Only psi.parent, psi.coeff_dim and psi.value are used.
    Returns ((i, j, k), total tuple) or None.
    """
    L = psi.parent
    for i, j, k in combinations(range(L.dim), 3):
        total = [Fraction(0)] * psi.coeff_dim
        for a, b, c, sgn in ((i, j, k, 1), (i, k, j, -1), (j, k, i, 1)):
            for t, coef in L.bracket_basis(a, b).items():
                for s, x in enumerate(psi.value(t, c)):
                    total[s] += sgn * coef * x
        if any(total):
            return (i, j, k), tuple(total)
    return None


def twist_difference_reference(g, A, xi, uc):
    """tau and beta of a connection twist, evaluated entry by entry.

    beta(x_b (x) b_q) = sum over xi entries (c, t): coef kappa(z_c, x_b) (x) [b_q . w_t]
    tau(x_a (x) b_p, x_b (x) b_q) = sum over xi entries and k:
        coef [z_c, x_b]_k kappa(x_a, x_k) (x) [b_p b_q . w_t]
    with one Kaehler module action and one Omega1bar projection per
    term.  Returns (tau values {(fi, fj): tuple}, beta values tuple).
    """
    forms, kaehler = uc.forms, uc.kaehler
    w = kaehler.dim_omega1bar
    m = forms.dim * w
    da = A.dim

    def unit(t):
        out = [Fraction(0)] * kaehler.dim_omega1
        out[t] = Fraction(1)
        return out

    def add_outer(total, kap, bar):
        for s, kv in enumerate(kap):
            for u, bv in enumerate(bar):
                total[s * w + u] += kv * bv

    beta = []
    for b in range(g.dim):
        for q in range(da):
            total = [Fraction(0)] * m
            for (c, t), coef in xi.entries.items():
                kap = forms.kappa_basis(c, b)
                if not any(kap):
                    continue
                moved = module_action_reference(kaehler, A.basis_vector(q), unit(t))
                add_outer(total, kap, kaehler.bar([x * coef for x in moved]))
            beta.append(tuple(total))
    tau = {}
    for a in range(g.dim):
        for p in range(da):
            for b in range(g.dim):
                for q in range(da):
                    fi, fj = a * da + p, b * da + q
                    if fi >= fj:
                        continue
                    pq = A.product(A.basis_vector(p), A.basis_vector(q))
                    if not any(pq):
                        continue
                    total = [Fraction(0)] * m
                    for (c, t), coef in xi.entries.items():
                        for k, cc in g.bracket_basis(c, b).items():
                            kap = forms.kappa_basis(a, k)
                            if not any(kap):
                                continue
                            moved = module_action_reference(kaehler, pq, unit(t))
                            add_outer(total, kap,
                                      kaehler.bar([x * coef * cc for x in moved]))
                    if any(total):
                        tau[(fi, fj)] = tuple(total)
    return tau, tuple(beta)


def coboundary_reference(beta):
    """Values {(i, j): tuple} of d beta, (d beta)(x_i, x_j) = -beta([x_i, x_j]),
    by walking every pair i < j.  Only beta.parent, beta.coeff_dim and
    beta.values are used."""
    L = beta.parent
    table = {}
    for i, j in combinations(range(L.dim), 2):
        total = [Fraction(0)] * beta.coeff_dim
        for k, c in L.bracket_basis(i, j).items():
            for a, x in enumerate(beta.values[k]):
                total[a] -= c * x
        if any(total):
            table[(i, j)] = tuple(total)
    return table


def flat_cochain(cochain, n, p, m):
    """Dense flat vector of a cochain {p-tuple: m-tuple} of C^p(L, Q^m), dim L = n."""
    zero = (Fraction(0),) * m
    return tuple(x for t in combinations(range(n), p) for x in cochain.get(t, zero))


def tuple_cochain(flat, n, p, m):
    """Inverse of flat_cochain: the nonzero values of a flat vector, keyed by tuple."""
    assert len(flat) == comb(n, p) * m
    out = {}
    for r, t in enumerate(combinations(range(n), p)):
        value = tuple(flat[r * m:(r + 1) * m])
        if any(value):
            out[t] = value
    return out


def dense_representatives(h):
    """rep_k (x) e_a of a package Cohomology as flat vectors, k-major and a-minor."""
    n, p, m = h.parent.dim, h.degree, h.coeff_dim
    zero = Fraction(0)
    return tuple(
        flat_cochain({t: (zero,) * a + (value,) + (zero,) * (m - a - 1)
                      for t, value in rep.items()}, n, p, m)
        for rep in h.scalar_representatives for a in range(m)
    )


def coboundary_witness_reference(psi):
    """The primitive or the class of a cocycle psi, one solve of d^1 per
    coefficient slot.

    Slot a of psi's flat vector is solved alone with the package's solve_linear;
    the first slot with no solution gives psi's class coordinates in the
    package's H^2.  psi is not checked to be a cocycle.  Returns
    (beta values as a tuple of m-tuples, None) or (None, class coordinates).
    """
    from currentext.cohomology import ce_differential, cohomology
    from currentext.linalg import solve_linear

    L, m = psi.parent, psi.coeff_dim
    flat = flat_cochain(psi.values, L.dim, 2, m)
    delta1 = ce_differential(L, 1)
    primitive = []
    for a in range(m):
        solution = solve_linear(delta1, flat[a::m])
        if solution is None:
            return None, cohomology(L, 2, m).class_coordinates(psi.values)
        primitive.append(solution)
    return tuple(tuple(x[i] for x in primitive) for i in range(L.dim)), None


def cohomology_reference(L, p, m):
    """H^p(L, Q^m) from the whole scalar complex, with no weight reduction.

    d^p and d^{p-1} are ce_differential on every tuple; the kernel,
    quotient and echelon steps are the package's.  Returns a namespace
    with dimension, representatives (dense flat vectors rep_k (x) e_a,
    k-major) and class_coordinates(flat vector).
    """
    from currentext.cohomology import ce_differential
    from currentext.linalg import Subspace, kernel_basis, quotient_space, rref_with_transform

    d_up = ce_differential(L, p)
    size = d_up.cols
    cocycles = kernel_basis(d_up)
    if p == 1:
        image = Subspace.zero(size)
    else:
        image = Subspace.from_spanning(size, matrix_columns(ce_differential(L, p - 1)))
    quotient = quotient_space(size, image)
    z_rows = cocycles.basis_rows()
    reduced = rref_with_transform([quotient.project(row) for row in z_rows], quotient.dim)
    representatives = []
    for _, combo, _ in reduced:
        rep = [Fraction(0)] * size
        for t, coef in enumerate(combo):
            for col, value in z_rows[t].items():
                rep[col] += coef * value
        for a in range(m):
            flat = [Fraction(0)] * (size * m)
            flat[a::m] = rep
            representatives.append(tuple(flat))

    def class_coordinates(flat_vec):
        assert len(flat_vec) == comb(L.dim, p) * m
        coords = [Fraction(0)] * len(representatives)
        for a in range(m):
            q = quotient.project({c: x for c, x in enumerate(flat_vec[a::m]) if x})
            for k, (vec_part, _, pivot) in enumerate(reduced):
                c = q.get(pivot, Fraction(0))
                if c:
                    coords[k * m + a] = c
                    for col, value in enumerate(vec_part):
                        q[col] = q.get(col, Fraction(0)) - c * value
            if any(q.values()):
                raise ValueError("not a cocycle")
        return tuple(coords)

    return SimpleNamespace(dimension=len(representatives), representatives=tuple(representatives),
                           class_coordinates=class_coordinates)


def _leibniz_row(A, a, b, c):
    """The Leibniz relation c (x) ab - ca (x) b - cb (x) a on the flat
    pairs i * dim + j, as a {pair: Fraction} dict."""
    d = A.dim
    row = {}
    for k, coef in A.product_basis(a, b).items():
        row[c * d + k] = row.get(c * d + k, 0) + coef
    for k, coef in A.product_basis(c, a).items():
        row[k * d + b] = row.get(k * d + b, 0) - coef
    for k, coef in A.product_basis(c, b).items():
        row[k * d + a] = row.get(k * d + a, 0) - coef
    return row


def kaehler_reference(A):
    """Omega1 and Omega1bar of a unital algebra from every Leibniz relation.

    Spans c (x) ab - ca (x) b - cb (x) a over all basis triples (a <= b,
    c) on the flat pairs i * dim + j, with no product-class split; d(b_j)
    and every [b_i d(b_j)] are projections of dense tensors.  The
    elimination and quotient steps are the package's.  Returns a
    namespace with omega1, omega1bar, d_basis(j) and pair_class(i, j).
    """
    from currentext.linalg import Subspace, quotient_space

    d = A.dim
    ambient = d * d
    relations = [_leibniz_row(A, a, b, c) for a in range(d) for b in range(a, d) for c in range(d)]
    omega1 = quotient_space(ambient, Subspace.from_spanning(ambient, relations))

    def unit_tensor(entries):
        tensor = [Fraction(0)] * ambient
        for idx, value in entries:
            tensor[idx] += value
        return omega1.project(tensor)

    pairs = [unit_tensor([(idx, 1)]) for idx in range(ambient)]
    d_rows = [
        unit_tensor([(i * d + j, u) for i, u in enumerate(A.unit) if u]) for j in range(d)
    ]
    omega1bar = quotient_space(omega1.dim, Subspace.from_spanning(omega1.dim, d_rows))
    return SimpleNamespace(
        omega1=omega1,
        omega1bar=omega1bar,
        d_basis=lambda j: d_rows[j],
        pair_class=lambda i, j: pairs[i * d + j],
    )


def kaehler_cross_units_reference(A):
    """The Leibniz span of a unital algebra as one elimination of the
    relations on triples (a <= b, c) inside one product class together
    with every cross-class unit tensor b_i (x) b_j: the rows that
    kaehler_module eliminated before it placed the cross units.  The
    product classes are found here by merging i, j and k for every
    nonzero (b_i b_j)_k; the elimination is the package's.  Returns the
    Subspace."""
    from currentext.linalg import Subspace

    d = A.dim
    group = [{i} for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in A.product_basis(i, j):
                for m in (j, k):
                    if group[m] is not group[i]:
                        merged = group[i] | group[m]
                        for member in merged:
                            group[member] = merged
    relations = [{i * d + j: 1} for i in range(d) for j in range(d) if group[i] is not group[j]]
    relations += [_leibniz_row(A, a, b, c) for a in range(d) for b in range(a, d) for c in range(d)
                  if group[a] is group[b] is group[c]]
    return Subspace.from_spanning(d * d, relations)


def _sparse_rank(rows):
    """Rank of {col: value} rows by incremental elimination over Fraction:
    each row is reduced by the kept row of its lowest column until that
    column is new, and is then kept."""
    kept = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            col = min(row)
            pivot = kept.get(col)
            if pivot is None:
                kept[col] = row
                break
            factor = row[col] / pivot[col]
            for c, v in pivot.items():
                x = row.get(c, 0) - factor * v
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(kept)


def _hochschild_degree_one(A):
    """(cycles, boundaries) of the Hochschild complex of A in degree one.

    C_1 = A (x) A on the flat pairs i * dim + j, and b: C_1 -> C_0 = A is
    b(a (x) b) = ab - ba, so cycles is the dimension of its kernel.
    boundaries lists b(a (x) b (x) c) = ab (x) c - a (x) bc + ca (x) b
    for every basis triple, as {flat pair: Fraction} rows.
    """
    d = A.dim
    images = []
    for i in range(d):
        for j in range(d):
            row = dict(A.product_basis(i, j))
            for k, coef in A.product_basis(j, i).items():
                row[k] = row.get(k, 0) - coef
            images.append(row)
    boundaries = []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                row = {}
                for k, coef in A.product_basis(a, b).items():
                    row[k * d + c] = row.get(k * d + c, 0) + coef
                for k, coef in A.product_basis(b, c).items():
                    row[a * d + k] = row.get(a * d + k, 0) - coef
                for k, coef in A.product_basis(c, a).items():
                    row[k * d + b] = row.get(k * d + b, 0) + coef
                boundaries.append(row)
    return d * d - _sparse_rank(images), boundaries


def hochschild_one_reference(A):
    """HH_1(A) from the Hochschild complex, with no Kaehler module.

    HH_1 = ker(b: A (x) A -> A) / b(A (x) A (x) A), and for commutative A
    it is Omega1 by a (x) b -> [a d(b)] (Loday, Cyclic Homology, 1992, §1.1).
    Returns a namespace with dimension and relations, the b-boundaries
    as {i * dim + j: Fraction} rows.  The ranks are this module's own
    elimination.
    """
    cycles, boundaries = _hochschild_degree_one(A)
    return SimpleNamespace(dimension=cycles - _sparse_rank(boundaries), relations=boundaries)


def cyclic_one_reference(A):
    """HC_1(A) from Connes' complex, with no Kaehler module.

    Over QQ, HC_1 is the degree-one homology of C^lambda_n = A^(x)(n+1) /
    (1 - t), t the signed cyclic shift; C^lambda_1 = A (x) A / span{a (x) b
    + b (x) a} and C^lambda_0 = A.  b maps the cyclic relations to zero,
    so HC_1 = ker(b) / (b-boundaries + cyclic relations), which for
    commutative A is Omega1 / d(A) (Loday, Cyclic Homology,
    1992, §2.1).
    Returns a namespace with dimension and relations, the b-boundaries
    followed by the cyclic relations a (x) b + b (x) a.
    """
    d = A.dim
    cycles, boundaries = _hochschild_degree_one(A)
    symmetric = [{i * d + j: 1} | {j * d + i: 1} if i != j else {i * d + i: 2}
                 for i in range(d) for j in range(i, d)]
    relations = boundaries + symmetric
    return SimpleNamespace(dimension=cycles - _sparse_rank(relations), relations=relations)


def module_action_reference(kaehler, a, w):
    """a . w on Omega1 through the ambient tensors: lift w to the dense
    d^2-vector of b_i (x) d(b_j) coordinates, multiply the first slot by a
    on every coordinate, and project the dense d^2-vector back."""
    A = kaehler.parent
    d = A.dim
    assert len(a) == d
    rep = kaehler.omega1.lift(w)
    out = [Fraction(0)] * (d * d)
    for idx, coef in enumerate(rep):
        if not coef:
            continue
        i, j = divmod(idx, d)
        for k, x in enumerate(a):
            if x:
                for r, c in A.product_basis(k, i).items():
                    out[r * d + j] += Fraction(x) * c * coef
    return kaehler.omega1.project(out)


def _scale_by_coefficient(current, a, u):
    """(1 (x) a) . u on g (x) A, multiplying every coefficient slot by a."""
    out = [Fraction(0)] * current.dim
    for idx, c in enumerate(u):
        if not c:
            continue
        i, p = current.unflat(idx)
        for k, x in enumerate(a):
            if x:
                for r, m in current.coeff.product_basis(k, p).items():
                    out[current.flat(i, r)] += Fraction(x) * m * c
    return tuple(out)


def _extend_element(ss, corner, u):
    """Extension by zero g (x) A_U -> g (x) A."""
    big = ss.current
    out = [Fraction(0)] * big.dim
    for idx, c in enumerate(u):
        if c:
            i, t = corner.current.unflat(idx)
            out[big.flat(i, corner.indices[t])] = Fraction(c)
    return tuple(out)


def _restrict_element(ss, corner, u):
    """Inverse of _extend_element on elements supported inside the corner."""
    back = {p: t for t, p in enumerate(corner.indices)}
    out = [Fraction(0)] * corner.current.dim
    for idx, c in enumerate(u):
        if c:
            i, p = ss.current.unflat(idx)
            out[corner.current.flat(i, back[p])] = Fraction(c)
    return tuple(out)


def _unit(n, idx):
    out = [Fraction(0)] * n
    out[idx] = Fraction(1)
    return out


def restrict_class_reference(psi, ss, corner):
    """psi_U as a Cocycle2, by a psi.value lookup on every pair of corner
    basis elements, each extended by zero."""
    from currentext.cohomology import Cocycle2

    big, small = ss.current, corner.current
    table = {}
    for fi, fj in combinations(range(small.dim), 2):
        value = psi.apply(_extend_element(ss, corner, _unit(small.dim, fi)),
                          _extend_element(ss, corner, _unit(small.dim, fj)))
        if any(value):
            table[(fi, fj)] = value
    return Cocycle2(small.total, psi.coeff_dim, table)


def restrict_cochain_reference(beta, ss, corner):
    """beta composed with extension by zero, applied to every corner unit vector."""
    from currentext.cohomology import OneCochain

    small = corner.current
    values = [beta.apply(_extend_element(ss, corner, _unit(small.dim, idx)))
              for idx in range(small.dim)]
    return OneCochain(small.total, beta.coeff_dim, values)


def glue_primitives_reference(cover, primitives):
    """beta(chi) = sum_k beta_k(lambda_k chi) on every basis vector chi of
    g (x) A, with lambda_k multiplied out as an algebra element and the
    product restricted to a fresh corner over the k-th cover set.  No
    checks are made."""
    from currentext.cohomology import OneCochain
    from currentext.locality import Corner

    corners = [Corner(cover.structure, s) for s in cover.subsets]
    big = cover.structure.current
    m = primitives[0].coeff_dim
    values = []
    for idx in range(big.dim):
        total = [Fraction(0)] * m
        for corner, beta_k, lam in zip(corners, primitives, cover.lambdas):
            moved = _scale_by_coefficient(big, lam, _unit(big.dim, idx))
            if any(moved):
                local = _restrict_element(cover.structure, corner, moved)
                for a, x in enumerate(beta_k.apply(local)):
                    total[a] += x
        values.append(tuple(total))
    return OneCochain(big.total, m, values)


def inject_form_reference(loc, w, small, large):
    """Extension by zero Omega1(A_W) -> Omega1(A_V) through dense tensors:
    w is lifted to a dim(A_W)^2 tensor, each pair (i, j) is moved to the
    A_V pair of the same coefficient basis vectors, and the dim(A_V)^2
    tensor is projected."""
    corner_w, corner_v = loc.corner(small), loc.corner(large)
    kae_w, kae_v = loc.kaehler(corner_w.subset), loc.kaehler(corner_v.subset)
    dw, dv = corner_w.dim, corner_v.dim
    position = {p: t for t, p in enumerate(corner_v.indices)}
    out = [Fraction(0)] * (dv * dv)
    for idx, coef in enumerate(kae_w.omega1.lift(w)):
        if coef:
            i, j = divmod(idx, dw)
            out[position[corner_w.indices[i]] * dv + position[corner_w.indices[j]]] = coef
    return kae_v.omega1.project(out)


def injection_matrix_reference(loc, small, large, bar):
    """Dense rows of the extension map on Omega1bar (bar) or Omega1
    classes, one inject_form_reference per source unit vector."""
    kae_w = loc.kaehler(loc.corner(small).subset)
    kae_v = loc.kaehler(loc.corner(large).subset)
    src_dim = kae_w.dim_omega1bar if bar else kae_w.dim_omega1
    columns = []
    for t in range(src_dim):
        unit = _unit(src_dim, t)
        w = kae_w.omega1bar.lift(unit) if bar else unit
        image = inject_form_reference(loc, w, small, large)
        columns.append(kae_v.bar(image) if bar else image)
    rows = kae_v.dim_omega1bar if bar else kae_v.dim_omega1
    return tuple(tuple(col[r] for col in columns) for r in range(rows))


def decompose_class_reference(loc, w_bar, left, right):
    """(w_V, w_W) as the canonical solve_linear of the stacked system
    [iota_V | iota_W] x = w_bar, its columns those of
    injection_matrix_reference into the union."""
    from currentext.linalg import SparseMatrix, solve_linear

    left, right = loc.corner(left).subset, loc.corner(right).subset
    union = tuple(s for s in loc.structure.points if s in set(left) | set(right))
    m_left = injection_matrix_reference(loc, left, union, True)
    m_right = injection_matrix_reference(loc, right, union, True)
    cols_left = loc.kaehler(left).dim_omega1bar
    cols = cols_left + loc.kaehler(right).dim_omega1bar
    data = {}
    for r, (row_left, row_right) in enumerate(zip(m_left, m_right)):
        for c, x in enumerate(tuple(row_left) + tuple(row_right)):
            if x:
                data[(r, c)] = x
    solution = solve_linear(SparseMatrix(len(m_left), cols, data), w_bar)
    return solution[:cols_left], solution[cols_left:]


def adjoin_unit_extend_reference(A, psi, current):
    """psi+ on g (x) A+ by a loop over every pair of basis elements of
    g (x) A+: psi.value on two non-constant ones, psi.apply against
    x_j (x) lambda for a constant x_j (x) 1, lambda the local unit of the
    other's coefficient.  The diagonality check first reads psi.value on
    every pair of basis elements of g (x) A with disjoint supports and
    raises NotDiagonalError on the first nonzero one."""
    from currentext.cohomology import Cocycle2
    from currentext.current import (
        CurrentAlgebra,
        _local_unit,
        _support_points,
        adjoin_unit_extend,
    )
    from currentext.errors import NotDiagonalError

    g, n = current.fibre, A.dim
    current_plus = CurrentAlgebra(g, adjoin_unit_extend(A).algebra)
    lambdas = [(Fraction(0),) * n] * n
    if not psi.is_zero():
        if A.idempotents is not None:
            supports = [_support_points(A, A.basis_vector(p)) for p in range(n)]
            for fi, fj in combinations(range(current.dim), 2):
                if supports[current.unflat(fi)[1]] & supports[current.unflat(fj)[1]]:
                    continue
                if any(psi.value(fi, fj)):
                    raise NotDiagonalError((fi, fj))
        lambdas = [_local_unit(A, A.basis_vector(p)) for p in range(n)]

    def element(i, coeff):
        return current.tensor(g.basis_element(i).coords, coeff)

    table = {}
    for fi, fj in combinations(range(current_plus.dim), 2):
        i, p_plus = current_plus.unflat(fi)
        j, q_plus = current_plus.unflat(fj)
        if p_plus == 0 and q_plus == 0:
            continue
        if p_plus > 0 and q_plus > 0:
            value = psi.value(current.flat(i, p_plus - 1), current.flat(j, q_plus - 1))
        elif q_plus == 0:
            value = psi.apply(element(i, A.basis_vector(p_plus - 1)),
                              element(j, lambdas[p_plus - 1]))
        else:
            value = psi.apply(element(i, lambdas[q_plus - 1]),
                              element(j, A.basis_vector(q_plus - 1)))
        if any(value):
            table[(fi, fj)] = value
    return Cocycle2(current_plus.total, psi.coeff_dim, table)
