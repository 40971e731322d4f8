"""Acceptance suite.

Each test covers one numbered acceptance criterion, performs every check
exactly (zero tolerance: all arithmetic is rational) and prints a single
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
import pytest

from currentext.catalog import comm_catalog, lie_catalog
from currentext.cli import run_command
from currentext.cohomology import (
    Cocycle2,
    OneCochain,
    ce_differential,
    coboundary_witness,
    cohomology,
)
from currentext.current import (
    GValuedOneForm,
    current_algebra,
    twist_difference,
    universal_cocycle,
    universality_map,
)
from currentext.errors import NotInDerivedAlgebraError
from currentext.invariants import BilinearForm, factor_through, v_space_and_kappa
from currentext.lie import killing_form, perfect_witness
from currentext.linalg import kernel_basis
from currentext.locality import Cover, SupportStructure, glue_primitives, is_diagonal, restrict_class

from oracles import basis_vectors, matrix_columns, tuple_cochain

F = Fraction


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} ({time.time() - start:.2f}s)")


def _compose_is_zero(upper, lower):
    """upper o lower = 0, via column accumulation (sparse-friendly)."""
    upper_cols = matrix_columns(upper)
    for column in matrix_columns(lower):
        acc = {}
        for row, value in column.items():
            for out_row, w in upper_cols[row].items():
                acc[out_row] = acc.get(out_row, F(0)) + value * w
        if any(acc.values()):
            return False
    return True


def test_criterion_1_whitehead_suite():
    with criterion(1, "H^1 = H^2 = 0 for sl2, so3, sl3, sl2C"):
        for name in ("sl2", "so3", "sl3", "sl2C"):
            start = time.time()
            L = lie_catalog(name)
            assert cohomology(L, 1, 1).dimension == 0, name
            assert cohomology(L, 2, 1).dimension == 0, name
            assert time.time() - start < 60, f"{name} exceeded 60s"


def test_criterion_2_universal_form_suite():
    with criterion(2, "V dimensions, Killing factorisations, kappa invariance"):
        for name in ("sl2", "so3"):
            forms = v_space_and_kappa(lie_catalog(name))
            assert forms.dim == 1, name
            matrix, _ = killing_form(forms.parent)
            phi = factor_through(forms, BilinearForm.from_matrix(matrix))
            assert any(any(row) for row in phi.matrix), name
            assert phi.kernel_dim() == 0, name
        forms_c = v_space_and_kappa(lie_catalog("sl2C"))
        assert forms_c.dim == 2
        matrix_c, _ = killing_form(forms_c.parent)
        phi_c = factor_through(forms_c, BilinearForm.from_matrix(matrix_c))
        assert phi_c.rank() == 1 and phi_c.kernel_dim() == 1  # Killing not universal
        for n in (2, 3, 4):
            assert v_space_and_kappa(lie_catalog(f"abelian:{n}")).dim == 0
        # kappa(Dx, y) + kappa(x, Dy) = 0 on derivation basis x basis pairs
        for name in ("sl2", "so3", "sl2C"):
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
                        assert not any(total), (name, i, j)


UNIVERSALITY_TABLE = [
    # fibre, coefficients, dim V, dim Omega1bar, dim H^2
    ("sl2", "sq2", 1, 1, 1),
    ("sl2", "fun:2*sq2", 1, 2, 2),
    ("sl2", "jets:3", 1, 0, 0),
    ("sl2", "fun:2", 1, 0, 0),
    ("sl2+so3", "sq2", 2, 1, 2),
]

_UC_CACHE = {}


def _pieces(gname, aname):
    key = (gname, aname)
    if key not in _UC_CACHE:
        _UC_CACHE[key] = universal_cocycle(lie_catalog(gname), comm_catalog(aname))
    return _UC_CACHE[key]


def test_criterion_3_current_algebra_universality():
    with criterion(3, "phi -> [phi o omega] bijective on the catalog pairs"):
        for gname, aname, dim_v, dim_w, dim_h2 in UNIVERSALITY_TABLE:
            start = time.time()
            uc = _pieces(gname, aname)
            assert uc.forms.dim == dim_v, (gname, aname)
            assert uc.kaehler.dim_omega1bar == dim_w, (gname, aname)
            result = universality_map(
                lie_catalog(gname), comm_catalog(aname), 1, uc=uc
            )
            assert result.dim_h2 == dim_h2, (gname, aname)
            assert result.dim_hom == dim_v * dim_w, (gname, aname)
            assert result.bijective, (gname, aname)
            assert time.time() - start < 300, f"({gname}, {aname}) exceeded 5 min"


def test_criterion_4_cocycle_identities():
    with criterion(4, "alternation, cyclic identity, d o d = 0 on all pairs"):
        for gname, aname, *_ in UNIVERSALITY_TABLE:
            uc = _pieces(gname, aname)
            psi = uc.cocycle
            n = uc.current.dim
            for i in range(n):
                for j in range(n):
                    assert psi.value(i, j) == tuple(-x for x in psi.value(j, i))
            assert psi.cocycle_defect() is None, (gname, aname)
            L = uc.current.total
            for p in (0, 1, 2):
                lower = ce_differential(L, p)
                upper = ce_differential(L, p + 1)
                assert _compose_is_zero(upper, lower), (gname, aname, p)


def test_criterion_5_connection_twist():
    with criterion(5, "10 randomized twists: tau = d beta and [omega+tau] = [omega]"):
        g, A = lie_catalog("sl2"), comm_catalog("sq2")
        uc = _pieces("sl2", "sq2")
        rng = random.Random(2024)
        for trial in range(10):
            entries = {}
            for i in range(g.dim):
                for t in range(uc.kaehler.dim_omega1):
                    value = rng.randint(-4, 4)
                    if value:
                        entries[(i, t)] = F(value)
            xi = GValuedOneForm(g.dim, uc.kaehler.dim_omega1, entries)
            result = twist_difference(g, A, xi, uc=uc)
            # entrywise d beta = tau
            assert result.beta.coboundary() == result.tau, trial
            # [omega + tau] = [omega] via coboundary_witness
            shifted = uc.cocycle + result.tau
            witness = coboundary_witness(shifted - uc.cocycle)
            assert witness.is_exact, trial
            assert witness.beta.coboundary() == result.tau, trial


def test_criterion_6_diagonality_of_cocycle_spaces():
    with criterion(6, "full Z^2 bases are diagonal (sl2 x fun:3, sl2 x fun:2*jets:2)"):
        for aname in ("fun:3", "fun:2*jets:2"):
            ca = current_algebra(lie_catalog("sl2"), comm_catalog(aname))
            ss = SupportStructure(ca)
            z2 = kernel_basis(ce_differential(ca.total, 2))
            assert z2.dim > 0, aname
            for vec in basis_vectors(z2):
                psi = Cocycle2(ca.total, 1, tuple_cochain(vec, ca.dim, 2, 1))
                assert is_diagonal(psi, ss).ok, aname


def test_criterion_7_gluing():
    with criterion(7, "glue local primitives over {1,2},{2,3},{3,4} on sl2 x fun:4*jets:2"):
        g = lie_catalog("sl2")
        A = comm_catalog("fun:4*jets:2")
        ca = current_algebra(g, A)
        ss = SupportStructure(ca)
        cover = Cover(ss, [("1", "2"), ("2", "3"), ("3", "4")])
        rng = random.Random(7)
        for trial in range(10):
            beta0 = OneCochain(
                ca.total, 1, [(F(rng.randint(-5, 5)),) for _ in range(ca.dim)]
            )
            psi = beta0.coboundary()
            primitives = []
            for subset in cover.subsets:
                witness = coboundary_witness(restrict_class(psi, ss, subset))
                assert witness.is_exact, (trial, subset)
                primitives.append(witness.beta)
            glued = glue_primitives(psi, cover, primitives)
            assert glued.coboundary() == psi, trial
        # local identity axiom: all restrictions exact => globally exact,
        # exhibited on a random element of the full cocycle space
        z2 = kernel_basis(ce_differential(ca.total, 2))
        combo = [F(rng.randint(-3, 3)) for _ in range(z2.dim)]
        flat = [F(0)] * (ca.dim * (ca.dim - 1) // 2)
        for c, vec in zip(combo, basis_vectors(z2)):
            if c:
                for t, x in enumerate(vec):
                    flat[t] += c * x
        psi = Cocycle2(ca.total, 1, tuple_cochain(flat, ca.dim, 2, 1))
        primitives = []
        for subset in cover.subsets:
            witness = coboundary_witness(restrict_class(psi, ss, subset))
            assert witness.is_exact, subset
            primitives.append(witness.beta)
        glued = glue_primitives(psi, cover, primitives)
        assert glued.coboundary() == psi  # [psi] = 0 globally


def test_criterion_8_perfectness_witnesses():
    with criterion(8, "25 randomized commutator decompositions on sl2 x jets:4"):
        ca = current_algebra(lie_catalog("sl2"), comm_catalog("jets:4"))
        L = ca.total
        rng = random.Random(25)
        for trial in range(25):
            coords = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(L.dim)]
            x = L.element(coords)
            total = L.element([0] * L.dim)
            for mu, nu in perfect_witness(L, x):
                total = total + mu.bracket(nu)
            assert total == x, trial
        heis = lie_catalog("heis3")
        with pytest.raises(NotInDerivedAlgebraError) as info:
            perfect_witness(heis, heis.basis_element(0))
        assert info.value.defect_coordinates == (F(1), F(0))


def test_criterion_9_oracle_cross_checks():
    with criterion(9, "H^2(heis3) = 2 and H^2(abelian:3) = 3 vs hand CE oracles"):
        # hand oracle (heis3, [x,y] = z): im d^1 = span{(x,y) -> -beta(z)},
        # rank 1; d^2 = 0 since the only triple evaluates on a repeated
        # argument or a central bracket; H^2 = 3 - 1 = 2
        assert cohomology(lie_catalog("heis3"), 2, 1).dimension == 2
        # hand oracle (abelian:3): both differentials vanish, H^2 = C(3,2) = 3
        assert cohomology(lie_catalog("abelian:3"), 2, 1).dimension == 3


CLI_SUITE = [
    ["validate", "--all", "--format", "json"],
    ["info", "sl2+so3", "--format", "json"],
    ["killing", "sl2", "--format", "json"],
    ["derivations", "heis3", "--format", "json"],
    ["witness", "sl2", "h", "--format", "json"],
    ["vform", "sl2C", "--format", "json"],
    ["h2", "heis3", "--format", "json"],
    ["kaehler", "sq2", "--format", "json"],
    ["omegabar", "fun:2*sq2", "--format", "json"],
    ["current", "sl2", "jets:2", "--format", "json"],
    ["cocycle-check", "sl2", "fun:2*sq2", "--format", "json"],
    ["universality", "sl2", "sq2", "--format", "json"],
    ["twist", "sl2", "sq2", "--seed", "5", "--format", "json"],
    ["glue-demo", "sl2", "fun:3*jets:2", "--cover", "1,2;2,3", "--format", "json"],
]


def test_criterion_10_determinism():
    with criterion(10, "full CLI suite twice: byte-identical JSON reports"):
        first = [run_command(argv).to_json().encode() for argv in CLI_SUITE]
        second = [run_command(argv).to_json().encode() for argv in CLI_SUITE]
        assert first == second
        assert all(run_command(argv).exit_code == 0 for argv in CLI_SUITE)
