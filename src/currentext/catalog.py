"""Built-in algebra catalog.

Lie algebras: sl2, sl3, so3, heis3, abelian:n, sl2C (realified, dim 6),
gl2, and direct sums joined with "+".  Commutative algebras: jets:n
(QQ[t]/(t^n)), sq2 (QQ[x,y]/(x^2,y^2)), fun:n (QQ^n pointwise with the
idempotent point decomposition), and tensor products joined with "*".
su(2) is represented by its rational form so3 ([e1,e2] = e3 cyclically).
"""

from __future__ import annotations

from fractions import Fraction

from .current import CommAlgebra, tensor_comm
from .errors import CatalogError
from .lie import LieAlgebra, _gl, direct_sum, realify

_ONE = Fraction(1)
_ZERO = Fraction(0)


def _sl2() -> LieAlgebra:
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h on the basis (e, h, f)
    return LieAlgebra._from_integer_table(
        ("e", "h", "f"), 1, {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}})


def _so3() -> LieAlgebra:
    return LieAlgebra._from_integer_table(
        ("e1", "e2", "e3"), 1, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})


def _heis3() -> LieAlgebra:
    return LieAlgebra._from_integer_table(("x", "y", "z"), 1, {(0, 1): {2: 1}})


def _abelian(n: int) -> LieAlgebra:
    return LieAlgebra._from_integer_table(tuple(f"a{i + 1}" for i in range(n)), 1, {})


def _sl3() -> LieAlgebra:
    # h1 = E11 - E22, h2 = E22 - E33 and the root vectors E_ab of gl(3),
    # whose coordinate a * 3 + b is the matrix entry (a, b)
    labels = ("h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3")
    vectors = [{0: 1, 4: -1}, {4: 1, 8: -1}, {1: 1}, {5: 1}, {2: 1}, {3: 1}, {7: 1}, {6: 1}]
    return LieAlgebra._from_integer_table(labels, *_gl(3)._entries_on(vectors))


def _sl2c() -> LieAlgebra:
    return realify(_sl2())


def _jets(n: int) -> CommAlgebra:
    # t^i t^j = t^(i + j) while i + j < n
    labels = tuple("1" if i == 0 else ("t" if i == 1 else f"t^{i}") for i in range(n))
    rows = {(i, j): {i + j: 1} for i in range(n) for j in range(i, n - i)}
    return CommAlgebra._from_integer_table(labels, 1, rows, (_ONE,) + (_ZERO,) * (n - 1))


def _sq2() -> CommAlgebra:
    # 1, x, y, xy: 1 is the unit, xy = x y and every other product is 0
    rows = {(0, j): {j: 1} for j in range(4)}
    rows[(1, 2)] = {3: 1}
    return CommAlgebra._from_integer_table(
        ("1", "x", "y", "xy"), 1, rows, (_ONE, _ZERO, _ZERO, _ZERO))


def _fun(n: int) -> CommAlgebra:
    labels = tuple(f"e{s + 1}" for s in range(n))
    idempotents = tuple(
        (str(s + 1), tuple(_ONE if t == s else _ZERO for t in range(n))) for s in range(n)
    )
    return CommAlgebra._from_integer_table(
        labels, 1, {(s, s): {s: 1} for s in range(n)}, (_ONE,) * n, idempotents)


# one name table per kind: a fixed name maps to its builder, and a
# family kind:n, keyed "kind:", to (builder, what n counts, least n)
_LIE_TABLE = {
    "sl2": _sl2, "sl3": _sl3, "so3": _so3, "heis3": _heis3, "sl2C": _sl2c,
    "gl2": lambda: _gl(2), "abelian:": (_abelian, "abelian dimension", 0),
}
_COMM_TABLE = {"sq2": _sq2, "jets:": (_jets, "jet order", 1), "fun:": (_fun, "point count", 1)}


def _single(name: str, table: dict, kind: str):
    """The algebra of one catalog name: a fixed name, or kind:n with n
    ASCII digits, no leading zero, of at least the family's least value,
    so that each algebra has one spelling.  n has at most 4,300 digits,
    the most that int() reads by default; no family gets near that."""
    key, colon, arg = name.partition(":")
    entry = table.get(key + colon)
    if entry is None:
        raise CatalogError(f"unknown {kind} {name!r}")
    if not colon:
        return entry()
    build, what, least = entry
    canonical = arg.isascii() and arg.isdigit() and (arg == "0" or arg[0] != "0")
    n = int(arg) if canonical and len(arg) <= 4300 else least - 1
    if n < least:
        raise CatalogError(f"bad {what} in {name!r}")
    return build(n)


def lie_catalog(name: str) -> LieAlgebra:
    """Resolve a catalog Lie algebra name; "+" builds direct sums."""
    parts = [p.strip() for p in name.split("+")]
    if not all(parts):
        raise CatalogError(f"malformed Lie algebra name {name!r}")
    algebras = [_single(p, _LIE_TABLE, "Lie algebra") for p in parts]
    return algebras[0] if len(algebras) == 1 else direct_sum(*algebras)


def comm_catalog(name: str) -> CommAlgebra:
    """Resolve a catalog commutative algebra name; "*" tensors factors."""
    parts = [p.strip() for p in name.split("*")]
    if not all(parts):
        raise CatalogError(f"malformed commutative algebra name {name!r}")
    out = _single(parts[0], _COMM_TABLE, "commutative algebra")
    for part in parts[1:]:
        out = tensor_comm(out, _single(part, _COMM_TABLE, "commutative algebra"))
    return out


LIE_NAMES = ("sl2", "sl3", "so3", "heis3", "sl2C", "gl2", "abelian:3")
COMM_NAMES = ("jets:3", "sq2", "fun:2", "fun:3", "fun:2*sq2", "fun:2*jets:2")


def catalog_listing():
    """Representative catalog instances, used by `validate --all`."""
    return {"lie": LIE_NAMES, "comm": COMM_NAMES}
