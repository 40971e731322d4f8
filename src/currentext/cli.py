"""Command-line front end.

Algebras are taken either from the built-in catalog by name (sl2,
heis3, abelian:4, sl2+so3, jets:3, fun:2*sq2, ...) or from JSON
documents when the argument names an existing file or ends in ``.json``.
Reports go to stdout as human-readable text or canonical JSON
(``--format json``); canonical means byte-stable across runs, with all
rationals rendered as "p/q" strings.

Exit codes: 0 success, 1 invalid input, 2 a checked mathematical
property failed, 3 resource ceiling exceeded, 64 usage error, 70
internal consistency failure (a bug, not a data problem).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import catalog
from .cohomology import Cocycle2, OneCochain, coboundary_witness, cohomology
from .current import (
    CommAlgebra,
    CurrentAlgebra,
    GValuedOneForm,
    kaehler_module,
    twist_difference,
    universal_cocycle,
    universality_map,
)
from .errors import (
    CurrentExtError,
    DocumentError,
    InputError,
    InternalConsistencyError,
    InvalidAlgebraError,
    PropertyError,
    ResourceCeilingError,
)
from .invariants import BilinearForm, factor_through, v_space_and_kappa
from .lie import LieAlgebra, derivations, is_perfect, killing_form, perfect_witness, validate_lie
from .linalg import vector
from .locality import Cover, SupportStructure, glue_primitives, is_diagonal, restrict_class

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROPERTY = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class UsageError(Exception):
    pass


def _encode(value):
    """Render a result tree with rationals as canonical strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(str(v) for v in value)
    return value


class Report:
    """Command outcome: echoed inputs, results, status, exit code."""

    def __init__(self, command, inputs, results, status="ok", exit_code=EXIT_OK):
        self.command = command
        self.inputs = inputs
        self.results = results
        self.status = status
        self.exit_code = exit_code
        self.format = "text"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": _encode(self.inputs),
            "results": _encode(self.results),
            "status": self.status,
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"input {key}: {value}")
        lines.extend(_text_lines(self.results, ""))
        lines.append(f"status: {self.status}")
        return "\n".join(lines) + "\n"


def _text_lines(tree, prefix):
    lines = []
    if isinstance(tree, dict):
        for key, value in tree.items():
            label = f"{prefix}{key}"
            if isinstance(value, dict):
                lines.append(f"{label}:")
                lines.extend(_text_lines(value, prefix + "  "))
            else:
                lines.append(f"{label}: {_flat_text(value)}")
    else:
        lines.append(f"{prefix}{_flat_text(tree)}")
    return lines


def _flat_text(value):
    encoded = _encode(value)
    if isinstance(encoded, list):
        return json.dumps(encoded)
    return str(encoded)


def _parse_rational(value, where):
    if isinstance(value, bool):
        raise DocumentError(f"{where}: boolean is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {value!r} ({exc})") from None
    raise DocumentError(f"{where}: expected rational string or integer, got {value!r}")


def _parse_triplets(raw, dim, where):
    if not isinstance(raw, list):
        raise DocumentError(f"{where} must be a list of [i, j, k, coefficient] entries")
    out = []
    for pos, entry in enumerate(raw):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise DocumentError(f"{where}[{pos}] must be [i, j, k, coefficient]")
        i, j, k, coeff = entry
        for idx in (i, j, k):
            if not isinstance(idx, int) or not 0 <= idx < dim:
                raise DocumentError(f"{where}[{pos}]: index {idx!r} out of range for dim {dim}")
        out.append((i, j, k, _parse_rational(coeff, f"{where}[{pos}]")))
    return out


def parse_algebra_document(text: str):
    """Parse and validate a JSON algebra document.

    Returns a LieAlgebra (kind "lie") or CommAlgebra (kind "comm");
    schema violations raise DocumentError, axiom failures raise
    InvalidAlgebraError with the violating triples.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("lie", "comm"):
        raise DocumentError('document "kind" must be "lie" or "comm"')
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 0:
        raise DocumentError('document "dim" must be a nonnegative integer')
    if "labels" in doc:
        labels = doc["labels"]
        if not (isinstance(labels, list) and len(labels) == dim
                and all(isinstance(s, str) for s in labels)):
            raise DocumentError('document "labels" must list dim strings')
    else:
        labels = [f"b{i}" for i in range(dim)]
    if kind == "lie":
        entries = _parse_triplets(doc.get("brackets", []), dim, "brackets")
        try:
            algebra = LieAlgebra(labels, entries)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
        report = validate_lie(algebra)
        if not report.ok:
            raise InvalidAlgebraError(
                "Lie axioms fail: "
                f"antisymmetry {report.antisymmetry_violations[:3]}, "
                f"jacobi {[v[0] for v in report.jacobi_violations[:3]]}"
            )
        return algebra
    entries = _parse_triplets(doc.get("products", []), dim, "products")
    unit = doc.get("unit")
    if unit is not None:
        if not (isinstance(unit, list) and len(unit) == dim):
            raise DocumentError('document "unit" must list dim coordinates')
        unit = [_parse_rational(x, "unit") for x in unit]
    idempotents = doc.get("idempotents")
    if idempotents is not None:
        if not isinstance(idempotents, list):
            raise DocumentError('document "idempotents" must be a list')
        parsed = []
        for pos, item in enumerate(idempotents):
            if not (isinstance(item, dict) and "point" in item and "coords" in item):
                raise DocumentError(f'idempotents[{pos}] must have "point" and "coords"')
            coords = item["coords"]
            if not (isinstance(coords, list) and len(coords) == dim):
                raise DocumentError(f"idempotents[{pos}]: coords must list dim entries")
            parsed.append(
                (str(item["point"]), [_parse_rational(x, f"idempotents[{pos}]") for x in coords])
            )
        idempotents = parsed
    try:
        algebra = CommAlgebra(labels, entries, unit, idempotents)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    report = algebra.validate()
    if not report.ok:
        raise InvalidAlgebraError(
            "commutative algebra axioms fail: "
            f"commutativity {report.commutativity[:3]}, "
            f"associativity {[v[0] for v in report.associativity[:3]]}, "
            f"unit {report.unit[:3]}, idempotents {report.idempotents[:3]}"
        )
    return algebra


def _load_algebra(name: str, want: str):
    """Resolve a catalog name or JSON file path to an algebra.

    want is "lie", "comm" or "any"; a kind mismatch is a DocumentError.
    """
    looks_like_file = name.endswith(".json") or os.sep in name or os.path.exists(name)
    if looks_like_file:
        try:
            with open(name, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {name!r}: {exc}") from None
        algebra = parse_algebra_document(text)
    elif want == "lie":
        algebra = catalog.lie_catalog(name)
    elif want == "comm":
        algebra = catalog.comm_catalog(name)
    else:
        try:
            algebra = catalog.lie_catalog(name)
        except InputError:
            algebra = catalog.comm_catalog(name)
    if want == "lie" and not isinstance(algebra, LieAlgebra):
        raise DocumentError(f"{name!r} is not a Lie algebra")
    if want == "comm" and not isinstance(algebra, CommAlgebra):
        raise DocumentError(f"{name!r} is not a commutative algebra")
    return algebra


def _matrix_rows(matrix):
    return [list(row) for row in matrix]


def _cocycle_entries(psi: Cocycle2):
    return [[i, j, list(value)] for i, j, value in psi.entries()]


def _element_coords(L: LieAlgebra, spec: str):
    if spec in L.labels:
        return L.basis_element(L.labels.index(spec)).coords
    if spec.startswith("["):
        try:
            coords = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"bad element coordinates: {exc}") from None
        if not (isinstance(coords, list) and len(coords) == L.dim):
            raise DocumentError(f"element coordinates must list {L.dim} entries")
        return vector([_parse_rational(x, "element") for x in coords])
    try:
        index = int(spec)
    except ValueError:
        raise DocumentError(
            f"element {spec!r} is neither a basis label, an index, nor a coordinate list"
        ) from None
    if not 0 <= index < L.dim:
        raise DocumentError(f"basis index {index} out of range")
    return L.basis_element(index).coords


def _random_one_form(fibre_dim, omega1_dim, seed):
    rng = random.Random(seed)
    entries = {}
    for i in range(fibre_dim):
        for t in range(omega1_dim):
            value = rng.randint(-3, 3)
            if value:
                entries[(i, t)] = Fraction(value)
    return GValuedOneForm(fibre_dim, omega1_dim, entries)


# --- subcommand implementations -------------------------------------------

def _cmd_validate(args):
    names = list(args.algebras)
    if args.all:
        listing = catalog.catalog_listing()
        names = list(listing["lie"]) + list(listing["comm"])
    if not names:
        raise UsageError("validate requires algebra names or --all")
    results = {}
    failures = 0
    for name in names:
        try:
            algebra = _load_algebra(name, "any")
        except CurrentExtError as exc:
            results[name] = {"valid": False, "error": str(exc)}
            failures += 1
            continue
        if isinstance(algebra, LieAlgebra):
            report = validate_lie(algebra)
            results[name] = {
                "kind": "lie",
                "dim": algebra.dim,
                "valid": report.ok,
                "antisymmetry_violations": report.antisymmetry_violations,
                "jacobi_violations": [list(v[0]) for v in report.jacobi_violations],
            }
            failures += 0 if report.ok else 1
        else:
            report = algebra.validate()
            results[name] = {
                "kind": "comm",
                "dim": algebra.dim,
                "valid": report.ok,
            }
            failures += 0 if report.ok else 1
    status = "ok" if failures == 0 else "invalid-input"
    return Report(
        "validate",
        {"algebras": names},
        results,
        status,
        EXIT_OK if failures == 0 else EXIT_INPUT,
    )


def _cmd_info(args):
    algebra = _load_algebra(args.algebra, "any")
    if isinstance(algebra, LieAlgebra):
        results = {
            "kind": "lie",
            "dim": algebra.dim,
            "labels": list(algebra.labels),
            "perfect": is_perfect(algebra),
            "semisimple": killing_form(algebra)[1],
        }
    else:
        results = {
            "kind": "comm",
            "dim": algebra.dim,
            "labels": list(algebra.labels),
            "unital": algebra.is_unital,
            "points": list(algebra.points) if algebra.points else None,
        }
    return Report("info", {"algebra": args.algebra}, results)


def _cmd_killing(args):
    L = _load_algebra(args.algebra, "lie")
    matrix, semisimple = killing_form(L)
    return Report(
        "killing",
        {"algebra": args.algebra},
        {"matrix": _matrix_rows(matrix), "semisimple": semisimple},
    )


def _cmd_derivations(args):
    L = _load_algebra(args.algebra, "lie")
    ders = derivations(L)
    return Report(
        "derivations",
        {"algebra": args.algebra},
        {
            "dim": ders.dim,
            "contains_inner": ders.contains_inner,
            "all_inner": ders.all_inner,
        },
    )


def _cmd_witness(args):
    L = _load_algebra(args.algebra, "lie")
    coords = _element_coords(L, args.element)
    pairs = perfect_witness(L, coords)
    return Report(
        "witness",
        {"algebra": args.algebra, "element": args.element},
        {
            "pairs": [[list(mu.coords), list(nu.coords)] for mu, nu in pairs],
            "count": len(pairs),
        },
    )


def _cmd_vform(args):
    L = _load_algebra(args.algebra, "lie")
    forms = v_space_and_kappa(L)
    kappa_entries = []
    for i in range(L.dim):
        for j in range(i, L.dim):
            value = forms.kappa_basis(i, j)
            if any(value):
                kappa_entries.append([i, j, list(value)])
    results = {
        "dim_v": forms.dim,
        "kappa": kappa_entries,
    }
    matrix, semisimple = killing_form(L)
    factor = factor_through(forms, BilinearForm.from_matrix(matrix))
    results["killing_factor"] = {
        "matrix": _matrix_rows(factor.matrix),
        "kernel_dim": factor.kernel_dim(),
    }
    results["semisimple"] = semisimple
    return Report("vform", {"algebra": args.algebra}, results)


def _cmd_h2(args):
    L = _load_algebra(args.algebra, "lie")
    result = cohomology(L, 2, args.coeff_dim, ceiling=args.max_cochain)
    return Report(
        "h2",
        {"algebra": args.algebra, "coeff_dim": args.coeff_dim},
        {
            "dim": result.dimension,
            "representatives": [
                _cocycle_entries(rep) for rep in result.representative_cocycles()
            ],
        },
    )


def _cmd_kaehler(args):
    A = _load_algebra(args.algebra, "comm")
    module = kaehler_module(A)
    d_matrix = [list(module.d_basis(j)) for j in range(A.dim)]
    return Report(
        "kaehler",
        {"algebra": args.algebra},
        {
            "dim": A.dim,
            "dim_omega1": module.dim_omega1,
            "dim_omega1bar": module.dim_omega1bar,
            "d_columns": d_matrix,
        },
    )


def _cmd_omegabar(args):
    A = _load_algebra(args.algebra, "comm")
    module = kaehler_module(A)
    reps = []
    for t in range(module.dim_omega1bar):
        unit = [Fraction(0)] * module.dim_omega1bar
        unit[t] = Fraction(1)
        omega1 = module.omega1bar.lift(unit)
        tensor = module.omega1.lift(omega1)
        terms = []
        for idx, coeff in enumerate(tensor):
            if coeff:
                i, j = divmod(idx, A.dim)
                terms.append([str(coeff), A.labels[i], A.labels[j]])
        reps.append(terms)
    return Report(
        "omegabar",
        {"algebra": args.algebra},
        {
            "dim_omega1bar": module.dim_omega1bar,
            "representatives": reps,
            "term_format": "[coefficient, a, b] meaning coefficient * a d(b)",
        },
    )


def _cmd_current(args):
    g = _load_algebra(args.fibre, "lie")
    A = _load_algebra(args.coefficients, "comm")
    ca = CurrentAlgebra(g, A)
    report = validate_lie(ca.total)
    return Report(
        "current",
        {"fibre": args.fibre, "coefficients": args.coefficients},
        {
            "dim": ca.dim,
            "valid": report.ok,
            "perfect": is_perfect(ca.total),
            "labels": list(ca.total.labels),
        },
    )


def _cmd_cocycle_check(args):
    g = _load_algebra(args.fibre, "lie")
    A = _load_algebra(args.coefficients, "comm")
    uc = universal_cocycle(g, A)
    psi = uc.cocycle
    ca = uc.current
    alternating = True  # i < j storage is alternating by construction
    defect = psi.cocycle_defect()
    constants_ok = True
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            u = ca.embed_fibre(g.basis_element(i).coords)
            v = ca.embed_fibre(g.basis_element(j).coords)
            if any(psi.apply(u, v)):
                constants_ok = False
    diagonal = None
    if A.idempotents is not None:
        diagonal = bool(is_diagonal(psi, SupportStructure(ca)))
    ok = alternating and defect is None and constants_ok and (diagonal is not False)
    results = {
        "coeff_dim": psi.coeff_dim,
        "nonzero_pairs": len(psi.values),
        "alternating": alternating,
        "cocycle_identity": defect is None,
        "vanishes_on_constants": constants_ok,
        "diagonal": diagonal,
        "note": uc.note,
    }
    return Report(
        "cocycle-check",
        {"fibre": args.fibre, "coefficients": args.coefficients},
        results,
        "ok" if ok else "property-failed",
        EXIT_OK if ok else EXIT_PROPERTY,
    )


def _cmd_universality(args):
    g = _load_algebra(args.fibre, "lie")
    A = _load_algebra(args.coefficients, "comm")
    uc = universal_cocycle(g, A)
    result = universality_map(g, A, args.coeff_dim, uc=uc, ceiling=args.max_cochain)
    results = {
        "dim_v": uc.forms.dim,
        "dim_omega1bar": uc.kaehler.dim_omega1bar,
        "dim_hom": result.dim_hom,
        "dim_h2": result.dim_h2,
        "matrix": _matrix_rows(result.matrix),
        "bijective": result.bijective,
    }
    status = "ok" if result.bijective else "property-failed"
    return Report(
        "universality",
        {"fibre": args.fibre, "coefficients": args.coefficients, "coeff_dim": args.coeff_dim},
        results,
        status,
        EXIT_OK if result.bijective else EXIT_PROPERTY,
    )


def _cmd_twist(args):
    g = _load_algebra(args.fibre, "lie")
    A = _load_algebra(args.coefficients, "comm")
    uc = universal_cocycle(g, A)
    xi = _random_one_form(g.dim, uc.kaehler.dim_omega1, args.seed)
    result = twist_difference(g, A, xi, uc=uc)
    witness = coboundary_witness(result.tau, ceiling=args.max_cochain)
    return Report(
        "twist",
        {"fibre": args.fibre, "coefficients": args.coefficients, "seed": args.seed},
        {
            "xi_entries": [[i, t, c] for (i, t), c in sorted(xi.entries.items())],
            "tau_nonzero_pairs": len(result.tau.values),
            "coboundary_verified": True,  # twist_difference verifies internally
            "class_unchanged": witness.is_exact,
        },
    )


def _cmd_glue_demo(args):
    g = _load_algebra(args.fibre, "lie")
    A = _load_algebra(args.coefficients, "comm")
    ca = CurrentAlgebra(g, A)
    ss = SupportStructure(ca)
    subsets = [part.split(",") for part in args.cover.split(";") if part]
    cover = Cover(ss, [[s.strip() for s in subset] for subset in subsets])
    rng = random.Random(args.seed)
    beta0 = OneCochain(
        ca.total, 1, [(Fraction(rng.randint(-3, 3)),) for _ in range(ca.dim)]
    )
    psi = beta0.coboundary()
    primitives = []
    for subset in cover.subsets:
        local = restrict_class(psi, ss, subset)
        witness = coboundary_witness(local, ceiling=args.max_cochain)
        if not witness.is_exact:
            return Report(
                "glue-demo",
                {"fibre": args.fibre, "coefficients": args.coefficients,
                 "cover": args.cover, "seed": args.seed},
                {"local_restriction_exact": False, "subset": list(subset)},
                "property-failed",
                EXIT_PROPERTY,
            )
        primitives.append(witness.beta)
    glued = glue_primitives(psi, cover, primitives)
    return Report(
        "glue-demo",
        {"fibre": args.fibre, "coefficients": args.coefficients,
         "cover": args.cover, "seed": args.seed},
        {
            "points": list(ss.points),
            "cover_sets": [list(s) for s in cover.subsets],
            "partition_parts": [list(p) for p in cover.parts],
            "glued_matches": glued.coboundary() == psi,
        },
    )


# --- dispatch ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="currentext", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--max-cochain",
        type=int,
        default=None,
        metavar="N",
        help="cochain space entry ceiling (default 200000)",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("validate", parents=[common], help="validate algebras")
    p.add_argument("algebras", nargs="*")
    p.add_argument("--all", action="store_true", help="validate the whole catalog")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", parents=[common], help="basic facts about an algebra")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("killing", parents=[common], help="Killing form and semisimplicity")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_killing)

    p = sub.add_parser("derivations", parents=[common], help="derivation space")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_derivations)

    p = sub.add_parser("witness", parents=[common], help="commutator decomposition")
    p.add_argument("algebra")
    p.add_argument("element", help="basis label, index, or JSON coordinate list")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("vform", parents=[common], help="universal invariant form")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_vform)

    p = sub.add_parser("h2", parents=[common], help="second cohomology, trivial coefficients")
    p.add_argument("algebra")
    p.add_argument("--coeff-dim", type=int, default=1, metavar="M")
    p.set_defaults(func=_cmd_h2)

    p = sub.add_parser("kaehler", parents=[common], help="Kaehler differentials")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_kaehler)

    p = sub.add_parser("omegabar", parents=[common], help="one-forms modulo exact forms")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_omegabar)

    p = sub.add_parser("current", parents=[common], help="current algebra g (x) A")
    p.add_argument("fibre")
    p.add_argument("coefficients")
    p.set_defaults(func=_cmd_current)

    p = sub.add_parser("cocycle-check", parents=[common], help="canonical cocycle identities")
    p.add_argument("fibre")
    p.add_argument("coefficients")
    p.set_defaults(func=_cmd_cocycle_check)

    p = sub.add_parser("universality", parents=[common], help="the map phi -> [phi o omega]")
    p.add_argument("fibre")
    p.add_argument("coefficients")
    p.add_argument("--coeff-dim", type=int, default=1, metavar="M")
    p.set_defaults(func=_cmd_universality)

    p = sub.add_parser("twist", parents=[common], help="connection twist coboundary")
    p.add_argument("fibre")
    p.add_argument("coefficients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("glue-demo", parents=[common], help="restrict, solve, glue primitives")
    p.add_argument("fibre")
    p.add_argument("coefficients")
    p.add_argument("--cover", required=True, help='point subsets, e.g. "1,2;2,3;3,4"')
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_glue_demo)

    return parser


def run_command(argv) -> Report:
    """Execute one CLI invocation and return its Report.

    All expected failure modes are folded into the report's exit code;
    only truly unexpected exceptions propagate.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return Report(
            "usage", {}, {"error": str(exc)}, "usage-error", EXIT_USAGE
        )
    if not getattr(args, "subcommand", None):
        return Report(
            "usage", {}, {"error": "a subcommand is required"}, "usage-error", EXIT_USAGE
        )
    fmt = getattr(args, "format", "text")
    try:
        report = args.func(args)
    except UsageError as exc:
        report = Report(args.subcommand, {}, {"error": str(exc)}, "usage-error", EXIT_USAGE)
    except ResourceCeilingError as exc:
        report = Report(
            args.subcommand, {}, {"error": str(exc)}, "resource-limit", EXIT_RESOURCE
        )
    except PropertyError as exc:
        results = {"error": str(exc)}
        defect = getattr(exc, "defect_coordinates", None)
        if defect is not None:
            results["defect_class"] = list(defect)
        report = Report(args.subcommand, {}, results, "property-failed", EXIT_PROPERTY)
    except InputError as exc:
        report = Report(args.subcommand, {}, {"error": str(exc)}, "invalid-input", EXIT_INPUT)
    except InternalConsistencyError as exc:
        report = Report(
            args.subcommand, {}, {"error": str(exc)}, "internal-error", EXIT_INTERNAL
        )
    report.format = fmt
    return report


def main(argv=None) -> int:
    report = run_command(sys.argv[1:] if argv is None else argv)
    output = report.to_json() if report.format == "json" else report.to_text()
    sys.stdout.write(output)
    if report.exit_code not in (EXIT_OK,):
        sys.stderr.write(f"currentext: {report.status}\n")
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
