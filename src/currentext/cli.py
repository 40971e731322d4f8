"""Command-line front end: one table of subcommands, one parser per call.

``_SUBCOMMANDS`` declares each subcommand once.  A call that names one
builds its parser alone; help and bad names build the whole tree.
Handlers return results; ``run_command`` builds every Report, echoing
the parsed arguments, and maps exceptions to exit codes (``_FAILURES``)
and exit codes to status words (``_STATUS``).  ``_DESCRIPTION`` is the
text ``currentext --help`` prints.
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
    CatalogError,
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

_DESCRIPTION = """Command-line front end.

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

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROPERTY = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# the status word a report carries with each exit code
_STATUS = {
    EXIT_OK: "ok",
    EXIT_INPUT: "invalid-input",
    EXIT_PROPERTY: "property-failed",
    EXIT_RESOURCE: "resource-limit",
    EXIT_USAGE: "usage-error",
    EXIT_INTERNAL: "internal-error",
}


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
    return value


class Report:
    """Command outcome: echoed inputs, results, exit code and its status."""

    def __init__(self, command, inputs, results, exit_code=EXIT_OK):
        self.command = command
        self.inputs = inputs
        self.results = results
        self.exit_code = exit_code
        self.format = "text"

    @property
    def status(self) -> str:
        return _STATUS[self.exit_code]

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


def _text_lines(tree: dict, prefix):
    lines = []
    for key, value in tree.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(f"{label}:")
            lines.extend(_text_lines(value, prefix + "  "))
        else:
            lines.append(f"{label}: {_flat_text(value)}")
    return lines


def _flat_text(value):
    encoded = _encode(value)
    if isinstance(encoded, list):
        return json.dumps(encoded)
    return str(encoded)


def _read_json(text: str, what: str):
    """json.loads, refusing what it cannot read as a DocumentError that
    starts with what: a JSONDecodeError, or an integer literal with more
    digits than int() reads, whose ValueError names a remedy (a call to
    sys.set_int_max_str_digits) that only a Python caller can apply, so
    the limit is named instead."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what}: {exc}") from None
    except ValueError:
        raise DocumentError(
            f"{what}: an integer has more than {sys.get_int_max_str_digits()} digits, "
            "the most this program reads"
        ) from None


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
            if type(idx) is not int or not 0 <= idx < dim:  # a bool is an int too
                raise DocumentError(f"{where}[{pos}]: index {idx!r} out of range for dim {dim}")
        out.append((i, j, k, _parse_rational(coeff, f"{where}[{pos}]")))
    return out


def parse_algebra_document(text: str):
    """Parse and validate a JSON algebra document.

    Returns a LieAlgebra (kind "lie") or CommAlgebra (kind "comm");
    schema violations raise DocumentError, axiom failures raise
    InvalidAlgebraError with the violating triples.
    """
    doc = _read_json(text, "not valid JSON")
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("lie", "comm"):
        raise DocumentError('document "kind" must be "lie" or "comm"')
    dim = doc.get("dim")
    if type(dim) is not int or dim < 0:  # a bool is an int too
        raise DocumentError('document "dim" must be a nonnegative integer')
    if "labels" in doc:
        labels = doc["labels"]
        if not (isinstance(labels, list) and len(labels) == dim
                and all(isinstance(s, str) for s in labels)):
            raise DocumentError('document "labels" must list dim strings')
        seen = set()
        for s in labels:  # a repeated label would name two basis elements
            if s in seen:
                raise DocumentError(f'document "labels" repeats the label {s!r}')
            seen.add(s)
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
    looks_like_file = name.endswith(".json") or os.sep in name or os.path.isfile(name)
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
        except InputError as lie_refusal:
            try:
                algebra = catalog.comm_catalog(name)
            except InputError as comm_refusal:
                raise CatalogError(f"{lie_refusal}; {comm_refusal}") from None
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
        coords = _read_json(spec, "bad element coordinates")
        if not (isinstance(coords, list) and len(coords) == L.dim):
            raise DocumentError(f"element coordinates must list {L.dim} entries")
        return vector([_parse_rational(x, "element") for x in coords])
    if not (spec.isascii() and spec.isdigit()):
        raise DocumentError(
            f"element {spec!r} is neither a basis label, an index, nor a coordinate list"
        )
    # an index with more digits than dim is out of range, and int() is
    # never handed more digits than it reads
    digits = spec.lstrip("0") or "0"
    if len(digits) > len(str(L.dim)) or int(digits) >= L.dim:
        raise DocumentError(f"basis index {digits} out of range")
    return L.basis_element(int(digits)).coords


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
# Each returns its results, and its exit code when that is not 0.

def _validate_names(args):
    if args.all:
        listing = catalog.catalog_listing()
        return list(listing["lie"]) + list(listing["comm"])
    return list(args.algebras)


def _cmd_validate(args):
    names = _validate_names(args)
    if not names:
        raise UsageError("validate requires algebra names or --all")
    results = {}
    for name in names:
        try:
            algebra = _load_algebra(name, "any")
        except CurrentExtError as exc:
            results[name] = {"valid": False, "error": str(exc)}
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
        else:
            results[name] = {"kind": "comm", "dim": algebra.dim, "valid": algebra.validate().ok}
    valid = all(entry["valid"] for entry in results.values())
    return results, EXIT_OK if valid else EXIT_INPUT


def _cmd_info(args):
    algebra = _load_algebra(args.algebra, "any")
    if isinstance(algebra, LieAlgebra):
        return {
            "kind": "lie",
            "dim": algebra.dim,
            "labels": list(algebra.labels),
            "perfect": is_perfect(algebra),
            "semisimple": killing_form(algebra)[1],
        }
    return {
        "kind": "comm",
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "unital": algebra.is_unital,
        "points": list(algebra.points) if algebra.points else None,
    }


def _cmd_killing(args):
    L = _load_algebra(args.algebra, "lie")
    matrix, semisimple = killing_form(L)
    return {"matrix": _matrix_rows(matrix), "semisimple": semisimple}


def _cmd_derivations(args):
    L = _load_algebra(args.algebra, "lie")
    ders = derivations(L)
    return {
        "dim": ders.dim,
        "contains_inner": ders.contains_inner,
        "all_inner": ders.all_inner,
    }


def _cmd_witness(args):
    L = _load_algebra(args.algebra, "lie")
    coords = _element_coords(L, args.element)
    pairs = perfect_witness(L, coords)
    return {
        "pairs": [[list(mu.coords), list(nu.coords)] for mu, nu in pairs],
        "count": len(pairs),
    }


def _cmd_vform(args):
    L = _load_algebra(args.algebra, "lie")
    forms = v_space_and_kappa(L)
    kappa_entries = []
    for i in range(L.dim):
        for j in range(i, L.dim):
            value = forms.kappa_basis(i, j)
            if any(value):
                kappa_entries.append([i, j, list(value)])
    matrix, semisimple = killing_form(L)
    factor = factor_through(forms, BilinearForm.from_matrix(matrix))
    return {
        "dim_v": forms.dim,
        "kappa": kappa_entries,
        "killing_factor": {
            "matrix": _matrix_rows(factor.matrix),
            "kernel_dim": factor.kernel_dim(),
        },
        "semisimple": semisimple,
    }


def _cmd_h2(args):
    L = _load_algebra(args.algebra, "lie")
    result = cohomology(L, 2, args.coeff_dim, ceiling=args.max_cochain)
    return {
        "dim": result.dimension,
        "representatives": [_cocycle_entries(rep) for rep in result.representative_cocycles()],
    }


def _cmd_kaehler(args):
    A = _load_algebra(args.algebra, "comm")
    module = kaehler_module(A)
    d_matrix = [list(module.d_basis(j)) for j in range(A.dim)]
    return {
        "dim": A.dim,
        "dim_omega1": module.dim_omega1,
        "dim_omega1bar": module.dim_omega1bar,
        "d_columns": d_matrix,
    }


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
    return {
        "dim_omega1bar": module.dim_omega1bar,
        "representatives": reps,
        "term_format": "[coefficient, a, b] meaning coefficient * a d(b)",
    }


def _cmd_current(args):
    g = _load_algebra(args.fibre, "lie")
    A = _load_algebra(args.coefficients, "comm")
    ca = CurrentAlgebra(g, A)
    report = validate_lie(ca.total)
    return {
        "dim": ca.dim,
        "valid": report.ok,
        "perfect": is_perfect(ca.total),
        "labels": list(ca.total.labels),
    }


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
    return results, EXIT_OK if ok else EXIT_PROPERTY


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
    return results, EXIT_OK if result.bijective else EXIT_PROPERTY


def _cmd_twist(args):
    g = _load_algebra(args.fibre, "lie")
    A = _load_algebra(args.coefficients, "comm")
    uc = universal_cocycle(g, A)
    xi = _random_one_form(g.dim, uc.kaehler.dim_omega1, args.seed)
    result = twist_difference(g, A, xi, uc=uc)
    witness = coboundary_witness(result.tau, ceiling=args.max_cochain)
    return {
        "xi_entries": [[i, t, c] for (i, t), c in sorted(xi.entries.items())],
        "tau_nonzero_pairs": len(result.tau.values),
        "coboundary_verified": True,  # twist_difference verifies internally
        "class_unchanged": witness.is_exact,
    }


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
        if not witness.is_exact:  # psi = d beta0, so every restriction is exact
            raise InternalConsistencyError(
                f"the restriction of a coboundary to {list(subset)} is not exact"
            )
        primitives.append(witness.beta)
    glued = glue_primitives(psi, cover, primitives)
    return {
        "points": list(ss.points),
        "cover_sets": [list(s) for s in cover.subsets],
        "partition_parts": [list(p) for p in cover.parts],
        "glued_matches": glued.coboundary() == psi,
    }


# --- dispatch ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def nonnegative_int(text: str) -> int:
    """A count read from ASCII digits only, as a catalog number is: int()
    would also read '-1', '0_1', ' 1', '+1' and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be ASCII digits, got {text!r}")
    return int(text)


_FORMAT = (("--format",), {"choices": ("text", "json"), "default": "text"})
_MAX_COCHAIN = (("--max-cochain",), {
    "type": nonnegative_int,
    "default": None,
    "metavar": "N",
    "help": "cochain space entry ceiling (default 200000)",
})
_ALGEBRA = (("algebra",), {})
_FIBRE = (("fibre",), {})
_COEFFICIENTS = (("coefficients",), {})
_COEFF_DIM = (("--coeff-dim",), {"type": nonnegative_int, "default": 1, "metavar": "M"})
_SEED = (("--seed",), {"type": int, "default": 0})

# (name, help, handler, arguments), each argument (flags, add_argument keywords)
_SUBCOMMANDS = (
    ("validate", "validate algebras", _cmd_validate, (
        (("algebras",), {"nargs": "*"}),
        (("--all",), {"action": "store_true", "help": "validate the whole catalog"}),
    )),
    ("info", "basic facts about an algebra", _cmd_info, (_ALGEBRA,)),
    ("killing", "Killing form and semisimplicity", _cmd_killing, (_ALGEBRA,)),
    ("derivations", "derivation space", _cmd_derivations, (_ALGEBRA,)),
    ("witness", "commutator decomposition", _cmd_witness, (
        _ALGEBRA,
        (("element",), {"help": "basis label, index, or JSON coordinate list"}),
    )),
    ("vform", "universal invariant form", _cmd_vform, (_ALGEBRA,)),
    ("h2", "second cohomology, trivial coefficients", _cmd_h2, (_ALGEBRA, _COEFF_DIM)),
    ("kaehler", "Kaehler differentials", _cmd_kaehler, (_ALGEBRA,)),
    ("omegabar", "one-forms modulo exact forms", _cmd_omegabar, (_ALGEBRA,)),
    ("current", "current algebra g (x) A", _cmd_current, (_FIBRE, _COEFFICIENTS)),
    ("cocycle-check", "canonical cocycle identities", _cmd_cocycle_check,
     (_FIBRE, _COEFFICIENTS)),
    ("universality", "the map phi -> [phi o omega]", _cmd_universality,
     (_FIBRE, _COEFFICIENTS, _COEFF_DIM)),
    ("twist", "connection twist coboundary", _cmd_twist, (_FIBRE, _COEFFICIENTS, _SEED)),
    ("glue-demo", "restrict, solve, glue primitives", _cmd_glue_demo, (
        _FIBRE,
        _COEFFICIENTS,
        (("--cover",), {"required": True, "help": 'point subsets, e.g. "1,2;2,3;3,4"'}),
        _SEED,
    )),
)

# (exception class, exit code): the first class that matches decides;
# any other exception propagates
_FAILURES = (
    (UsageError, EXIT_USAGE),
    (ResourceCeilingError, EXIT_RESOURCE),
    (PropertyError, EXIT_PROPERTY),
    (InputError, EXIT_INPUT),
    (InternalConsistencyError, EXIT_INTERNAL),
)
_FAILURE_CLASSES = tuple(cls for cls, _ in _FAILURES)

# namespace entries a report does not echo as inputs
_NOT_ECHOED = ("format", "max_cochain", "subcommand", "func")


def _add_subcommand(parser, name, func, arguments):
    # --format and --max-cochain come first, where they stand in every help text
    for flags, options in (_FORMAT, _MAX_COCHAIN) + arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(subcommand=name, func=func)
    return parser


def _build_parser(argv=()) -> _Parser:
    """The parser for argv.  When argv[0] names a subcommand it is that
    subcommand's parser alone, which parses argv[1:]; otherwise it is the
    whole tree, so that help and the invalid-choice error list every name."""
    for name, _, func, arguments in _SUBCOMMANDS:
        if argv and argv[0] == name:
            return _add_subcommand(_Parser(prog=f"currentext {name}"), name, func, arguments)
    parser = _Parser(prog="currentext", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, help_text, func, arguments in _SUBCOMMANDS:
        _add_subcommand(sub.add_parser(name, help=help_text), name, func, arguments)
    return parser


def run_command(argv) -> Report:
    """Execute one CLI invocation and return its Report.

    Every expected failure becomes the report's exit code through
    _FAILURES; any other exception propagates.
    """
    argv = list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv[1:] if parser.get_default("func") else argv)
    except UsageError as exc:
        return Report("usage", {}, {"error": str(exc)}, EXIT_USAGE)
    if not args.subcommand:
        return Report("usage", {}, {"error": "a subcommand is required"}, EXIT_USAGE)
    inputs = {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED}
    if args.subcommand == "validate":  # --all echoes the names it expands to
        inputs = {"algebras": _validate_names(args)}
    try:
        outcome = args.func(args)
    except _FAILURE_CLASSES as exc:
        code = next(code for cls, code in _FAILURES if isinstance(exc, cls))
        results = {"error": str(exc)}
        defect = getattr(exc, "defect_coordinates", None)
        if defect is not None:
            results["defect_class"] = list(defect)
    else:
        results, code = outcome if isinstance(outcome, tuple) else (outcome, EXIT_OK)
    report = Report(args.subcommand, inputs, results, code)
    report.format = args.format
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
