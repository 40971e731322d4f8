"""Per-layer tracing for the benchmark, done from outside the package.

A Tracer rebinds the public functions listed in SPANS, in every
``currentext`` module namespace that holds them (methods on their
class), so that each call records a span: name, start, end, parent span
and op id.  Spans stay in memory; the caller writes them out once.
Wrappers exist only between install() and uninstall().

Every layer is CPU-only exact arithmetic in one thread: nothing waits
on I/O, a queue or a lock, so the per-layer numbers are busy (self)
time and exact counts.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# (span name, defining module, attribute, metric).  A metric ending in
# "_s" is the summed self time of its spans: the span's duration minus
# the time its child spans (wrappers included) cover.
SPANS = (
    ("catalog.lie_catalog", "catalog", "lie_catalog", "catalog.build_s"),
    ("catalog.comm_catalog", "catalog", "comm_catalog", "catalog.build_s"),
    ("catalog.tensor_comm", "current", "tensor_comm", "catalog.build_s"),
    ("lie.validate_lie", "lie", "validate_lie", "lie.validate_s"),
    ("lie.derivations", "lie", "derivations", "lie.derivations_s"),
    ("lie.killing_form", "lie", "killing_form", "lie.killing_s"),
    ("lie.is_perfect", "lie", "is_perfect", "lie.perfect_s"),
    ("lie.perfect_witness", "lie", "perfect_witness", "lie.perfect_s"),
    ("invariants.v_space_and_kappa", "invariants", "v_space_and_kappa", "invariants.vform_s"),
    ("invariants.factor_through", "invariants", "factor_through", "invariants.factor_s"),
    ("current.kaehler_module", "current", "kaehler_module", "current.kaehler_s"),
    ("current.current_algebra", "current", "CurrentAlgebra.__init__", "current.current_algebra_s"),
    ("current.universal_cocycle", "current", "universal_cocycle", "current.universal_cocycle_s"),
    ("current.universality_map", "current", "universality_map", "current.universality_self_s"),
    ("current.twist_difference", "current", "twist_difference", "current.twist_s"),
    ("cohomology.ce_differential", "cohomology", "ce_differential", "cohomology.ce_differential_s"),
    ("cohomology.cohomology", "cohomology", "cohomology", "cohomology.cohomology_self_s"),
    ("cohomology.class_coordinates", "cohomology", "Cohomology.class_coordinates",
     "cohomology.class_coordinates_s"),
    ("cohomology.cocycle_defect", "cohomology", "Cocycle2.cocycle_defect", "cohomology.cocycle_defect_s"),
    ("cohomology.coboundary", "cohomology", "OneCochain.coboundary", "cohomology.coboundary_s"),
    ("cohomology.coboundary_witness", "cohomology", "coboundary_witness", "cohomology.witness_self_s"),
    ("linalg.kernel_basis", "linalg", "kernel_basis", "linalg.kernel_basis_s"),
    ("linalg.from_spanning", "linalg", "Subspace.from_spanning", "linalg.from_spanning_s"),
    ("linalg.rref_with_transform", "linalg", "rref_with_transform", "linalg.rref_with_transform_s"),
    ("linalg.rank", "linalg", "rank", "linalg.rank_s"),
    ("linalg.project", "linalg", "QuotientSpace.project", "linalg.project_s"),
    ("linalg.solve_linear", "linalg", "solve_linear", "linalg.solve_linear_s"),
    ("locality.restrict_class", "locality", "restrict_class", "locality.restrict_s"),
    ("locality.is_diagonal", "locality", "is_diagonal", "locality.is_diagonal_s"),
    ("locality.glue_primitives", "locality", "glue_primitives", "locality.glue_s"),
    ("cli.run_command", "cli", "run_command", "cli.run_command_self_s"),
    ("cli.encode", "cli", "Report.to_json", "cli.encode_s"),
)

# Exact counts, computed from the arguments and return values of the
# traced calls.  The linalg counts cover calls into linalg from other
# layers only (a from_spanning inside kernel_basis is part of that call).
COUNT_METRICS = (
    ("current.kaehler_ambient", "count"),
    ("current.kaehler_relations", "count"),
    ("cohomology.ce_rows", "count"),
    ("cohomology.ce_cols", "count"),
    ("cohomology.ce_nnz", "count"),
    ("cohomology.ce_nonempty_row_ratio", "ratio"),
    ("linalg.calls", "count"),
    ("linalg.rows_in", "count"),
    ("linalg.nnz_in", "count"),
    ("linalg.rank_out", "count"),
    ("linalg.max_bits_in", "bits"),
    ("linalg.max_bits_out", "bits"),
)

OVERHEAD_METRIC = "trace.overhead_ratio"
PACKAGE = "currentext"


def time_metrics():
    return tuple(dict.fromkeys(metric for *_, metric in SPANS))


def layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in time_metrics()}
    units.update(COUNT_METRICS)
    units[OVERHEAD_METRIC] = "ratio"
    return units


def _bits(value) -> int:
    """Largest numerator/denominator bit-length of a rational or integer."""
    den = getattr(value, "denominator", 1)
    return max(abs(int(getattr(value, "numerator", value))).bit_length(), den.bit_length())


def _scan(values):
    """(nonzero count, max bit-length) over an iterable of numbers."""
    nnz = bits = 0
    for value in values:
        if value:
            nnz += 1
            b = _bits(value)
            if b > bits:
                bits = b
    return nnz, bits


def _row_values(rows):
    for row in rows:
        yield from (row.values() if isinstance(row, dict) else row)


def _matrix_values(m):
    return (value for _, _, value in m.triplets())


def _linalg_in(name, args):
    """(rows, nonzeros, max bits) of a linalg entry point's input."""
    if name == "linalg.from_spanning":
        vectors = args[1]
        nnz, bits = _scan(_row_values(vectors))
        return len(vectors), nnz, bits
    if name == "linalg.rref_with_transform":
        nnz, bits = _scan(_row_values(args[0]))
        return len(args[0]), nnz, bits
    m = args[0]
    nnz, bits = _scan(_matrix_values(m))
    if name == "linalg.solve_linear":
        b_nnz, b_bits = _scan(args[1])
        nnz, bits = nnz + b_nnz, max(bits, b_bits)
    return m.rows, nnz, bits


def _linalg_out(name, args, result):
    """(rank, max bits) of a linalg entry point's result."""
    if name == "linalg.kernel_basis":
        return args[0].cols - result.dim, _scan(_matrix_values(result.basis_matrix()))[1]
    if name == "linalg.from_spanning":
        return result.dim, _scan(_matrix_values(result.basis_matrix()))[1]
    if name == "linalg.rref_with_transform":
        bits = _scan(x for vec, combo, _ in result for x in vec + combo)[1]
        return len(result), bits
    if name == "linalg.rank":
        return result, 0
    # solve_linear: the rank is not visible from outside
    return 0, (_scan(result)[1] if result is not None else 0)


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics.

    A span is the list [name, parent, op, start, end, covered]: start
    and end bracket the wrapped call, and covered is the whole time the
    wrapper took, count bookkeeping included, which is what the parent
    span loses to this child.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self.enabled = False
        self._stack = []
        self._linalg_depth = 0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for span, module, attr, _ in SPANS:
            owner = modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(span, raw.__func__, skip_first=True))
                else:
                    patched = self._wrap(span, raw, skip_first=True)
                setattr(cls, meth, patched)
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def _wrap(self, name, fn, skip_first=False):
        tracer = self
        is_linalg = name.startswith("linalg.") and name != "linalg.project"
        offset = 1 if skip_first else 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = perf_counter()
            stack = tracer._stack
            span = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            outer = is_linalg and tracer._linalg_depth == 0
            if is_linalg:
                tracer._linalg_depth += 1
            if outer and name == "linalg.from_spanning":
                # the count needs the vectors twice; a generator would run dry
                args = args[:offset + 1] + (list(args[offset + 1]),) + args[offset + 2:]
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                span[5] = span[4] - enter
                if is_linalg:
                    tracer._linalg_depth -= 1
                stack.pop()
            if outer:
                tracer._count_linalg(name, args[offset:], result)
            elif name == "cohomology.ce_differential":
                tracer._count_ce(result)
            elif name == "current.kaehler_module":
                d = args[0].dim
                tracer._add("current.kaehler_ambient", d * d)
                tracer._add("current.kaehler_relations", d * (d + 1) // 2 * d)
            span[5] = perf_counter() - enter
            return result

        return wrapper

    # -- counts ---------------------------------------------------------------

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count_ce(self, m):
        rows = {i for i, _, _ in m.triplets()}
        self._add("cohomology.ce_rows", m.rows)
        self._add("cohomology.ce_cols", m.cols)
        self._add("cohomology.ce_nnz", m.nnz)
        self._add("cohomology.ce_nonempty_rows", len(rows))

    def _count_linalg(self, name, args, result):
        rows, nnz, bits_in = _linalg_in(name, args)
        rank, bits_out = _linalg_out(name, args, result)
        self._add("linalg.calls", 1)
        self._add("linalg.rows_in", rows)
        self._add("linalg.nnz_in", nnz)
        self._add("linalg.rank_out", rank)
        self.counts["linalg.max_bits_in"] = max(self.counts.get("linalg.max_bits_in", 0), bits_in)
        self.counts["linalg.max_bits_out"] = max(self.counts.get("linalg.max_bits_out", 0), bits_out)

    # -- reduction ----------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts = {}

    def layer_metrics(self):
        """Self time per time metric and the exact counts of the spans so far."""
        metric_of = {span: metric for span, _, _, metric in SPANS}
        out = {name: 0.0 for name in time_metrics()}
        for span, own in zip(self.spans, self_times(self.spans)):
            out[metric_of[span[0]]] += own
        counts = dict(self.counts)
        rows = counts.pop("cohomology.ce_nonempty_rows", 0)
        for name, _ in COUNT_METRICS:
            counts.setdefault(name, 0)
        total = counts["cohomology.ce_rows"]
        counts["cohomology.ce_nonempty_row_ratio"] = rows / total if total else 0.0
        out.update(counts)
        return out


def self_times(spans):
    """Self time of each span: its duration minus what its children cover."""
    covered = [0.0] * len(spans)
    for _, parent, _, _, _, child_covered in spans:
        if parent >= 0:
            covered[parent] += child_covered
    return [end - start - covered[i] for i, (_, _, _, start, end, _) in enumerate(spans)]


def median_layers(passes, count_names):
    """Median time metrics over traced passes; counts must repeat exactly.

    Returns (metrics, mismatched count names).
    """
    first = passes[0]
    mismatched = [n for n in count_names if any(p[n] != first[n] for p in passes[1:])]
    merged = {}
    for name in first:
        if name in count_names:
            merged[name] = first[name]
        else:
            merged[name] = statistics.median(p[name] for p in passes)
    return merged, mismatched
