"""Tests of the benchmark itself: self time, the correctness gate, seeds,
the tracer's install/uninstall and the host-speed calibration.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import currentext as ce  # noqa: E402
import currentext.cli  # noqa: E402,F401

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, parent, start, end, enter, leave):
    return [name, parent, 0, start, end, leave - enter]


def test_self_time_of_synthetic_span_tree():
    spans = [
        span("root", -1, 0.0, 10.0, 0.0, 10.0),
        span("a", 0, 1.0, 4.0, 0.5, 4.5),    # covers 4.0 of root
        span("b", 0, 5.0, 9.0, 5.0, 9.5),    # covers 4.5 of root
        span("c", 2, 6.0, 7.0, 5.75, 7.25),  # covers 1.5 of b
    ]
    assert tracing.self_times(spans) == pytest.approx([1.5, 3.0, 2.5, 1.0])


def test_layer_metrics_sum_self_time_per_metric():
    tracer = tracing.Tracer()
    tracer.spans = [
        span("cohomology.cohomology", -1, 0.0, 5.0, 0.0, 5.0),
        span("linalg.kernel_basis", 0, 1.0, 3.0, 1.0, 3.0),
        span("linalg.from_spanning", 1, 2.0, 2.5, 2.0, 2.5),
        span("catalog.lie_catalog", -1, 6.0, 6.5, 6.0, 6.5),
        span("catalog.tensor_comm", -1, 7.0, 7.25, 7.0, 7.25),
    ]
    tracer.counts = {"cohomology.ce_rows": 10, "cohomology.ce_nonempty_rows": 4}
    got = tracer.layer_metrics()
    assert got["cohomology.cohomology_self_s"] == pytest.approx(3.0)
    assert got["linalg.kernel_basis_s"] == pytest.approx(1.5)
    assert got["linalg.from_spanning_s"] == pytest.approx(0.5)
    assert got["catalog.build_s"] == pytest.approx(0.75)
    assert got["cohomology.ce_nonempty_row_ratio"] == pytest.approx(0.4)
    assert got["linalg.calls"] == 0
    assert set(got) | {tracing.OVERHEAD_METRIC} == set(tracing.layer_metric_units())


def test_count_mismatch_between_traced_passes_is_reported():
    first = {"linalg.calls": 3, "linalg.kernel_basis_s": 1.0}
    second = {"linalg.calls": 4, "linalg.kernel_basis_s": 3.0}
    merged, mismatched = tracing.median_layers([first, second], {"linalg.calls"})
    assert mismatched == ["linalg.calls"]
    assert merged["linalg.kernel_basis_s"] == pytest.approx(2.0)


class _Fake:
    def __init__(self, **fields):
        self.__dict__.update(fields)


def _universality_result(dim_h2, bijective=True):
    uc = _Fake(forms=_Fake(dim=1), kaehler=_Fake(dim_omega1bar=8))
    return _Fake(dim_h2=dim_h2, bijective=bijective, uc=uc)


def test_gate_counts_a_wrong_answer_as_failed():
    def check(result):
        return workloads.check_universality(result, 1, 8)

    def boom():
        raise RuntimeError("op raised")

    ops = [
        workloads.Op("right", lambda: _universality_result(8), check),
        workloads.Op("wrong dim", lambda: _universality_result(7), check),
        workloads.Op("not bijective", lambda: _universality_result(8, False), check),
        workloads.Op("raises", boom, check),
    ]
    times, failures = run.run_pass(ops)
    assert len(times) == 4
    assert [name for name, _ in failures] == ["wrong dim", "not bijective", "raises"]


def test_sweep_gate_checks_facts_and_byte_stability():
    def op_for(argv):
        ops = workloads.sweep_ops(ce, 0)
        return next(op for op in ops if op.name == argv)

    op = op_for("h2 heis3")
    code, text = op.run()
    assert op.check((code, text)) is None
    assert op.check((code, text)) is None
    assert op.check((code, text + " ")) == "JSON differs from the first pass"

    wrong = json.loads(text)
    wrong["results"]["dim"] = 3
    fresh = op_for("h2 heis3")
    assert "expected 2" in fresh.check((code, json.dumps(wrong)))

    witness = op_for("witness heis3 x")
    code, text = witness.run()
    assert code == 2 and witness.check((code, text)) is None
    assert "exit code" in op_for("witness heis3 x").check((0, text))


def test_seed_zero_is_catalog_order():
    for gname, aname, _, _, g, A in workloads.ladder_inputs(ce, 0):
        g0, A0 = ce.lie_catalog(gname), ce.comm_catalog(aname)
        assert g.labels == g0.labels
        assert g.structure_entries() == g0.structure_entries()
        assert (A.labels, A.entries(), A.unit, A.idempotents) == (
            A0.labels, A0.entries(), A0.unit, A0.idempotents)
    names = [op.name for op in workloads.sweep_ops(ce, 0)]
    assert names == [" ".join(argv) for argv, _, _ in workloads.sweep_commands()]


def test_other_seeds_permute_but_keep_the_algebra():
    inputs = workloads.ladder_inputs(ce, 5)
    again = workloads.ladder_inputs(ce, 5)
    moved = 0
    for (gname, aname, *_, g, A), (*_, g2, A2) in zip(inputs, again):
        g0, A0 = ce.lie_catalog(gname), ce.comm_catalog(aname)
        assert g.labels == g2.labels and A.labels == A2.labels
        assert sorted(g.labels) == sorted(g0.labels) and sorted(A.labels) == sorted(A0.labels)
        assert len(g.structure_entries()) == len(g0.structure_entries())
        moved += (g.labels != g0.labels) + (A.labels != A0.labels)
    assert moved
    names = sorted(op.name for op in workloads.sweep_ops(ce, 3))
    assert names == sorted(op.name for op in workloads.sweep_ops(ce, 0))


def test_tracer_wrappers_exist_only_while_installed():
    # the package re-exports the function cohomology under the module's name
    module = sys.modules["currentext.cohomology"]
    original = module.kernel_basis
    method = ce.linalg.QuotientSpace.__dict__["project"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert module.kernel_basis is not original
        assert ce.kernel_basis is module.kernel_basis
        tracer.enabled = True
        h2 = ce.cohomology(ce.lie_catalog("heis3"), 2, 1)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert h2.dimension == 2
    assert module.kernel_basis is original and ce.kernel_basis is original
    assert ce.linalg.QuotientSpace.__dict__["project"] is method
    names = {s[0] for s in tracer.spans}
    assert {"cohomology.cohomology", "cohomology.ce_differential",
            "linalg.kernel_basis", "linalg.project"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["cohomology.ce_rows"] == 1 + 3  # d^2: C(3,3) rows, d^1: C(3,2) rows
    assert metrics["linalg.calls"] == 3  # kernel_basis, from_spanning, rref_with_transform


def test_bracket_pairs_each_op_with_the_samples_around_it():
    # samples before op 0, after op 1 and after op 3 of four ops
    samples = [(0, 1.0), (2, 3.0), (4, 5.0)]
    assert calibrate.bracket(samples, 4) == [2.0, 2.0, 4.0, 4.0]


def test_calibrated_pass_rescales_each_op_to_reference_speed():
    def op(seconds):
        def run_op():
            end = run.perf_counter() + seconds
            while run.perf_counter() < end:
                pass
        return workloads.Op(f"spin {seconds}", run_op, lambda _: None)

    ops = [op(0.001), op(0.12), op(0.001)]
    calibrator = calibrate.Calibrator()
    times, failures = run.run_pass(ops, calibrator=calibrator)
    assert failures == []
    # one sample before the ops, one after the long op and one at the end
    assert [done for done, _ in calibrator.samples] == [0, 2, 3]
    scales = calibrator.scales(len(ops))
    assert all(k > 0 for k in scales)
    assert scales[0] == scales[1]
    assert calibrator.last_times == times
    assert calibrate.determinant() == calibrate.EXPECTED != 0
