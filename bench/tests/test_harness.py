"""Self-tests of the benchmark harness: the correctness gate and the tracer.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from pathlib import Path

import numpy as np
import pytest

from homsos import driver, relax
from homsos.poly import Polynomial, PopProblem

import problems
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _report(bound):
    return driver.HierarchyReport(records=[], best_bound=bound, converged=False,
                                  convergence_order=None, diagnosis="")


def _op(call):
    prob = problems.unattained_quartic()
    return workloads.Operation("probe", call, prob.objective, prob, [(1e-3, 1e3)])


def test_gate_fails_bound_above_reference_value():
    op = _op(lambda seed: _report(1e-3))
    assert op.f_ref == pytest.approx(1e-12)
    assert workloads.run_checked(op, 0)["failures"] == ["not a lower bound"]


def test_gate_accepts_bound_below_reference_value():
    assert workloads.run_checked(_op(lambda seed: _report(0.0)), 0)["failures"] == []


def test_gate_fails_missing_bound():
    assert workloads.run_checked(_op(lambda seed: _report(None)), 0)["failures"] == ["no bound"]


def test_gate_fails_raised_exception():
    def boom(seed):
        raise np.linalg.LinAlgError("singular")
    out = workloads.run_checked(_op(boom), 0)
    assert out["failures"] == ["raised"]
    assert "LinAlgError" in out["error"]


def test_gate_fails_nonzero_exit_code():
    res = workloads.CliResult(3, {"records": [], "final": {"best_bound": 0.0}}, "")
    assert workloads.run_checked(_op(lambda seed: res), 0)["failures"] == ["exit code"]


def test_gate_fails_missed_criterion():
    op = workloads.battery()[-1]      # unattained_quartic, criterion 10
    out = workloads.check(op, _report(0.5))
    assert "not a lower bound" in out and "bound in [-1e-4, 1e-2]" in out


def test_regressions_at_recorded_and_other_seeds():
    quartic = {"name": "unattained_quartic", "failures": ["not a lower bound"]}
    assert workloads.regressions(quartic, 0, [2]) == []
    assert workloads.regressions(quartic, 123, [2]) == []
    motzkin = {"name": "motzkin_like_cubic", "failures": ["minimizer (1, 1)"]}
    assert workloads.regressions(motzkin, 1, [2]) == []
    assert workloads.regressions(motzkin, 0, [2]) == ["minimizer (1, 1)"]
    assert workloads.regressions(motzkin, 0, [1]) == []
    chain = {"name": "chain_k2", "failures": ["no bound"]}
    assert workloads.regressions(chain, 123, [2]) == []
    stalled = {"name": "cubic_unbounded", "failures": ["no bound", "not a lower bound", "raised"]}
    assert workloads.regressions(stalled, 0, [2]) == ["no bound", "not a lower bound", "raised"]
    assert workloads.regressions(stalled, 123, [2]) == ["no bound", "raised"]


def _outcome(name, failures, regressions=()):
    return {"name": name, "failures": failures, "regressions": list(regressions),
            "bound": 0.0, "statuses": ["optimal"], "f_ref": 0.0}


def test_gate_counts_each_operation_once():
    passes = [{"outcomes": [_outcome("a", []), _outcome("b", ["no bound"])]} for _ in range(3)]
    assert run._gate(passes) == (
        2, 1, False, ["b: no bound (bound 0.0, f(u_ref) 0.0, statuses ['optimal']) in 3 of 3 passes"])
    assert run._same(passes[0]["outcomes"], passes[1]["outcomes"])


def test_gate_reports_a_regression_in_any_pass():
    passes = [{"outcomes": [_outcome("a", [])]},
              {"outcomes": [_outcome("a", ["no bound"], ["no bound"])]}]
    attempted, failed, regressed, _ = run._gate(passes)
    assert (attempted, failed, regressed) == (1, 0, True)
    assert not run._same(passes[0]["outcomes"], passes[1]["outcomes"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_points_are_feasible(name):
    for op in workloads.build(name, ROOT):
        for u in op.refs:
            assert op.feasible_set.feasibility_violation(np.asarray(u, float)) <= 1e-9, op.name


def test_reference_values():
    ops = {op.name: op for name in workloads.WORKLOADS for op in workloads.build(name, ROOT)}
    assert ops["unattained_quartic"].f_ref == pytest.approx(1e-12, rel=1e-3)
    assert ops["chain_k2"].f_ref == pytest.approx(1.00000004, abs=1e-12)


def _originals():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS}


def test_tracer_restores_every_attribute():
    before = _originals()
    x = Polynomial.variable(1, 0)
    with tracing.Tracer() as tracer:
        assert not tracing.restored()
        tracer.op = "0:probe"
        rep = driver.solve_pop(PopProblem(1, x**2 - 2 * x), driver.DriverOptions(k_min=2, k_max=2))
    assert tracing.restored()
    assert _originals() == before
    assert rep.best_bound == pytest.approx(-1.0, abs=1e-5)
    names = [s["name"] for s in tracer.spans]
    for name in ("driver.solve_pop", "relax.assemble", "sdp.solve_with_restarts", "sdp.solve",
                 "sdp.SdpInstance.validate", "relax.sos_certificate_from_dual"):
        assert name in names
    assert all(s["op"] == "0:probe" for s in tracer.spans)
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["driver.orders"][0] == 1
    assert layers["relax.to_sdp_instance.calls"][0] == 2
    assert layers["sdp.attempts"][0] >= layers["sdp.solves"][0] == 1


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(relax.OrderTooSmallError):
        with tracing.Tracer():
            relax.assemble(relax.HOMOGENIZED, PopProblem(1, Polynomial.variable(1, 0) ** 4), 1)
    assert _originals() == before


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "driver.solve_pop", "parent": None, "start": 0.0, "end": 10.0,
         "cpu_start": 0.0, "cpu_end": 10.0, "orders": 2},
        {"id": 1, "name": "sdp.solve_with_restarts", "parent": 0, "start": 1.0, "end": 7.0,
         "cpu_start": 1.0, "cpu_end": 13.0},
        {"id": 2, "name": "sdp.solve", "parent": 1, "start": 1.0, "end": 3.0,
         "cpu_start": 1.0, "cpu_end": 5.0, "iterations": 10, "status": "numerical_trouble"},
        {"id": 3, "name": "sdp.solve", "parent": 1, "start": 3.0, "end": 7.0,
         "cpu_start": 5.0, "cpu_end": 13.0, "iterations": 30, "status": "optimal"},
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans).items()}
    assert m["driver.self_s"] == pytest.approx(4.0)
    assert m["sdp.solve_s"] == pytest.approx(6.0)
    assert m["sdp.solve_cpu_s"] == pytest.approx(12.0)
    assert m["sdp.restart_s"] == pytest.approx(4.0)
    assert m["sdp.useful_attempt_ratio"] == pytest.approx(0.5)
    assert m["sdp.s_per_iteration"] == pytest.approx(0.15)
    assert m["sdp.status.optimal"] == 1 and m["sdp.status.numerical_trouble"] == 1
    assert m["driver.orders"] == 2
