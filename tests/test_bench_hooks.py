"""The attributes that the benchmark's tracer and gate read from homsos.

``bench/tracing.py`` is loaded by file location, without adding ``bench`` to
``sys.path``: its test directory has its own ``conftest`` module, which would
shadow the one these tests import from.
"""

import importlib.util
from pathlib import Path

import numpy as np

from homsos import driver, optcond
from homsos.poly import Polynomial, PopProblem

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("homsos_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_exist():
    tracing = _load_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []


def test_infinity_report_fields_read_by_the_gate():
    for name in ("bound", "status", "points"):
        assert isinstance(getattr(driver.InfinityReport, name, None), property), name


def test_infinity_checks_do_not_call_the_traced_regular_check(monkeypatch):
    # the tracer counts one span per wrapped call; an at-infinity check that
    # went through optcond.check_regular would count twice
    def traced(*args, **kwargs):
        raise AssertionError("optcond.check_regular called")

    monkeypatch.setattr(optcond, "check_regular", traced)
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    v = np.array([0.0, 1.0])
    assert optcond.check_at_infinity(PopProblem(2, a * b, (), (a,)), v, 0.0).licq
    assert optcond.check_at_infinity_even(PopProblem(2, a**4 + b**2), v, 0.0).licq
