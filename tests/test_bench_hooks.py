"""The attributes that the benchmark's tracer and gate read from homsos.

``bench/tracing.py`` is loaded by file location, without adding ``bench`` to
``sys.path``: its test directory has its own ``conftest`` module, which would
shadow the one these tests import from.
"""

import importlib.util
from pathlib import Path

from homsos import driver

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
