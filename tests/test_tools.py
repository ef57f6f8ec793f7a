import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_reports",
                                                  TOOLS / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path, dump):
    path.write_text(json.dumps(dump))
    return str(path)


def test_compare_reports_separates_drift_from_differences(compare, tmp_path, capsys):
    op = {"records": [{"status": "optimal", "f_k": (0.5).hex(),
                       "certificate_residual": (1e-9).hex(),
                       "optcond": [{"multipliers": {"eq0": (2.0).hex()},
                                    "licq": True}]}],
          "gate": []}
    drifted = json.loads(json.dumps(op))
    drifted["records"][0]["certificate_residual"] = (1.5e-9).hex()
    drifted["records"][0]["optcond"][0]["multipliers"]["eq0"] = (2.0 + 1e-12).hex()
    a = write(tmp_path / "a.json", {"w/op/0": op})
    assert compare.main(a, write(tmp_path / "b.json", {"w/op/0": drifted})) == 0
    out = capsys.readouterr().out
    assert "0 of 1 operations differ" in out
    assert "max drift certificate_residual: 5.000e-10" in out
    assert "max drift multipliers: 1.000e-12" in out

    changed = json.loads(json.dumps(drifted))
    changed["records"][0]["status"] = "numerical_trouble"
    changed["gate"] = ["bound"]
    assert compare.main(a, write(tmp_path / "c.json", {"w/op/0": changed,
                                                     "w/op/1": op})) == 1
    out = capsys.readouterr().out
    assert "w/op/0: /gate, /records/0/status" in out
    assert "w/op/1: only in" in out
