import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from homsos import driver, relax, sdp
from homsos.cli import parse_problem

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare():
    return load("compare_reports")


@pytest.fixture(scope="module")
def dump():
    return load("dump_reports")


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


def test_hexed_writes_every_float_in_hex(dump):
    value = {"a": [1.5, (2.0, np.array([0.25, -3.0]))], 7: {"b": np.float64(0.1)},
             "m": np.array([[1.0], [np.nan]]), "keep": [3, "x", True, None]}
    assert dump.hexed(value) == {
        "a": ["0x1.8000000000000p+0", ["0x1.0000000000000p+1",
                                       ["0x1.0000000000000p-2", "-0x1.8000000000000p+1"]]],
        "7": {"b": "0x1.999999999999ap-4"},
        "m": [["0x1.0000000000000p+0"], ["nan"]],
        "keep": [3, "x", True, None]}


def test_report_adds_the_bounds_and_the_infinity_fields(dump):
    prob, _, _ = parse_problem("vars: x\nminimize: x^2 - 2*x\n")
    rep = driver.solve_pop(prob, driver.DriverOptions(k_max=2))
    out = dump.report(rep, driver)
    bounds = [rec.bound for rec in rep.records]
    assert out["bounds"] == bounds and bounds[0] == pytest.approx(-1.0, abs=1e-6)
    assert dump.hexed(out) == dump.hexed(dict(rep.to_dict(), bounds=bounds))

    prob, _, _ = parse_problem((ROOT / "problems" / "unattained.pop").read_text())
    inf = driver.minimizers_at_infinity(prob)
    out = dump.report(inf, driver)
    assert set(out) == set(inf.to_dict()) | {"bounds", "bound", "status", "points", "values",
                                             "positive"}
    assert (out["bound"], out["status"]) == (inf.records[0].bound, "optimal")
    # the escape directions keep the sphere bound from showing positivity
    assert out["positive"] is False
    assert out["bounds"] == [out["bound"]]
    assert len(out["points"]) == len(out["values"]) == 2
    assert sorted(abs(round(p[1])) for p in out["points"]) == [1, 1]
    assert json.loads(json.dumps(dump.hexed(out)))["values"] == [v.hex() for v in out["values"]]

    cli_result = SimpleNamespace(code=3, report={"final": {"best_bound": None}})
    assert dump.report(cli_result, driver) == {"code": 3, "report": cli_result.report}


def test_memory_layers_shows_each_layer_and_restores_it(capsys):
    layers = load("memory_layers")
    wrapped = [(sdp, "_reduce"), (relax, "assemble"), (sdp.SdpInstance, "validate")]
    before = [owner.__dict__[attr] for owner, attr in wrapped]
    layers.main(str(ROOT), "large_sdp", "1")
    assert [owner.__dict__[attr] for owner, attr in wrapped] == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["call", *layers.FIELDS]
    rows = [line.rsplit(maxsplit=3) for line in lines[1:]]
    names = [name.strip() for name, *_ in rows]
    assert names[0] == "set-up" and names[-1] == "product_quartic_k4: failures []"
    for name in ("relax.assemble", "sdp._reduce", "sdp._stack_factor", "sdp._ipm",
                 "relax.sos_certificate_from_dual", "driver.solve_pop"):
        assert name in names
    hwm = [float(h) for _, h, _, _ in rows]
    assert hwm == sorted(hwm)
    assert all(float(anon) > 0 and float(file) > 0 for _, _, anon, file in rows)
