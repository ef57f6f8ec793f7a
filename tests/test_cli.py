import importlib.util
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from homsos import cli, driver, poly, relax, sdp
from homsos.cli import ProblemParseError, format_problem, parse_problem
from homsos.poly import Polynomial, PopProblem

CUBIC_TEXT = """\
vars: x1 x2
minimize: x1 + x2
subject_to:
x1^3 + x2 + 1 >= 0
x2^3 - x1 + 1 >= 0
"""


def test_parse_cubic_example():
    prob, names, relations = parse_problem(CUBIC_TEXT)
    assert names == ["x1", "x2"]
    assert relations == [">=", ">="]
    assert prob.objective.terms == {(1, 0): 1.0, (0, 1): 1.0}
    assert prob.inequalities[0].terms == {(3, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0}
    assert prob.inequalities[1].terms == {(0, 3): 1.0, (1, 0): -1.0, (0, 0): 1.0}
    assert prob.equalities == ()


def test_parse_univariate_unconstrained():
    prob, names, _ = parse_problem("vars: x\nminimize: x^2\n")
    assert names == ["x"]
    assert prob.objective.terms == {(2,): 1.0}
    assert prob.inequalities == () and prob.equalities == ()


def test_parse_missing_vars_line():
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("minimize: x1\n")
    assert exc.value.line == 1


def test_parse_undeclared_variable():
    with pytest.raises(ProblemParseError, match="undeclared"):
        parse_problem("vars: x\nminimize: x + y\n")


def test_parse_bad_exponent():
    with pytest.raises(ProblemParseError, match="exponent"):
        parse_problem("vars: x\nminimize: x^-2\n")
    with pytest.raises(ProblemParseError, match="exponent"):
        parse_problem("vars: x\nminimize: x^1.5\n")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ProblemParseError, match="implicit"):
        parse_problem("vars: x y\nminimize: 2 x\n")


def test_parse_empty_objective():
    with pytest.raises(ProblemParseError, match="empty objective"):
        parse_problem("vars: x\nminimize:\n")


def test_parse_constraints_and_comments():
    text = """# a comment
vars: x y   # trailing comment
minimize: (x - 1)^2 + y^2
subject_to:
x - y == 0
-x + 2.5 >= 0
"""
    prob, _, relations = parse_problem(text)
    assert relations == ["==", ">="]
    assert prob.equalities[0].terms == {(1, 0): 1.0, (0, 1): -1.0}
    assert prob.inequalities[0].terms == {(1, 0): -1.0, (0, 0): 2.5}


def test_parse_error_positions():
    with pytest.raises(ProblemParseError) as exc:
        parse_problem("vars: x\nminimize: x + @\n")
    assert exc.value.line == 2
    assert exc.value.col >= 14


def test_print_parse_round_trip():
    rng = np.random.default_rng(23)
    from homsos.poly import monomial_basis
    monos = monomial_basis(3, 4)
    for _ in range(5):
        picks = rng.choice(len(monos), size=6, replace=False)
        f = Polynomial(3, {monos[i]: rng.uniform(-3, 3) for i in picks})
        g = Polynomial(3, {monos[i]: rng.standard_normal()
                           for i in rng.choice(len(monos), size=3, replace=False)})
        prob = PopProblem(3, f, (g,), (g + 1.0,))
        text = format_problem(prob, ["x1", "x2", "x3"])
        back, _, _ = parse_problem(text)
        assert back.objective.terms == prob.objective.terms
        assert back.equalities[0].terms == prob.equalities[0].terms
        assert back.inequalities[0].terms == prob.inequalities[0].terms


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_run_malformed_file(tmp_path):
    path = tmp_path / "bad.pop"
    path.write_text("minimize: x1\n")
    code, out, err = run_cli([str(path)])
    assert code == 2
    assert "line 1" in err


def test_run_missing_file():
    code, _, err = run_cli(["/nonexistent/problem.pop"])
    assert code == 2


def test_run_conflicting_orders(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text(CUBIC_TEXT)
    code, _, err = run_cli([str(path), "--order", "2", "--max-order", "3"])
    assert code == 2
    assert "mutually exclusive" in err


@pytest.mark.parametrize("flag, value", [("--order", "0"), ("--max-order", "0"),
                                         ("--order", "-1")])
@pytest.mark.parametrize("infinity", [[], ["--infinity"]], ids=["hierarchy", "infinity"])
def test_run_rejects_orders_below_one(tmp_path, flag, value, infinity):
    path = tmp_path / "p.pop"
    path.write_text(CUBIC_TEXT)
    code, out, err = run_cli([str(path), flag, value] + infinity)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least 1, got {value}\n"


@pytest.mark.parametrize("k_min, k_max", [(0, None), (None, 0), (0, 2), (-1, None)])
def test_solve_pop_rejects_orders_below_one(k_min, k_max):
    with pytest.raises(ValueError, match="at least 1"):
        driver.solve_pop(parse_problem(CUBIC_TEXT)[0],
                         driver.DriverOptions(k_min=k_min, k_max=k_max))


@pytest.mark.parametrize("k", [0, -1])
def test_minimizers_at_infinity_rejects_orders_below_one(k):
    with pytest.raises(ValueError, match="at least 1"):
        driver.minimizers_at_infinity(parse_problem(CUBIC_TEXT)[0], k)


def test_run_json_schema_and_determinism(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text(CUBIC_TEXT)
    code1, out1, _ = run_cli([str(path), "--order", "3", "--seed", "5"])
    code2, out2, _ = run_cli([str(path), "--order", "3", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert set(rep) == {"problem_echo", "records", "final"}
    rec = rep["records"][0]
    for field in ("k", "kind", "f_k", "f_k_prime", "status", "flat_t",
                  "minimizers", "minimizers_at_infinity", "optcond"):
        assert field in rec
    assert rep["problem_echo"]["vars"] == ["x1", "x2"]
    assert rep["final"]["best_bound"] == pytest.approx(-1.3849001794597505,
                                                       abs=1e-4)


def test_run_pretty_output(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text("vars: x\nminimize: x^2\n")
    code, out, _ = run_cli([str(path), "--max-order", "2", "--pretty"])
    assert code == 0
    assert "converged=True" in out
    assert "minimizer (" in out


def test_pretty_output_lists_the_minimizers_at_infinity():
    code, out, err = run_cli([str(PROBLEMS / "escape_directions.pop"), "--infinity",
                              "--order", "3", "--pretty"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert sum(line.startswith("    minimizer at infinity (") for line in lines) == 4


def test_run_solver_failure_exit_code(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text("vars: x1 x2\nminimize: x1^4 + (x1*x2 - 1)^2\n")
    code, out, _ = run_cli([str(path), "--order", "3"])
    assert code == 3
    rep = json.loads(out)
    assert "optimum likely unattained" in rep["final"]["diagnosis"]


def test_run_refuses_a_relaxation_too_large_for_memory(monkeypatch):
    # orders 2 and 3 fit in 1 MB and are solved, order 4 does not
    monkeypatch.setattr(sdp, "physical_memory", lambda: 1 << 20)
    problem = Path(__file__).resolve().parents[1] / "problems" / "unattained.pop"
    code, out, err = run_cli([str(problem), "--max-order", "4"])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "physical memory" in err


def test_run_dump_sdpa(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text("vars: x\nminimize: x^2\n")
    dump = tmp_path / "inst.dat-s"
    code, _, _ = run_cli([str(path), "--order", "1", "--dump-sdpa", str(dump)])
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) > 4
    assert all(len(l.split()) == 5 for l in lines[4:])


def test_run_infinity_mode(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text("vars: x1 x2\nminimize: x2^2 + (2*x2^2 + 2*x1*x2 + 1)^2\n")
    code, out, _ = run_cli([str(path), "--infinity", "--order", "3"])
    assert code == 0
    rep = json.loads(out)
    pts = [m["point"] for m in rep["records"][0]["minimizers_at_infinity"]]
    assert len(pts) == 4
    assert abs(rep["final"]["best_bound"]) < 1e-6


def test_infinity_record_follows_order_schema(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text("vars: x1 x2\nminimize: x2^2 + (2*x2^2 + 2*x1*x2 + 1)^2\n")
    _, out, _ = run_cli([str(path), "--infinity", "--order", "3"])
    _, out_h, _ = run_cli([str(path), "--order", "3"])
    rep, rep_h = json.loads(out), json.loads(out_h)
    rec, = rep["records"]
    assert set(rec) == set(driver.OrderRecord(k=3, kind="", status="", f_k=None,
                                              f_k_prime=None).to_dict())
    assert rec["kind"] == "standard(sphere)"
    assert set(rep["final"]) == set(rep_h["final"])
    # the diagnosis is the verdict on positivity at infinity: the escape
    # directions keep the sphere bound at about 0
    assert rep["final"]["diagnosis"] == (
        f"positivity not shown at order 3: bound {rec['f_k']:.3g} is not above 1e-06")


@pytest.mark.parametrize("argv, points, point_keys", [
    (["corner_cubic.pop", "--order", "2"], "minimizers", ["point", "value"]),
    (["unattained.pop", "--infinity"], "minimizers_at_infinity", ["point"])])
def test_json_schema_is_exactly_the_declared_fields(argv, points, point_keys):
    code, out, _ = run_cli([str(PROBLEMS / argv[0])] + argv[1:])
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["problem_echo", "records", "final"]
    rec = rep["records"][0]
    assert list(rec) == ["k", "kind", "status", "f_k", "f_k_prime", "flat_t", "flat_gap",
                         "minimizers", "minimizers_at_infinity", "optcond",
                         "certificate_residual", "iterations", "solver_message", "notes",
                         "symmetry", "blocks"]
    assert list(rec[points][0]) == point_keys
    assert list(rec["optcond"][0]) == [
        "location_kind", "point", "active_set", "licq", "licq_min_sv", "multipliers",
        "fooc_ok", "fooc_residual", "scc", "scc_margin", "sosc", "sosc_margin",
        "lambda0", "lambda_bar", "passed", "notes"]
    assert list(rep["final"]) == ["best_bound", "converged", "convergence_order", "diagnosis"]
    # the Python-only fields of the records and of the infinity report
    for key in ("bound", "atom_set", "values", "positive"):
        assert f'"{key}"' not in out


def test_infinity_dump_sdpa_writes_the_sphere_solve(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text("vars: x1 x2\nminimize: x2^2 + (2*x2^2 + 2*x1*x2 + 1)^2\n")
    dump = tmp_path / "sphere.dat-s"
    code, out, _ = run_cli([str(path), "--infinity", "--order", "3",
                            "--dump-sdpa", str(dump)])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir() if p != path] == [dump.name]
    rec, = json.loads(out)["records"]
    sizes = [int(v) for v in dump.read_text().splitlines()[2].split()]
    # the pencils' blocks, then the equality rows' diagonal block
    assert sizes[:-1] == [b["size"] for b in rec["blocks"].values()]
    assert sizes[-1] < 0


def test_kind_flag_parsing(tmp_path):
    path = tmp_path / "p.pop"
    path.write_text("vars: x\nminimize: x^4 - x^2\n")
    code, out, _ = run_cli([str(path), "--order", "2", "--kind", "even"])
    assert code == 0
    assert json.loads(out)["records"][0]["kind"] == "homogenized_even"
    code, out, _ = run_cli([str(path), "--order", "3", "--kind", "power:1"])
    assert code in (0, 3)
    assert json.loads(out)["records"][0]["kind"] == "power_x0(1)"


def test_cross_kind_agreement_via_cli(tmp_path):
    path = tmp_path / "even.pop"
    path.write_text("vars: x\nminimize: x^4 - x^2\n")
    vals = {}
    for kind in ("even", "denom"):
        code, out, _ = run_cli([str(path), "--order", "3", "--kind", kind])
        assert code == 0
        vals[kind] = json.loads(out)["records"][0]["f_k_prime"]
    assert abs(vals["even"] - vals["denom"]) <= 1e-6 * (1.0 + abs(vals["denom"]))


def test_run_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("vars: x\nminimize: x^2\n"))
    code, out, _ = run_cli(["-", "--max-order", "2"])
    assert code == 0
    assert json.loads(out)["final"]["converged"] is True


@pytest.mark.parametrize("expr", ["x1^2^2", "-x1^2^2", "x1 * -2^3^2", "1 - -x1^2^2",
                                  "(x1)^2^2"])
def test_parse_rejects_a_power_chain_wherever_it_stands(expr):
    # a sign binds looser than ^, so a chain after a sign is a chain too
    with pytest.raises(ProblemParseError, match="raised again") as exc:
        parse_problem(f"vars: x1\nminimize: {expr}\n")
    assert (exc.value.line, exc.value.col) == (2, 11 + expr.rindex("^"))


def test_overflowing_literal_is_a_parse_error(tmp_path):
    text = "vars: x\nminimize: 1e400*x^2 + x\n"
    with pytest.raises(ProblemParseError, match="literal '1e400' is not a finite") as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == (2, 11)
    path = tmp_path / "p.pop"
    path.write_text(text)
    code, out, err = run_cli([str(path)])
    assert (code, out) == (2, "")
    assert err == "error: line 2, column 11: literal '1e400' is not a finite number\n"


def test_run_max_order_below_the_first_order_runs_that_order():
    # cubic_unbounded's first order is 2: --max-order 1 acts like --order 1
    problem = Path(__file__).resolve().parents[1] / "problems" / "cubic_unbounded.pop"
    runs = [run_cli([str(problem), flag, "1"]) for flag in ("--max-order", "--order")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err) == (3, "")
    rec, = json.loads(out)["records"]
    assert (rec["k"], rec["status"]) == (1, "order_too_small")


PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@pytest.mark.parametrize("name, bound, order, point", [
    ("cubic_unbounded", -1.38490, 3, (-0.5774, -0.8075)),
    ("corner_cubic", 2.0, 2, (1.0, 1.0))])
def test_shipped_examples_give_their_documented_answers(name, bound, order, point):
    code, out, err = run_cli([str(PROBLEMS / f"{name}.pop"), "--max-order", "4"])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    final, rec = rep["final"], rep["records"][-1]
    assert final["converged"] and final["convergence_order"] == order
    assert final["best_bound"] == pytest.approx(bound, abs=1e-4)
    assert rec["k"] == order
    assert [m["point"] for m in rec["minimizers"]] == [pytest.approx(point, abs=1e-4)]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_margin_no_constraint_bounds_is_written_null():
    # corner_cubic's minimizer has both inequalities active in two
    # variables: the tangent space is empty, and sosc_margin is infinite
    code, out, err = run_cli([str(PROBLEMS / "corner_cubic.pop")])
    assert (code, err) == (0, "")
    rep = json.loads(out, parse_constant=_refuse_constant)
    margins = [oc["sosc_margin"] for rec in rep["records"] for oc in rec["optcond"]]
    assert None in margins


@pytest.mark.parametrize("text, odd", [
    ("vars: x y\nminimize: x^3 + y\n", "objective"),
    ("vars: x y\nminimize: x^4 + y^4\nsubject_to:\nx^3 >= 0\n", "inequality 0")])
def test_even_kind_on_odd_degrees_is_a_usage_error(tmp_path, text, odd):
    path = tmp_path / "p.pop"
    path.write_text(text)
    code, out, err = run_cli([str(path), "--kind", "even"])
    assert (code, out) == (2, "")
    assert err == ("error: --kind even: even variant requires even degrees for the "
                   f"objective and all inequalities; odd: {odd}\n")


@pytest.mark.parametrize("expr, col", [
    ("1e200*1e200*x^2 + x", 16),     # the second '*'
    ("(1e200*x)^2", 20),             # the '^'
    ("1e308*x + 1e308*x", 19)])      # the '+'
def test_overflowing_operation_is_a_parse_error(tmp_path, expr, col):
    text = f"vars: x\nminimize: {expr}\n"
    with pytest.raises(ProblemParseError, match="overflows") as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == (2, col)
    path = tmp_path / "p.pop"
    path.write_text(text)
    code, out, err = run_cli([str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: line 2")


@pytest.mark.parametrize("nest", [lambda d: "(" * d + "x" + ")" * d,
                                  lambda d: "-" * d + "x^2",
                                  lambda d: "(-" * d + "x" + ")" * d],
                         ids=["parentheses", "signs", "both"])
def test_deep_nesting_is_a_parse_error(nest):
    depth = cli.MAX_NESTING // 2 if nest(1).startswith("(-") else cli.MAX_NESTING
    parse_problem(f"vars: x\nminimize: {nest(depth)}\n")
    for deep in (depth + 1, 30 * depth):
        with pytest.raises(ProblemParseError, match="nests deeper"):
            parse_problem(f"vars: x\nminimize: {nest(deep)}\n")


def test_signs_and_parentheses_keep_their_meaning():
    prob, _, _ = parse_problem("vars: x\nminimize: ---x^2 + -(-(x)) * +-2\n")
    assert prob.objective.terms == {(2,): -1.0, (1,): -2.0}


def run_limited(path, *extra):
    """``homsos path *extra`` in a subprocess under a 2 GiB address-space
    limit and a 60 s timeout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-c", "from homsos.cli import main; main()", str(path), *extra],
        env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("extra", [["--order", "100000"], ["--kind", "power:100000000000"],
                                   ["--kind", "denom", "--order", "100000"]])
def test_huge_symmetric_orders_are_refused_before_any_allocation(tmp_path, extra):
    """x^2 is fixed by x -> -x, so its group's monomial maps were built over
    every moment before the resource guard ran, and the denominator kind
    raised 1 + x^2 to the power k - 1 before that."""
    path = tmp_path / "p.pop"
    path.write_text("vars: x\nminimize: x^2\n")
    proc = run_limited(path, *extra)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ") and "physical memory" in proc.stderr


def test_a_power_no_relaxation_holds_is_refused_before_it_is_expanded(tmp_path):
    """(x + 1)^100000000 was expanded by repeated squaring, for longer than
    any timeout, before the first order could be refused."""
    path = tmp_path / "p.pop"
    path.write_text("vars: x\nminimize: (x + 1)^100000000\n")
    proc = run_limited(path)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("error: line 2, column 18: a power of degree 100000000, "
                                  "solved at order 50000000 or above, needs about")
    assert proc.stderr.count("\n") == 1 and "physical memory" in proc.stderr
    prob, _, _ = parse_problem("vars: x\nminimize: (x + 1)^60\n")
    assert prob.objective.degree() == 60 and len(prob.objective.terms) == 61
    # a size past the float range is written as a power of ten
    with pytest.raises(sdp.ResourceError, match=r"needs about 1e\+391 GB"):
        parse_problem("vars: x\nminimize: x^1" + "0" * 200 + "\n")


@pytest.mark.parametrize("n, k", [(1, 40), (3, 6), (6, 3)])
def test_the_power_guard_refuses_where_assemble_does(monkeypatch, n, k):
    """A power of degree 2k in n declared variables is refused exactly where
    ``relax.assemble`` refuses the standard order-k relaxation on its moment
    matrix alone (``relax.check_order_fits``)."""
    text = f"vars: {' '.join(f'x{i}' for i in range(n))}\nminimize: x0^{2 * k}\n"
    prob, _, _ = parse_problem(text)
    stack = sdp.dense_bytes(0, 0, [poly.basis_size(n, k)])
    monkeypatch.setattr(sdp, "physical_memory", lambda: stack - 1)
    with pytest.raises(sdp.ResourceError) as parsed:
        parse_problem(text)
    with pytest.raises(sdp.ResourceError) as assembled:
        relax.assemble(relax.STANDARD, prob, k, _symmetry=False)
    assert parsed.value.needed == assembled.value.needed == stack
    assert str(parsed.value).startswith(f"line 2, column 13: a power of degree {2 * k}, "
                                        f"solved at order {k} or above, needs about")
    # one byte more: the parser expands the power, and assemble refuses only
    # on its estimate of the whole solve
    monkeypatch.setattr(sdp, "physical_memory", lambda: stack)
    assert parse_problem(text)[0].objective.terms == prob.objective.terms
    with pytest.raises(sdp.ResourceError) as assembled:
        relax.assemble(relax.STANDARD, prob, k, _symmetry=False)
    assert assembled.value.needed == relax._dense_bytes(n, k, (), ()) > stack


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() converts any number of digits")
def test_an_exponent_past_int_conversion_is_a_parse_error():
    with pytest.raises(ProblemParseError, match="exponent of 5000 digits is too large") as exc:
        parse_problem("vars: x\nminimize: x^" + "9" * 5000 + "\n")
    assert (exc.value.line, exc.value.col) == (2, 13)


@pytest.mark.parametrize("flag, value, expected", [
    ("--seed", "-5", "a nonnegative integer"), ("--seed", "1.5", "a nonnegative integer"),
    ("--tol-gap", "-1", "a positive finite number"),
    ("--tol-gap", "nan", "a positive finite number"),
    ("--tol-rank", "-1", "a positive finite number"),
    ("--tol-atom", "inf", "a positive finite number")])
def test_bad_options_are_usage_errors(flag, value, expected):
    # --seed -5 ended in numpy's ValueError traceback (exit 1); the bad
    # tolerances ran every order into numerical_trouble (exit 3)
    code, out, err = run_cli([str(PROBLEMS / "cubic_unbounded.pop"), flag, value])
    assert (code, out) == (2, "")
    assert err == f"error: argument {flag}: expected {expected}, got {value!r}\n"


def test_valid_tolerance_and_seed_flags_reach_the_driver_options(monkeypatch):
    seen = []

    def solve_pop(prob, opts):
        seen.append(opts)
        return driver.HierarchyReport(records=[], best_bound=None, converged=False,
                                      convergence_order=None, diagnosis="")

    monkeypatch.setattr(driver, "solve_pop", solve_pop)
    code, _, err = run_cli([str(PROBLEMS / "cubic_unbounded.pop"), "--tol-gap", "1e-7",
                            "--tol-rank", "1e-5", "--tol-atom", "1e-3", "--seed", "3"])
    assert (code, err) == (3, "")
    assert seen == [driver.DriverOptions(gap_tol=1e-7, rank_tol=1e-5, atom_tol=1e-3, seed=3)]


def test_other_command_line_errors_take_one_line():
    for argv, message in [(["p.pop", "--kind", "odd"], "argument --kind: unknown kind 'odd'"),
                          (["p.pop", "--bogus"], "unrecognized arguments: --bogus"),
                          ([], "the following arguments are required: problem")]:
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("gap_tol", -1.0), ("rank_tol", float("nan")),
                                          ("extract_tol", 0.0), ("atom_tol", float("inf")),
                                          ("seed", -5)])
def test_bad_driver_options_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        driver.DriverOptions(**{field: value})


@pytest.mark.parametrize("text, line, message", [
    ("subject_to:\nx >= 0\nvars: x\nminimize: x^2\n", 1, "'vars:' must come first"),
    ("vars: x\nminimize: x^2\nvars: x y\n", 3, "'vars:' may appear only once"),
    ("vars: x\nvars: y\nminimize: y^2\n", 2, "'vars:' may appear only once"),
    ("vars: x\nminimize: x^2\nminimize: x\n", 3, "'minimize:' may appear only once")])
def test_vars_come_once_and_first_and_minimize_once(tmp_path, text, line, message):
    # these ended in a TypeError or a ValueError traceback, or solved
    # whichever statement came last
    path = tmp_path / "p.pop"
    path.write_text(text)
    code, out, err = run_cli([str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: line {line}, column 1: {message}\n"


@pytest.mark.parametrize("target", ["missing/f.sdpa", "."])
def test_an_unwritable_dump_path_is_a_usage_error(tmp_path, target):
    code, out, err = run_cli([str(PROBLEMS / "cubic_unbounded.pop"),
                              "--dump-sdpa", str(tmp_path / target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: --dump-sdpa: [Errno ") and err.count("\n") == 1


NONFINITE_TEXT = "vars: x\nminimize: 1e250*x^2 + x\n"


def assert_nonfinite_record(rec, k=1):
    assert (rec["k"], rec["status"]) == (k, "numerical_trouble")
    assert rec["f_k"] is None and rec["f_k_prime"] is None
    assert rec["notes"] == ("the solve stopped on a non-finite array: "
                            "array must not contain infs or NaNs")


def test_a_nonfinite_iterate_ends_the_order_with_a_record(tmp_path):
    # the solve overflows (with RuntimeWarnings) before _ipm's finiteness
    # check raised a ValueError out of cli.run
    path = tmp_path / "p.pop"
    path.write_text(NONFINITE_TEXT)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli([str(path), "--order", "1"])
        report = driver.solve_pop(parse_problem(NONFINITE_TEXT)[0],
                                  driver.DriverOptions(k_min=1, k_max=1))
    assert (code, err) == (3, "")
    rec, = json.loads(out)["records"]
    assert_nonfinite_record(rec)
    assert json.loads(out)["final"]["best_bound"] is None
    rec, = report.to_dict()["records"]
    assert_nonfinite_record(rec)
    assert report.records[0].bound is None and report.best_bound is None


@pytest.mark.parametrize("text", [
    "vars: x\nminimize: 1e160*x^2 + x\n",
    "vars: x\nminimize: 1e200*x^2 + x\n"],
    ids=["1e160", "1e200"])
def test_an_overflow_in_the_solve_ends_the_order_with_a_record(tmp_path, text):
    # both ended optimal with meaningless values (f_k -1.43e151 and 0.0),
    # with overflow RuntimeWarnings
    path = tmp_path / "p.pop"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([str(path), "--order", "1"])
    assert (code, err) == (3, "")
    rec, = json.loads(out)["records"]
    assert_nonfinite_record(rec)
    assert json.loads(out)["final"]["best_bound"] is None


OVERFLOWING_OBJECTIVE = "vars: x\nminimize: 1.7e308*x + 1.7e308*x^2\nsubject_to:\nx - 1 == 0\n"


@pytest.mark.parametrize("kind", [[], ["--kind", "standard"]], ids=["default", "standard"])
def test_an_overflow_in_the_reduction_ends_the_order_with_a_record(tmp_path, kind):
    # the equalities fix every moment, and c . y0 overflows in sdp._reduce:
    # a RuntimeWarning, or else an optimal solve with primal_obj inf and a
    # TypeError in the extraction
    path = tmp_path / "p.pop"
    path.write_text(OVERFLOWING_OBJECTIVE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([str(path), "--order", "2", *kind])
    assert (code, err) == (3, "")
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    rec, = report["records"]
    assert_nonfinite_record(rec, k=2)
    assert report["final"]["best_bound"] is None
    assert report["final"]["diagnosis"] == "no usable bound was produced at any order"


INFEASIBLE_TEXT = "vars: x\nminimize: x^2\nsubject_to:\n-1 >= 0\n"


@pytest.mark.parametrize("kind", ["homog", "even", "denom"])
def test_an_infeasible_problem_is_diagnosed_infeasible(tmp_path, kind):
    # the lifted problem has feasible points at infinity only; under homog
    # the certificate ray's residual overflowed before the absolute residual
    # test let it prove the relaxation infeasible, and the order ended
    # numerical_trouble with "no usable bound was produced at any order"
    path = tmp_path / "p.pop"
    path.write_text(INFEASIBLE_TEXT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([str(path), "--kind", kind, "--order", "1"])
    assert (code, err) == (3, "")
    report = json.loads(out)
    rec, = report["records"]
    assert rec["status"] == "primal_infeasible"
    assert rec["solver_message"] == "certificate objective unbounded (moment side infeasible)"
    assert report["final"]["diagnosis"] == "the relaxation is infeasible, and so is the problem"


# (status, start of the solver message, whether f_k is reported) per record
@pytest.mark.parametrize("text, args, records, final", [
    ("vars: x\nminimize: x\n", ["--max-order", "3"],
     [("numerical_trouble", "moment iterate norm diverged", False)] * 3,
     {"best_bound": None, "diagnosis": "no usable bound was produced at any order"}),
    (INFEASIBLE_TEXT, [],
     [("primal_infeasible", "certificate objective unbounded", True)],
     {"diagnosis": "the relaxation is infeasible, and so is the problem"})],
    ids=["unbounded", "infeasible"])
def test_standard_kind_claims_no_bound_or_optimum_it_lacks(tmp_path, text, args, records,
                                                          final):
    # the unbounded problem reported f_k -1.95e5, -273 and -42 at k = 1, 2,
    # 3 from diverged moment iterates, and best_bound -42; the infeasible
    # one was diagnosed as an unattained optimum
    path = tmp_path / "p.pop"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([str(path), "--kind", "standard"] + args)
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert len(report["records"]) == len(records)
    for rec, (status, message, reported) in zip(report["records"], records):
        assert rec["status"] == status and rec["solver_message"].startswith(message)
        assert (rec["f_k"] is not None) == reported
    assert {key: report["final"][key] for key in final} == final


E8 = Fraction("1e-8")


@pytest.mark.parametrize("expr, terms, echo", [
    ("1e-15*x^4 - x^2", {(4,): Fraction("1e-15"), (2,): -1}, "-1.0*x^2 + 1e-15*x^4"),
    ("x^2 + 1e-8*1e-8*x^3", {(2,): 1, (3,): E8**2}, "1.0*x^2 + 1e-16*x^3"),
    ("(1e-8*x)^2 + x", {(2,): E8**2, (1,): 1}, "1.0*x + 1e-16*x^2"),
    ("(1e-8*x + 1e8)^4", {(k,): math.comb(4, k) * E8**(2 * k - 4) for k in range(5)},
     "1e+32 + 4e+16*x + 6.0*x^2 + 4e-16*x^3 + 1e-32*x^4")],
    ids=["literal", "product", "power", "binomial"])
def test_small_coefficients_are_kept_and_echoed(tmp_path, expr, terms, echo):
    # each was refused, since Polynomial dropped every coefficient of
    # magnitude at most 1e-14
    text = f"vars: x\nminimize: {expr}\n"
    assert parse_problem(text)[0].objective.terms == terms
    path = tmp_path / "p.pop"
    path.write_text(text)
    # the badly scaled ones may end with no optimal order (exit 3)
    code, out, err = run_cli([str(path), "--order", "2"])
    assert code in (0, 3) and err == ""
    assert json.loads(out)["problem_echo"]["minimize"] == echo


@pytest.mark.parametrize("expr, col, what", [
    ("x^2 + 1e-400", 17, "literal '1e-400' is not representable"),
    ("x^2 + 1e-200*1e-200*x", 23, "a coefficient underflows to 0 at '*'"),
    ("(1e-200*x)^2 + x", 21, "a coefficient underflows to 0 at '^'")],
    ids=["literal", "product", "power"])
def test_a_coefficient_that_rounds_to_zero_is_refused_at_its_column(tmp_path, expr, col, what):
    text = f"vars: x\nminimize: {expr}\n"
    with pytest.raises(ProblemParseError, match=re.escape(what)) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == (2, col)
    path = tmp_path / "p.pop"
    path.write_text(text)
    code, out, err = run_cli([str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and what in err


def test_a_small_constraint_coefficient_is_kept_and_cancellation_is_exact():
    prob, _, _ = parse_problem("vars: x y\nminimize: x^2 + y^2\nsubject_to:\nx - 1e-16*y == 0\n")
    assert prob.equalities[0].terms == {(1, 0): 1, (0, 1): -Fraction("1e-16")}
    # (1 + 2x - 2x^2)^2 has no x^2 term
    prob, _, _ = parse_problem("vars: x\nminimize: (1 + 2*x - 2*x^2)^2 + 0*x + 0.0 + 1e-7*x\n")
    x = Polynomial.variable(1, 0)
    assert prob.objective.terms == ((1 + 2 * x - 2 * x**2)**2 + Fraction("1e-7") * x).terms
    assert (2,) not in prob.objective.terms


def test_decimal_literals_are_read_exactly():
    # in floats, 1000.1 - 1000 - 0.1 left 2.27e-14*x, and 0.1 + 0.2 echoed
    # as 0.30000000000000004
    prob, _, _ = parse_problem("vars: x\nminimize: x^2 + 1000.1*x - 1000*x - 0.1*x\n")
    assert prob.objective.terms == {(2,): 1}
    prob, names, _ = parse_problem("vars: x\nminimize: (0.1 + 0.2)*x^2\n")
    assert prob.objective.terms == {(2,): Fraction(3, 10)}
    assert format_problem(prob, names) == "vars: x\nminimize: 0.3*x^2\n"


LONG_LITERAL = "1." + "0" * 4000 + "1"


@pytest.mark.parametrize("literal, at", [("1.0000001", "^"), (LONG_LITERAL, LONG_LITERAL)],
                         ids=["power", "long_literal"])
def test_a_coefficient_past_the_bit_limit_is_refused_quickly(literal, at):
    # exactly, the coefficients of these powers grow to millions of digits;
    # the long literal is refused where it stands, not at the '*' after it
    expr = f"({literal}*x + 1)^1000"
    start = time.perf_counter()
    with pytest.raises(ProblemParseError, match="needs more than 2048 bits") as exc:
        parse_problem(f"vars: x\nminimize: {expr}\n")
    assert time.perf_counter() - start < 5
    assert (exc.value.line, exc.value.col) == (2, 11 + expr.index(at))
    # below the limit the power is exact
    prob, _, _ = parse_problem("vars: x\nminimize: (1.0000001*x + 1)^80\n")
    assert prob.objective.terms[(80,)] == Fraction("1.0000001") ** 80


@pytest.mark.parametrize("text, at", [
    ("vars: x y z\nminimize: (1.0000001*x + 1.0000001*y + 1.0000001*z + 1)^40\n", 56),
    ("vars: x y\nminimize: (1.0000001*x + 1.0000001*y + 1)^80\n", 42)],
    ids=["three_vars", "two_vars"])
def test_a_power_too_costly_to_expand_exactly_is_refused_quickly(tmp_path, text, at):
    # exactly, these took 41 s and 16.6 s, with coefficients below the bit limit
    path = tmp_path / "p.pop"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli([str(path)])
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 2, column {at}: a product of ")
    assert err.endswith(" is too costly to expand exactly at '^'\n")
    assert text[text.index("\n") + at] == "^"


def load_bench_problems():
    path = Path(__file__).resolve().parents[1] / "bench" / "problems.py"
    spec = importlib.util.spec_from_file_location("homsos_bench_problems", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [getattr(module, name) for name in dir(module)
            if not name.startswith("_") and callable(getattr(module, name))
            and getattr(module, name).__module__ == module.__name__]


def test_the_product_work_bound_changes_no_shipped_problem(monkeypatch):
    texts = [path.read_text() for path in sorted(PROBLEMS.glob("*.pop"))]
    texts.append("vars: x\nminimize: (x + 1)^60\n")
    builders = load_bench_problems()
    assert len(texts) == 5 and len(builders) == 11
    bounded = [parse_problem(text) for text in texts] + [build() for build in builders]
    monkeypatch.setattr(poly, "MAX_PRODUCT_WORK", math.inf)
    assert bounded == [parse_problem(text) for text in texts] + [build() for build in builders]


@pytest.mark.parametrize("text, line, col, message", [
    pytest.param("vars: x\nminimize: x +\n", 2, 13, "unexpected end of expression",
                 id="end_of_expression"),
    pytest.param("vars: x\nminimize: (x + 1 x\n", 2, 18, "expected ')'", id="unclosed"),
    pytest.param("vars: x\nminimize: x + )\n", 2, 15, "unexpected token ')'",
                 id="unexpected_token"),
    pytest.param("vars: x\nminimize: x\nsubject_to:\n>= 0\n", 4, 1, "empty expression",
                 id="empty_expression"),
    pytest.param("vars:\nminimize: 1\n", 1, 6, "no variables declared", id="no_variables"),
    pytest.param("vars: x y x\nminimize: x\n", 1, 6, "duplicate variable name",
                 id="duplicate_variable"),
    pytest.param("vars: x\nminimize: x\nsubject_to: x >= 0\n", 3, 12,
                 "constraints must follow on their own lines", id="constraint_on_subject_to"),
    pytest.param("vars: x\nminimize: x\nx >= 0\n", 3, 1, "unexpected statement 'x >= 0'",
                 id="constraint_before_subject_to"),
    pytest.param("vars: x\nminimize: x\nsubject_to:\nx <= 0\n", 4, 1,
                 "constraint must contain '>= 0' or '== 0'", id="no_relation"),
    pytest.param("vars: x\nminimize: x\nsubject_to:\nx >= 1\n", 4, 5,
                 "constraint right-hand side must be 0", id="nonzero_right_side"),
    pytest.param("# no statement\n", 1, 1, "missing 'vars:' line", id="missing_vars"),
    pytest.param("vars: x\nsubject_to:\nx >= 0\n", 1, 1, "missing 'minimize:' line",
                 id="missing_minimize")])
def test_each_parse_refusal_names_its_line_and_column(text, line, col, message):
    with pytest.raises(ProblemParseError) as exc:
        parse_problem(text)
    assert str(exc.value) == f"line {line}, column {col}: {message}"
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() converts any number of digits")
def test_a_literal_past_int_conversion_is_a_parse_error():
    with pytest.raises(ProblemParseError, match="literal of 5002 characters is too long") as exc:
        parse_problem("vars: x\nminimize: x^2 + 1." + "1" * 5000 + "\n")
    assert (exc.value.line, exc.value.col) == (2, 17)


def test_python_dash_m_homsos_runs_the_cli():
    # python -m homsos.cli printed runpy's RuntimeWarning before the error
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "homsos", "/nonexistent"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: [Errno 2]") and proc.stderr.count("\n") == 1
