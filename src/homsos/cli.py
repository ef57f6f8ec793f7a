"""Problem-file parser, command-line front end and JSON report emitter.

Problem file grammar (one statement per line, ``#`` starts a comment):

    vars: x1 x2
    minimize: x1 + x2
    subject_to:
    x1^3 + x2 + 1 >= 0
    x2^3 - x1 + 1 == 0

``vars:`` comes first and once, ``minimize:`` once.  Expressions support
``+ - * ^`` with nonnegative integer exponents, parentheses and decimal
literals, and parentheses and signs nest at most ``MAX_NESTING`` deep.
Literals are read exactly (``0.1`` is 1/10) and the arithmetic is exact;
a literal or an operation that gives a coefficient outside the coefficient
rule of ``poly`` (past the double range, rounding to 0, or of more than
``poly.MAX_COEFFICIENT_BITS`` bits), or a product too costly to expand
exactly (past ``poly.MAX_PRODUCT_WORK``), is refused where it appears.  A power
whose degree no relaxation that fits in memory could hold is refused before
it is expanded.  Implicit multiplication is not allowed.  A sign
binds looser than ``^`` and tighter than ``*`` wherever it stands: ``-x^2``
is ``-(x^2)`` and ``x * -2^2`` is ``-4 x``.  A power is not raised again:
``x^2^3`` and ``-x^2^3`` are errors; write ``(x^2)^3``.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import re
import sys
from fractions import Fraction

from . import driver, relax, sdp
from .poly import Polynomial, PopProblem, even_variant_refusal


class ProblemParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"""
    (?P<num>\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text, line_no, col_offset=0):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ProblemParseError(f"unexpected character {m.group()!r}",
                                    line_no, col_offset + m.start() + 1)
        tokens.append((kind, m.group(), col_offset + m.start() + 1))
    return tokens


MAX_NESTING = 100   # open parentheses and signs around any factor
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": operator.pow}


class _ExprParser:
    """Recursive descent over + - * ^ ( ) with declared variables only."""

    def __init__(self, tokens, variables, line_no):
        self.tokens = tokens
        self.pos = 0
        self.vars = variables
        self.line = line_no
        self.depth = 0

    def _nested(self, col, parse):
        """``parse()`` one nesting level deeper, refused past ``MAX_NESTING``
        with the column of the opening token."""
        if self.depth == MAX_NESTING:
            raise ProblemParseError(f"expression nests deeper than {MAX_NESTING} "
                                    "parentheses and signs", self.line, col)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def _apply(self, tok, left, right):
        """``left tok right``, with a coefficient ``Polynomial`` refuses raised at ``tok``."""
        try:
            return _OPERATORS[tok[1]](left, right)
        except ValueError as exc:
            raise ProblemParseError(f"{exc} at {tok[1]!r}", self.line, tok[2]) from None

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ProblemParseError("unexpected end of expression", self.line,
                                    self.tokens[-1][2] if self.tokens else 1)
        self.pos += 1
        return tok

    def parse(self):
        expr = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ProblemParseError(
                f"unexpected token {tok[1]!r} (implicit multiplication is "
                "not allowed)", self.line, tok[2])
        return expr

    def _expr(self, ops="+-"):
        """Operands joined left to right by ``ops``: terms by + and -, and
        each term's factors by *."""
        acc = None
        while True:
            right = self._factor() if ops == "*" else self._expr("*")
            acc = right if acc is None else self._apply(tok, acc, right)
            tok = self._peek()
            if tok is None or tok[1] not in ops:
                return acc
            self.pos += 1

    def _factor(self):
        """An optionally signed power; the sign binds looser than ``^``."""
        tok = self._peek()
        if tok is not None and tok[1] in "+-":
            self.pos += 1
            inner = self._nested(tok[2], self._factor)
            return -inner if tok[1] == "-" else inner
        base = self._base()
        caret = self._peek()
        if caret is not None and caret[1] == "^":
            self.pos += 1
            kind, text, col = self._next()
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise ProblemParseError(
                    f"exponent must be a nonnegative integer, got {text!r}",
                    self.line, col)
            tok = self._peek()
            if tok is not None and tok[1] == "^":
                raise ProblemParseError("a power cannot be raised again; use "
                                        "parentheses", self.line, tok[2])
            try:
                exponent = int(text)
            except ValueError:   # more digits than int() converts
                raise ProblemParseError(f"exponent of {len(text)} digits is too large",
                                        self.line, col) from None
            # Refuse a power that no relaxation could hold before expanding it:
            # order ceil(degree / 2), the first that holds it, over the declared
            # variables (no kind has fewer)
            degree = base.degree() * exponent
            k = -(-degree // 2)
            relax.check_order_fits(len(self.vars), k,
                                   f"line {self.line}, column {caret[2]}: a power of "
                                   f"degree {degree}, solved at order {k} or above,")
            return self._apply(caret, base, exponent)
        return base

    def _base(self):
        kind, text, col = self._next()
        n = len(self.vars)
        if kind == "num":
            # screen the range first: Fraction("1e999999999") builds 10^999999999
            value = float(text)
            if not math.isfinite(value):
                raise ProblemParseError(f"literal {text!r} is not a finite "
                                        "number", self.line, col)
            if value == 0 and re.match(r"[^eE]*[1-9]", text):
                raise ProblemParseError(f"literal {text!r} is not representable: its "
                                        "nearest double is 0", self.line, col)
            try:
                coef = Fraction(text) if value else 0
            except ValueError:   # more digits than int() converts
                raise ProblemParseError(f"literal of {len(text)} characters is too long",
                                        self.line, col) from None
            try:
                return Polynomial.constant(n, coef)
            except ValueError as exc:   # more bits than the coefficient rule allows
                raise ProblemParseError(f"{exc} in the literal", self.line, col) from None
        if kind == "name":
            if text not in self.vars:
                raise ProblemParseError(f"undeclared variable {text!r}",
                                        self.line, col)
            return Polynomial.variable(n, self.vars.index(text))
        if text == "(":
            expr = self._nested(col, self._expr)
            kind2, text2, col2 = self._next()
            if text2 != ")":
                raise ProblemParseError("expected ')'", self.line, col2)
            return expr
        raise ProblemParseError(f"unexpected token {text!r}", self.line, col)


def _parse_expression(text, variables, line_no, col_offset=0):
    tokens = _tokenize(text, line_no, col_offset)
    if not tokens:
        raise ProblemParseError("empty expression", line_no, col_offset + 1)
    return _ExprParser(tokens, variables, line_no).parse()


def parse_problem(text: str):
    """Parse problem text into a ``PopProblem``; returns (problem, var names,
    constraint relations in file order).  Raises ``ProblemParseError``, or
    ``sdp.ResourceError`` for a power of too high a degree."""
    variables = None
    objective = None
    in_constraints = False
    equalities, inequalities = [], []
    relations = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        line = content.strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("vars:"):
            if variables is not None:
                raise ProblemParseError("'vars:' may appear only once", line_no, 1)
            names = line[5:].split()
            if not names:
                raise ProblemParseError("no variables declared", line_no, 6)
            if len(set(names)) != len(names):
                raise ProblemParseError("duplicate variable name", line_no, 6)
            variables = names
            continue
        if variables is None:
            raise ProblemParseError("'vars:' must come first", line_no, 1)
        if lowered.startswith("minimize:"):
            if objective is not None:
                raise ProblemParseError("'minimize:' may appear only once", line_no, 1)
            head = re.match(r"\s*minimize:", content, re.IGNORECASE)
            body = content[head.end():]
            if not body.strip():
                raise ProblemParseError("empty objective", line_no,
                                        head.end() + 1)
            objective = _parse_expression(body, variables, line_no, head.end())
            continue
        if lowered.startswith("subject_to:"):
            if line[11:].strip():
                raise ProblemParseError("constraints must follow on their own "
                                        "lines", line_no, 12)
            in_constraints = True
            continue
        if not in_constraints:
            raise ProblemParseError(f"unexpected statement {line!r}", line_no, 1)
        m = re.search(r"(>=|==)", content)
        if not m:
            raise ProblemParseError("constraint must contain '>= 0' or '== 0'",
                                    line_no, 1)
        lhs, rel, rhs = content[:m.start()], m.group(), content[m.end():]
        if rhs.strip() != "0":
            raise ProblemParseError("constraint right-hand side must be 0",
                                    line_no, m.end() + 1)
        expr = _parse_expression(lhs, variables, line_no)
        relations.append(rel)
        (equalities if rel == "==" else inequalities).append(expr)
    if variables is None:
        raise ProblemParseError("missing 'vars:' line", 1, 1)
    if objective is None:
        raise ProblemParseError("missing 'minimize:' line", 1, 1)
    prob = PopProblem(len(variables), objective, tuple(equalities),
                      tuple(inequalities))
    return prob, variables, relations


def format_problem(prob: PopProblem, varnames) -> str:
    """Render a problem in the file grammar; ``parse_problem`` reads back each
    exact coefficient but a p/q one, which a problem built in Python may have."""
    echo = _echo(prob, varnames)
    lines = ["vars: " + " ".join(varnames), "minimize: " + echo["minimize"]]
    if echo["constraints"]:
        lines += ["subject_to:", *echo["constraints"]]
    return "\n".join(lines) + "\n"


_KINDS = {"homog": relax.HOMOGENIZED, "even": relax.HOMOGENIZED_EVEN,
          "denom": relax.DENOMINATOR, "standard": relax.STANDARD}


def _parse_kind(text):
    if text in _KINDS:
        return _KINDS[text]
    m = re.fullmatch(r"power:(\d+)", text)
    if m:
        return relax.power_x0(int(m.group(1)))
    raise argparse.ArgumentTypeError(
        f"unknown kind {text!r}; expected homog|even|denom|power:L|standard")


class _UsageError(Exception):
    """A bad command line, which ``run`` reports in one line."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text):
    """argparse type of the ``--tol-*`` flags: a number that
    ``sdp.check_tolerance`` accepts."""
    try:
        value = float(text)
        sdp.check_tolerance("tolerance", value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}") from None
    return value


def _seed(text):
    """argparse type of ``--seed``."""
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _build_argparser():
    defaults = driver.DriverOptions
    ap = _ArgumentParser(
        prog="homsos",
        description="Moment-SOS solver for polynomial optimization over "
                    "possibly unbounded semialgebraic sets.")
    ap.add_argument("problem", help="path to a problem file, or '-' for stdin")
    ap.add_argument("--order", type=int, default=None,
                    help="solve a single relaxation order")
    ap.add_argument("--max-order", type=int, default=None,
                    help="run the hierarchy up to this order")
    ap.add_argument("--kind", type=_parse_kind, default=defaults.kind,
                    help="relaxation kind: homog|even|denom|power:L|standard")
    ap.add_argument("--infinity", action="store_true",
                    help="solve for minimizers at infinity instead; the "
                         "diagnosis is the verdict on positivity at infinity")
    ap.add_argument("--tol-gap", type=_tolerance, default=defaults.gap_tol)
    ap.add_argument("--tol-rank", type=_tolerance, default=defaults.rank_tol)
    ap.add_argument("--tol-atom", type=_tolerance, default=defaults.atom_tol)
    fmt = ap.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True,
                     help="emit the JSON report (default)")
    fmt.add_argument("--pretty", action="store_true",
                     help="emit a human-readable summary instead of JSON")
    ap.add_argument("--dump-sdpa", metavar="PATH", default=None,
                    help="write the solved SDP in SDPA sparse format "
                         "(PATH.kK for each order K when several run)")
    ap.add_argument("--seed", type=_seed, default=defaults.seed)
    ap.add_argument("--no-verify", action="store_true",
                    help="skip optimality-condition gating of early stops")
    return ap


def _echo(prob, varnames):
    cons = [c.to_string(varnames) + " == 0" for c in prob.equalities]
    cons += [c.to_string(varnames) + " >= 0" for c in prob.inequalities]
    return {"vars": list(varnames),
            "minimize": prob.objective.to_string(varnames),
            "constraints": cons}


def _json_value(value):
    """``value`` with each non-finite float, such as an ``optcond`` margin
    that no constraint bounds, as None: strict JSON writes it null."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _pretty_report(report: dict, out):
    print("records:", file=out)
    for rec in report["records"]:
        print(f"  k={rec['k']} kind={rec['kind']} status={rec['status']} "
              f"f_k={rec['f_k']} f_k'={rec['f_k_prime']} flat_t={rec['flat_t']}",
              file=out)
        for mz in rec["minimizers"]:
            pt = ", ".join(f"{v:.6f}" for v in mz["point"])
            print(f"    minimizer ({pt}) value {mz['value']:.6f}", file=out)
        for mz in rec["minimizers_at_infinity"]:
            pt = ", ".join(f"{v:.6f}" for v in mz["point"])
            print(f"    minimizer at infinity ({pt})", file=out)
    final = report["final"]
    print(f"final: bound={final['best_bound']} converged={final['converged']} "
          f"order={final['convergence_order']}", file=out)
    print(f"diagnosis: {final['diagnosis']}", file=out)


def run(argv, out=None, err=None) -> int:
    """CLI entry; returns the exit code (0 ok, 2 bad command line, parse
    error, bad order, ``--kind even`` on data of odd degree or a
    ``--dump-sdpa`` path that cannot be written, 3 solver failure at every
    order, a non-finite or overflowing interior-point iterate included, 4 a relaxation too
    large for physical memory, refused before it is assembled or, for a
    power in the problem, before the power is expanded, with nothing
    written to ``out``)."""
    out = out or sys.stdout
    err = err or sys.stderr
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:   # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if args.order is not None and args.max_order is not None:
        print("error: --order and --max-order are mutually exclusive", file=err)
        return 2
    for flag, k in (("--order", args.order), ("--max-order", args.max_order)):
        if k is not None and k < 1:
            print(f"error: {flag} must be at least 1, got {k}", file=err)
            return 2
    try:
        if args.problem == "-":
            text = sys.stdin.read()
        else:
            with open(args.problem) as fh:
                text = fh.read()
        prob, varnames, _ = parse_problem(text)
    except (OSError, ProblemParseError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except sdp.ResourceError as exc:
        print(f"error: {exc}", file=err)
        return 4
    # the sphere solve of --infinity does not read the kind
    why = even_variant_refusal(prob) if args.kind.even and not args.infinity else ""
    if why:
        print(f"error: --kind even: {why}", file=err)
        return 2

    opts = driver.DriverOptions(
        kind=args.kind, gap_tol=args.tol_gap, rank_tol=args.tol_rank,
        atom_tol=args.tol_atom, verify=not args.no_verify, seed=args.seed,
        dump_sdpa=args.dump_sdpa, k_min=args.order, k_max=args.max_order)

    try:
        if args.infinity:
            result = driver.minimizers_at_infinity(prob, opts=opts)
        else:
            result = driver.solve_pop(prob, opts)
    except sdp.ResourceError as exc:
        print(f"error: {exc}", file=err)
        return 4
    except OSError as exc:   # --dump-sdpa, written before each order's solve
        print(f"error: --dump-sdpa: {exc}", file=err)
        return 2
    report = {"problem_echo": _echo(prob, varnames)}
    report.update(result.to_dict())
    code = 0 if any(r.status == "optimal" for r in result.records) else 3

    if args.pretty:
        _pretty_report(report, out)
    else:
        json.dump(_json_value(report), out, indent=2, allow_nan=False)
        out.write("\n")
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
