"""Sparse multivariate polynomial arithmetic and calculus.

A polynomial maps exponent tuples to exact ``fractions.Fraction``
coefficients, so arithmetic is exact and only exactly-zero terms vanish.
Each nonzero coefficient, parsed or built in Python, has a finite, nonzero
nearest double and at most ``MAX_COEFFICIENT_BITS`` bits in its numerator and
denominator; ``Polynomial`` raises ``ValueError`` on one that breaks this rule,
and on a product whose expansion would cost more than ``MAX_PRODUCT_WORK``.
Floats are formed at the numeric boundary alone: ``coefficient_vector``,
``eval`` (so ``gradient`` and ``hessian``) and ``relax._shifted_rows``.
All monomial enumeration uses the graded-lexicographic order

    1, x1, x2, ..., x1^2, x1*x2, ..., x2^2, ...

(degree first, then earlier variables with higher powers first), which fixes
the indexing of truncated moment vectors across the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

MAX_COEFFICIENT_BITS = 2048   # in a numerator or denominator: bounds exact arithmetic's cost
# Term pairs of a product times the two operands' coefficient bits (see
# ``Polynomial.__mul__``): about 3 s of Fraction arithmetic on a 2-vCPU host.
MAX_PRODUCT_WORK = 10 ** 8


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, deg: int) -> tuple:
    """All exponent tuples of total degree ``deg`` in graded-lex order."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if nvars == 1:
        return ((deg,),)
    out = []
    for i in range(deg, -1, -1):
        out.extend((i,) + rest for rest in monomials_of_degree(nvars - 1, deg - i))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, deg: int) -> tuple:
    """All exponent tuples of total degree <= ``deg`` in graded-lex order."""
    out = []
    for t in range(deg + 1):
        out.extend(monomials_of_degree(nvars, t))
    return tuple(out)


@lru_cache(maxsize=None)
def basis_index(nvars: int, deg: int) -> dict:
    """Map monomial -> position in ``monomial_basis(nvars, deg)``."""
    return {m: i for i, m in enumerate(monomial_basis(nvars, deg))}


def basis_size(nvars: int, deg: int) -> int:
    return math.comb(nvars + deg, deg)


@lru_cache(maxsize=None)
def exponent_array(nvars: int, deg: int) -> np.ndarray:
    """``monomial_basis(nvars, deg)`` as a read-only (size, nvars) array."""
    out = np.array(monomial_basis(nvars, deg), dtype=np.int64).reshape(-1, nvars)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _lower_counts(nvars: int, deg: int) -> np.ndarray:
    """counts[j, t]: the number C(t + j - 1, j) of monomials in j variables
    of degree below t, for j <= nvars and t <= deg (read-only)."""
    out = np.array([[math.comb(t + j - 1, j) if t else 0 for t in range(deg + 1)]
                    for j in range(nvars + 1)], dtype=np.int64)
    out.flags.writeable = False
    return out


def monomial_positions(exps) -> np.ndarray:
    """Graded-lex positions of the exponent vectors along the last axis of
    ``exps``: each monomial's index in any ``monomial_basis`` holding it.

    With tails T_i = e_i + ... + e_(n-1), the monomials before x^e are those
    of degree below T_0 and, for each i >= 1, those of e's degree that agree
    with e before variable i - 1, put more on it and so less than T_i on
    variables i onwards: sum_i C(T_i + n - i - 1, n - i) in all."""
    exps = np.asarray(exps, dtype=np.int64)
    n = exps.shape[-1]
    tails = np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1]
    counts = _lower_counts(n, int(tails[..., 0].max(initial=0)))
    return counts[np.arange(n, 0, -1), tails].sum(axis=-1)


def _coefficient_text(c: Fraction) -> str:
    """``repr(float(c))`` when that text reads back as exactly c, else c's
    exact decimal expansion: finite for any int, float, decimal literal, and
    their sums and products.  Others are written p/q, outside the grammar."""
    if Fraction(repr(float(c))) == c:
        return repr(float(c))
    p = c.denominator.bit_length()   # d divides 10^p iff its primes are 2 and 5
    scaled, rest = divmod(abs(c.numerator) * 10 ** p, c.denominator)
    if rest:
        return str(c)
    digits = str(scaled).rjust(p + 1, "0")
    return ("-" if c < 0 else "") + f"{digits[:-p]}.{digits[-p:]}".rstrip("0").rstrip(".")


class Polynomial:
    """Immutable sparse polynomial with ``Fraction`` coefficients, read
    exactly from ints, floats, fractions and decimal strings."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean = {}
        for mono, coef in (terms or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent {mono} has wrong length for {nvars} vars")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if isinstance(coef, float) and not math.isfinite(coef):
                raise ValueError(f"coefficient {coef!r} is not finite")
            c = Fraction(coef)
            if not c:
                continue
            try:   # the coefficient rule of the module docstring
                nearest = float(c)
            except OverflowError:
                raise ValueError("a coefficient overflows") from None
            if not nearest:
                raise ValueError("a coefficient underflows to 0")
            if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFFICIENT_BITS:
                raise ValueError(f"a coefficient needs more than {MAX_COEFFICIENT_BITS} bits")
            clean[mono] = c
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, {mono: 1})

    @staticmethod
    def monomial(nvars: int, exponents: Sequence[int], coef=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(exponents): coef})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def coefficient_vector(self, deg: int) -> np.ndarray:
        """Dense coefficients over ``monomial_basis(self.nvars, deg)``, each
        rounded to the nearest float."""
        if self.degree() > deg:
            raise ValueError("degree bound too small for this polynomial")
        idx = basis_index(self.nvars, deg)
        vec = np.zeros(len(idx))
        for mono, c in self.terms.items():
            vec[idx[mono]] = float(c)
        return vec

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Polynomial.constant(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def _bits(self) -> int:
        """The most bits of a numerator or denominator of a coefficient, at
        least the 64 of a machine word, below which a Fraction operation
        costs about the same."""
        return max([64] + [max(c.numerator.bit_length(), c.denominator.bit_length())
                           for c in self.terms.values()])

    def __mul__(self, other):
        """The exact product.  Raises ``ValueError`` before expanding when its
        term pairs times the two operands' coefficient bits exceed
        ``MAX_PRODUCT_WORK``, the cost of the expansion in that measure."""
        other = self._coerce(other)
        bits = (self._bits(), other._bits())
        if len(self.terms) * len(other.terms) * sum(bits) > MAX_PRODUCT_WORK:
            raise ValueError(f"a product of {len(self.terms)} by {len(other.terms)} terms with "
                             f"coefficients of up to {max(bits)} bits is too costly to expand "
                             "exactly")
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- homogenization and graded structure ----------------------------

    def homogenize(self) -> "Polynomial":
        """Lift to ``nvars + 1`` variables: each term x^a of degree |a| becomes
        x0^(deg - |a|) * x^a, with x0 prepended as variable 0."""
        d = self.degree()
        terms = {(d - sum(m),) + m: c for m, c in self.terms.items()}
        return Polynomial(self.nvars + 1, terms)

    def dehomogenize(self) -> "Polynomial":
        """Substitute variable 0 = 1 and drop it (inverse of homogenize)."""
        if self.nvars < 2:
            raise ValueError("need at least two variables to dehomogenize")
        terms = {}
        for mono, c in self.terms.items():
            m = mono[1:]
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.nvars - 1, terms)

    def graded_part(self, i: int) -> "Polynomial":
        """Homogeneous part of the i-th highest degree (i >= 1); the part of
        total degree ``degree() - (i - 1)``, possibly zero."""
        if i < 1:
            raise ValueError("i must be >= 1")
        target = self.degree() - (i - 1)
        return Polynomial(self.nvars,
                          {m: c for m, c in self.terms.items() if sum(m) == target})

    # -- calculus --------------------------------------------------------

    def __call__(self, point) -> float:
        return self.eval(point)

    def eval(self, point) -> float:
        x = np.asarray(point, dtype=float)
        if x.shape != (self.nvars,):
            raise ValueError(f"point must have length {self.nvars}")
        total = 0.0
        for mono, c in self.terms.items():
            v = float(c)
            for xi, e in zip(x, mono):
                if e:
                    v *= xi ** e
            total += v
        return total

    def derivative(self, i: int) -> "Polynomial":
        """Partial derivative in variable i; its terms keep the order of
        the terms they come from."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        terms = {}
        for mono, c in self.terms.items():
            if mono[i]:
                terms[mono[:i] + (mono[i] - 1,) + mono[i + 1:]] = c * mono[i]
        return Polynomial(self.nvars, terms)

    def gradient(self, point) -> np.ndarray:
        return np.array([self.derivative(i).eval(point) for i in range(self.nvars)])

    def hessian(self, point) -> np.ndarray:
        h = np.array([[di.derivative(j).eval(point) for j in range(self.nvars)]
                      for di in map(self.derivative, range(self.nvars))])
        return 0.5 * (h + h.T)

    # -- printing --------------------------------------------------------

    def to_string(self, varnames: Sequence[str] | None = None) -> str:
        """Exact textual form: each coefficient as ``_coefficient_text``
        writes it, in decimal when its expansion is finite, else as p/q."""
        if varnames is None:
            varnames = [f"x{i + 1}" for i in range(self.nvars)]
        if len(varnames) != self.nvars:
            raise ValueError("wrong number of variable names")
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=lambda m: (sum(m), tuple(-e for e in m)))
        parts = []
        for mono in monos:
            c = self.terms[mono]
            factors = [_coefficient_text(c)]
            for name, e in zip(varnames, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()!r})"


@dataclass(frozen=True)
class PopProblem:
    """Polynomial optimization problem: minimize an objective subject to
    equality and inequality (>= 0) polynomial constraints."""

    nvars: int
    objective: Polynomial
    equalities: tuple = ()
    inequalities: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "equalities", tuple(self.equalities))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        for p in (self.objective, *self.equalities, *self.inequalities):
            if p.nvars != self.nvars:
                raise ValueError("all polynomials must share the problem's nvars")

    def feasibility_violation(self, point) -> float:
        """Max constraint violation at a point (0 means feasible)."""
        v = 0.0
        for c in self.equalities:
            v = max(v, abs(c.eval(point)))
        for c in self.inequalities:
            v = max(v, -min(0.0, c.eval(point)))
        return v


def sum_of_squares_norm(nvars: int) -> Polynomial:
    """The polynomial ||x||^2 = x1^2 + ... + xn^2."""
    terms = {}
    for i in range(nvars):
        terms[tuple(2 if j == i else 0 for j in range(nvars))] = 1
    return Polynomial(nvars, terms)


def sphere_equation(nvars: int) -> Polynomial:
    """||x||^2 - 1."""
    return sum_of_squares_norm(nvars) - 1


def even_variant_refusal(prob: PopProblem) -> str:
    """Why the even variant of ``build_homogenized`` refuses ``prob``, or ""
    when it does not: it needs even degrees for the objective and every
    inequality."""
    bad = ["objective"] if prob.objective.degree() % 2 == 1 else []
    bad += [f"inequality {j}" for j, c in enumerate(prob.inequalities)
            if c.degree() % 2 == 1]
    if not bad:
        return ""
    return ("even variant requires even degrees for the objective and all "
            "inequalities; odd: " + ", ".join(bad))


def build_homogenized(prob: PopProblem, even_variant: bool = False) -> PopProblem:
    """Lift the problem to the unit sphere in (x0, x) coordinates.

    The lifted problem has nvars+1 variables with x0 first and the
    homogenized objective and constraints.  Its equalities end with the
    sphere equation |x~|^2 - 1; unless ``even_variant``, its inequalities
    end with the polynomial x0.  The even variant raises ValueError on
    data of odd degree (``even_variant_refusal``).
    """
    why = even_variant_refusal(prob) if even_variant else ""
    if why:
        raise ValueError(why)
    n1 = prob.nvars + 1
    eqs = [c.homogenize() for c in prob.equalities]
    eqs.append(sphere_equation(n1))
    ineqs = [c.homogenize() for c in prob.inequalities]
    if not even_variant:
        ineqs.append(Polynomial.variable(n1, 0))
    return PopProblem(n1, prob.objective.homogenize(), tuple(eqs), tuple(ineqs))
