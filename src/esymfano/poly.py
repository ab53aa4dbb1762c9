"""Sparse exact multivariate polynomials.

A polynomial is a map from exponent tuples to nonzero scalars over a fixed
field.  All operations are pure; instances are immutable after construction.
Term iteration is deterministic (graded lexicographic).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations_with_replacement, compress
from math import lcm
from operator import lshift
from sys import byteorder

from .fields import FieldError


def grlex_key(exps):
    return (sum(exps), exps)


def degree_monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, graded-lex order."""
    monos = (
        tuple(map(c.count, range(nvars)))
        for c in combinations_with_replacement(range(nvars), degree)
    )
    return sorted(monos, key=grlex_key)


class Polynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            zero = field.zero
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coeff != zero:
                    clean[exps] = coeff
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, field, nvars):
        return cls.constant(field, nvars, field.one)

    @classmethod
    def variable(cls, field, nvars, index):
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {exps: field.one})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms in graded-lex order, the canonical iteration order: a lex
        sort, then a stable sort by degree, so no Python key runs per term."""
        exps = sorted(self.terms)
        exps.sort(key=sum)
        return list(zip(exps, map(self.terms.__getitem__, exps)))

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def _check_compatible(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise FieldError(
                f"incompatible polynomials: {self.field}/{self.nvars} vars "
                f"vs {other.field}/{other.nvars} vars"
            )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        f = self.field
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(acc.get(e, f.zero), c)
            if s == f.zero:
                acc.pop(e, None)
            else:
                acc[e] = s
        out = Polynomial(f, self.nvars)
        out.terms = acc
        return out

    def __neg__(self):
        f = self.field
        out = Polynomial(f, self.nvars)
        out.terms = {e: f.neg(c) for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return esym(2, (self, other))

    def scale(self, scalar):
        f = self.field
        if scalar == f.zero:
            return Polynomial.zero(f, self.nvars)
        out = Polynomial(f, self.nvars)
        out.terms = {e: f.mul(c, scalar) for e, c in self.terms.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.field}, {self.nvars}, {format_polynomial(self)})"


@cache
def _unit_vectors(n):
    """The exponent vectors x_1, ..., x_n, shared by every form in n variables."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class LinearForm(Polynomial):
    """A degree-1 homogeneous polynomial built from its coefficient row: one
    term x_i per nonzero c_i.  The row stays in coeffs."""

    __slots__ = ("coeffs",)

    def __init__(self, field, coeffs):
        # unit exponents and nonzero coefficients: Polynomial's checks are skipped
        self.coeffs = coeffs = tuple(coeffs)
        self.field = field
        self.nvars = len(coeffs)
        self.terms = {e: c for e, c in zip(_unit_vectors(self.nvars), coeffs) if c}


# -- core operations ------------------------------------------------------


def esym(r: int, polys) -> Polynomial:
    """E_r(g_1, ..., g_m): the t^r coefficient of prod_j (1 + g_j t).

    The factors are Polynomials over one field and one number of variables,
    multiplied out one factor at a time.  After factor j, E_k is still zero
    for k > j + 1, and E_k for k < r - (m - 1 - j) can no longer reach E_r,
    so only the band of k between those bounds is updated and each slot that
    falls below it is released.  For r = m - 1 the band is two slots wide.

    The loop runs on dicts from packed monomials to ints.  Each variable gets
    a slot of w bytes, the smallest w in {1, 2, 4, 8} with base <= 256**w,
    base = 1 + sum_j deg(g_j).  No exponent of any E_k reaches base, so
    adding keys never carries.  Exponents e pack to sum_v e_v << 8*w*v.
    Each result key unpacks in one call: its little-endian bytes for w = 1,
    else a memoryview cast of its bytes to w-byte unsigned ints.  Over F_p
    the ints are residues reduced once per factor step, so none is zero at
    the end.  Over Q the loop runs over Z on D g_j, D the lcm of all
    denominators, and divides by D^r, as E_r(D g) = D^r E_r(g): the zero
    coefficients are dropped once, at the unpack, and each distinct nonzero
    int becomes one Fraction c / D^r, shared by every term that has it.
    Every product in the package is E_r of its r factors: a * b is
    esym(2, (a, b)) and each poly_eval term is one such product.
    """
    polys = list(polys)
    m = len(polys)
    if m == 0:
        raise ValueError("empty factor list")
    if not 0 <= r <= m:
        raise ValueError(f"esym order {r} outside [0, {m}]")
    field, nvars = polys[0].field, polys[0].nvars
    for g in polys[1:]:
        if g.field != field or g.nvars != nvars:
            raise FieldError(
                f"incompatible factors: {field}/{nvars} vars "
                f"vs {g.field}/{g.nvars} vars"
            )
    p = field.characteristic
    D = 1 if p else lcm(*(c.denominator for g in polys for c in g.terms.values()))
    base = 1 + sum(max(map(sum, g.terms), default=0) for g in polys)
    w = next((w for w in (1, 2, 4, 8) if base <= 256**w), None)
    if w is None:
        raise ValueError(f"degree sum {base - 1} does not fit an 8-byte slot")
    shifts = range(0, 8 * w * nvars, 8 * w)
    packed = [
        [(sum(map(lshift, exps, shifts)), int(c * D)) for exps, c in g.terms.items()]
        for g in polys
    ]
    # e[k] holds E_k of the factors processed so far
    e = [{0: 1}] + [{}] * r
    for j, g in enumerate(packed):
        for k in range(min(j + 1, r), max(0, r - m + j), -1):
            acc = dict(e[k])
            for a, ca in e[k - 1].items():
                for b, cb in g:
                    acc[a + b] = acc.get(a + b, 0) + ca * cb
            if p:  # p.__rmod__(c) is c % p
                acc = {key: c for key, c in zip(acc, map(p.__rmod__, acc.values())) if c}
            e[k] = acc
        if r - m + j >= 0:
            e[r - m + j] = None
    terms = e[r].items()
    if not p:  # one Fraction per distinct coefficient; the zeros go here
        frac = {c: Fraction(c, D**r) for c in set(e[r].values()) if c}
        terms = [(key, frac[c]) for key, c in terms if c]
    out = Polynomial(field, nvars)
    if w == 1:  # one byte per variable: the key's bytes are the exponents
        out.terms = {tuple(key.to_bytes(nvars, "little")): c for key, c in terms}
    else:
        nbytes, code = nvars * w, "HIQ"[w.bit_length() - 2]
        out.terms = {
            tuple(memoryview(key.to_bytes(nbytes, byteorder)).cast(code)): c
            for key, c in terms
        }
    return out


def elem_sym(r: int, m: int, field) -> Polynomial:
    """The r-th elementary symmetric polynomial in m variables."""
    if not 0 <= r <= m:
        raise ValueError(f"elem_sym order {r} outside [0, {m}]")
    if m == 0:
        return Polynomial.one(field, 0)
    return esym(r, [Polynomial.variable(field, m, j) for j in range(m)])


def poly_eval(f: Polynomial, args) -> Polynomial:
    """Evaluate f by substituting a polynomial for each of its variables.

    The term c x^e becomes E_{r+1} of the constant c and r = |e| factors,
    args[j] repeated e_j times: the product of all r + 1.
    """
    args = list(args)
    if len(args) != f.nvars:
        raise ValueError(f"expected {f.nvars} substitution polynomials, got {len(args)}")
    if not args:
        # zero-variable polynomial is a constant
        raise ValueError("cannot substitute into a polynomial with no variables")
    field = args[0].field
    nvars = args[0].nvars
    for g in args:
        if g.field != field or g.nvars != nvars:
            raise FieldError("substitution polynomials over mismatched rings")
    total = Polynomial.zero(field, nvars)
    for exps, coeff in f.sorted_terms():
        factors = [g for g, k in zip(args, exps) for _ in range(k)]
        const = Polynomial.constant(field, nvars, coeff)
        total = total + esym(len(factors) + 1, [const, *factors])
    return total


def coefficient_rows(polys):
    """One row per polynomial: its coefficients over every monomial that
    occurs in any of them, the monomials in first-seen order."""
    polys = list(polys)
    monos = dict.fromkeys(e for g in polys for e in g.terms)
    return [tuple(g.terms.get(e, g.field.zero) for e in monos) for g in polys]


def esym_almost_top(polys) -> Polynomial:
    """E_{m-1}(g_1, ..., g_m) = sum_j prod_{k != j} g_k."""
    polys = list(polys)
    return esym(len(polys) - 1, polys)


# -- formatting (I/O boundary only) ---------------------------------------


def default_names(nvars, stem="x"):
    return [f"{stem}{i+1}" for i in range(nvars)]


def _power(name, e):
    return name if e == 1 else f"{name}^{e}"


def _factors(exps, names) -> str:
    """The product of the named variables to their exponents; '' for 1."""
    return "*".join(map(_power, compress(names, exps), compress(exps, exps)))


def format_polynomial(p: Polynomial, names=None) -> str:
    """Terms in graded-lex order, a coefficient 1 left out and each sign
    moved to the operator in front of its term: '1/2 + 2*x1 - x2^3'."""
    if p.is_zero():
        return "0"
    if names is None:
        names = default_names(p.nvars)
    fmt = p.field.fmt
    # with no exponent above 1 a monomial is its variables' names joined
    squarefree = max(chain.from_iterable(p.terms), default=0) < 2
    pieces = []
    for exps, coeff in p.sorted_terms():
        mono = "*".join(compress(names, exps)) if squarefree else _factors(exps, names)
        cs = fmt(coeff)
        sign, cs = (" - ", cs[1:]) if cs[0] == "-" else (" + ", cs)
        pieces += sign, (cs + "*" + mono if mono and cs != "1" else mono or cs)
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def format_monomial(exps, names=None) -> str:
    if names is None:
        names = default_names(len(exps))
    return _factors(exps, names) or "1"
