import random
from fractions import Fraction

import pytest

from esymfano.fields import QQ, PrimeField
from esymfano.linalg import identity, mat_mul, nullspace
from esymfano.poly import (
    LinearForm,
    Polynomial,
    coefficient_rows,
    default_names,
    esym,
    grlex_key,
)


@pytest.fixture
def rng():
    return random.Random(20260826)


def qm(rows):
    """Rational matrix from a nested list of ints/fractions-as-strings."""
    return tuple(tuple(QQ.parse(str(x)) for x in row) for row in rows)


def fpm(rows, p):
    f = PrimeField(p)
    return tuple(tuple(f.from_int(x) for x in row) for row in rows)


def reciprocal_oracle(forms):
    """The relation space of the reciprocals by expansion: clear denominators
    to sum_j lambda_j prod_{k != j} f_k = 0, form each omit-one product as
    E_{m-1} with f_j replaced by a zero form, and take the nullspace of the
    coefficient matrix (one row per monomial, one column per form)."""
    forms = list(forms)
    field, m = forms[0].field, len(forms)
    zero = LinearForm(field, [field.zero] * forms[0].nvars)
    products = [esym(m - 1, forms[:j] + [zero] + forms[j + 1 :]) for j in range(m)]
    return nullspace(list(zip(*coefficient_rows(products))), field)


def mul_oracle(a, b):
    """a * b by one field.add and one field.mul per pair of terms, on
    exponent tuples: the route that Polynomial.__mul__, which is esym(2, ...)
    on packed ints, is checked against."""
    f = a.field
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = f.add(acc.get(e, f.zero), f.mul(c1, c2))
            if s == f.zero:
                acc.pop(e, None)
            else:
                acc[e] = s
    return Polynomial(f, a.nvars, acc)


def eval_oracle(f, args):
    """f with args[j] substituted for variable j, term by term through
    mul_oracle, each power args[j]**k formed once and cached: the route
    that poly.poly_eval, one esym per term, is checked against."""
    field, nvars = args[0].field, args[0].nvars
    powers = [[Polynomial.one(field, nvars)] for _ in args]

    def power(j, k):
        while len(powers[j]) <= k:
            powers[j].append(mul_oracle(powers[j][-1], args[j]))
        return powers[j][k]

    total = Polynomial.zero(field, nvars)
    for exps, coeff in f.terms.items():
        term = Polynomial.constant(field, nvars, coeff)
        for j, k in enumerate(exps):
            if k:
                term = mul_oracle(term, power(j, k))
        total = total + term
    return total


def substitution_oracle(f, matrix):
    """f at the column forms L_j(s) = sum_i matrix[i][j] s_i of a d x m
    matrix, m = f.nvars, through eval_oracle: the result lives in d
    variables.  It runs no esym, so it checks esym at a plane's columns."""
    return eval_oracle(f, [LinearForm(f.field, col) for col in zip(*matrix)])


def closure_oracle(generators, field):
    """The set of elements of the group the matrices generate, breadth first
    from the identity through linalg.mat_mul on the field's own elements:
    the route that invariants.close_group, which multiplies integer forms,
    is checked against."""
    gens = [tuple(tuple(row) for row in g) for g in generators]
    ident = identity(len(gens[0]), field)
    seen = {ident}
    frontier = [ident]
    while frontier:
        reached = []
        for x in frontier:
            for g in gens:
                prod = mat_mul(x, g, field)
                if prod not in seen:
                    seen.add(prod)
                    reached.append(prod)
        frontier = reached
    return seen


def rref_oracle(rows, field):
    """Gauss-Jordan elimination through the field's own operations, one
    field.inv per pivot and a field.mul, field.neg and field.add per cell:
    the oracle that linalg.rref and linalg.rank, which eliminate on integer
    rows, are checked against.  Returns (rows as tuples, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    zero = field.zero
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != zero:
                factor = mat[i][c]
                mat[i] = [
                    field.add(x, field.neg(field.mul(factor, y)))
                    for x, y in zip(mat[i], mat[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat], pivots


def format_oracle(p, names=None):
    """A polynomial's text by one explicit pass per term: the terms sorted by
    grlex_key, each monomial's factors collected in a loop, and the signed
    parts joined one at a time; the oracle that poly.format_polynomial, which
    sorts and joins in C, is checked against."""
    if p.is_zero():
        return "0"
    if names is None:
        names = default_names(p.nvars)
    parts = []
    for exps in sorted(p.terms, key=grlex_key):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        cs = p.field.fmt(p.terms[exps])
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            parts.append(cs + "*" + mono)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


# 24 integer forms in 5 variables: 14 pairwise non-proportional rows (the
# third entry is 1 and the first entries differ), then 10 scaled repeats that
# make classes of sizes 4, 3, 2, 2, 2, 2 and 2; relation space dimension 10
DISTINCT_ROWS = [(j + 1, j * j, 1, j % 3, 2) for j in range(14)]
REPEATED_ROWS = DISTINCT_ROWS + [
    tuple(c * x for x in DISTINCT_ROWS[j])
    for j, c in [
        (0, 2), (0, -3), (0, -1), (1, 2), (1, -5), (2, 3), (3, 4), (4, -2), (5, 6), (6, 7)
    ]
]


def reciprocal_relation_holds(rows, vec, rng, points=3):
    """sum_j vec[j] / f_j(x) == 0 at random rational points x where no form
    f_j (coefficient row rows[j]) vanishes: a check that expands nothing."""
    checked = 0
    while checked < points:
        x = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in rows[0]]
        values = [sum(Fraction(c) * xi for c, xi in zip(row, x)) for row in rows]
        if all(values):
            if sum(Fraction(lam) / v for lam, v in zip(vec, values)) != 0:
                return False
            checked += 1
    return True
