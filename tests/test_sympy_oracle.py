"""The E_{m-1} expansions of fano checked against sympy.expand.

sympy is an optional test oracle, not a dependency: without it this module
is skipped.
"""

import random
from fractions import Fraction

import pytest

from esymfano.fano import (
    PlaneMatrix,
    enumerate_isolated,
    fano_chart_equations,
    membership_expansion,
)
from esymfano.fields import QQ, PrimeField
from esymfano.poly import degree_monomials

sympy = pytest.importorskip("sympy")

FIELDS = [QQ, PrimeField(3), PrimeField(101)]
FIELD_IDS = ["Q", "F3", "F101"]


def to_sympy(x):
    return sympy.Rational(x.numerator, x.denominator) if isinstance(x, Fraction) else x


def almost_top(columns):
    """sum_j prod_{k != j} columns[k] as an unexpanded sympy expression."""
    return sympy.Add(
        *(sympy.Mul(*(c for k, c in enumerate(columns) if k != j)) for j in range(len(columns)))
    )


def expanded_terms(expr, gens, field):
    """{exponents: coefficient} of expr expanded over Q, mapped into field
    (an integer expression reduced mod p is its expansion over F_p)."""
    out = {}
    for exps, c in sympy.Poly(sympy.expand(expr), *gens).terms():
        c = int(c) % field.characteristic if field.characteristic else Fraction(int(c.p), int(c.q))
        if c:
            out[exps] = c
    return out


def random_plane(field, rng, d, m):
    while True:
        if field.characteristic:
            rows = [[field.from_int(rng.randint(0, 4)) for _ in range(m)] for _ in range(d)]
        else:
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)] for _ in range(d)]
        try:
            return PlaneMatrix(field, rows)
        except ValueError:
            continue


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_membership_expansion(field):
    rng = random.Random(6)
    planes = [T for _, T in enumerate_isolated(2, field)]
    for _ in range(12):
        d = rng.randint(1, 3)
        planes.append(random_plane(field, rng, d, rng.randint(d, 6)))
    for T in planes:
        s = sympy.symbols(f"s1:{T.d + 1}")
        columns = [sum(to_sympy(x) * si for x, si in zip(col, s)) for col in zip(*T.rows)]
        assert membership_expansion(T).terms == expanded_terms(almost_top(columns), s, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("d,m", [(1, 3), (2, 4), (2, 5), (3, 5)])
def test_chart_equations(field, d, m):
    a = [[sympy.Symbol(f"a{i + 1}_{k + 1}") for k in range(m - d)] for i in range(d)]
    s = sympy.symbols(f"s1:{d + 1}")
    # the standard chart: identity in the first d columns, unknowns after
    columns = list(s) + [sum(a[i][k] * s[i] for i in range(d)) for k in range(m - d)]
    na = d * (m - d)
    gens = [x for row in a for x in row] + list(s)
    expected = {}
    for exps, c in expanded_terms(almost_top(columns), gens, field).items():
        expected.setdefault(exps[na:], {})[exps[:na]] = c
    equations = fano_chart_equations(d, m, field)
    assert [s_mono for s_mono, _ in equations] == degree_monomials(d, m - 1)
    assert set(expected) <= set(degree_monomials(d, m - 1))
    for s_mono, eq in equations:
        assert eq.terms == expected.get(s_mono, {})
