from fractions import Fraction

import pytest

from esymfano.fields import QQ, PrimeField, RationalField
from esymfano.linalg import is_invertible, mat_mul, nullspace, rank, rref

from conftest import qm, rref_oracle


def test_rref_pivots():
    red, pivots = rref(qm([[0, 2, 4], [1, 1, 1]]), QQ)
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


def test_rank():
    assert rank(qm([[1, 2], [2, 4]]), QQ) == 1
    assert rank(qm([[1, 0], [0, 1]]), QQ) == 2


def test_nullspace_solves():
    rows = qm([[1, 2, 3], [0, 1, 1]])
    basis = nullspace(rows, QQ)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_prime_field_rref():
    f5 = PrimeField(5)
    rows = tuple(tuple(f5.from_int(x) for x in r) for r in [[2, 1], [1, 4]])
    assert rank(rows, f5) == 2
    assert is_invertible(rows, f5)


def test_mat_mul():
    a = qm([[1, 2], [3, 4]])
    b = qm([[0, 1], [1, 0]])
    assert mat_mul(a, b, QQ) == qm([[2, 1], [4, 3]])


def triple_loop(a, b, field):
    """(a b)_ij = sum_t a_it b_tj, every term formed: the oracle for mat_mul."""
    out = []
    for row in a:
        cells = []
        for j in range(len(b[0])):
            s = field.zero
            for t in range(len(b)):
                s = field.add(s, field.mul(row[t], b[t][j]))
            cells.append(s)
        out.append(tuple(cells))
    return tuple(out)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_mat_mul_matches_triple_loop(field, rng):
    """Sparse rows against every term: a row vector times a square matrix (as
    orbit_of_form multiplies), square products with rows of zeros, and
    signed permutations."""
    def entry():
        if rng.random() < 0.4:
            return field.zero
        if field is QQ:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return field.from_int(rng.randint(1, 6))

    for n in range(1, 5):
        for _ in range(20):
            b = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
            a = [tuple(entry() for _ in range(n)) for _ in range(n)]
            a[rng.randrange(n)] = (field.zero,) * n
            perm = rng.sample(range(n), n)
            signed = tuple(
                tuple(field.from_int(rng.choice((1, -1))) if perm[i] == j else field.zero
                      for j in range(n))
                for i in range(n)
            )
            for left in ((a[0],), tuple(a), signed):
                assert mat_mul(left, b, field) == triple_loop(left, b, field)
            assert mat_mul(b, signed, field) == triple_loop(b, signed, field)


def test_nullspace_dimension():
    rows = qm([[1, 1, 1, 1]])
    assert len(nullspace(rows, QQ)) == 3


def test_plain_int_entries_over_q_stay_exact():
    """Python ints are rationals too: the inverse of 3 is 1/3, not 0.333..."""
    assert QQ.inv(3) == Fraction(1, 3)
    assert rank([[3, 5, 1], [9, 15, 3]], QQ) == 1
    assert not is_invertible([[3, 5], [9, 15]], QQ)
    assert nullspace([[3, 1], [6, 2]], QQ) == [(Fraction(-1, 3), 1)]


ORACLE_FIELDS = [QQ] + [PrimeField(p) for p in (2, 3, 5, 7, 101, 2**31 - 1)]


def deficient_matrix(field, rng):
    """0-6 rows of 1-8 field elements, built rank deficient: random
    combinations of at most min(rows, cols) - 1 basis rows (or of none),
    some rows repeated and some zero, in a shuffled order."""
    def scalar():
        if field is QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return field.from_int(rng.randrange(field.p))

    nrows, ncols = rng.randint(0, 6), rng.randint(1, 8)
    nbasis = rng.randint(0, max(0, min(nrows, ncols) - 1))
    basis = [[scalar() for _ in range(ncols)] for _ in range(nbasis)]
    rows = []
    while len(rows) < nrows:
        kind = rng.random()
        if kind < 0.15 or not basis:
            rows.append((field.zero,) * ncols)
        elif kind < 0.3 and rows:
            rows.append(rng.choice(rows))
        else:
            row = [field.zero] * ncols
            for b in basis:
                c = scalar()
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
            rows.append(tuple(row))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_and_rank_match_the_field_op_oracle(field, rng):
    """Elimination on integer rows gives the field-op Gauss-Jordan answer,
    value for value and in scalar type, and rank is its pivot count."""
    for _ in range(300):
        rows = deficient_matrix(field, rng)
        red, pivots = rref(rows, field)
        want_red, want_pivots = rref_oracle(rows, field)
        assert (red, pivots) == (want_red, want_pivots)
        assert [type(x) for row in red for x in row] == [
            type(x) for row in want_red for x in row
        ]
        assert rank(rows, field) == len(want_pivots)


def test_hilbert_matrix_has_full_rank():
    hilbert = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]
    assert rank(hilbert, QQ) == 6
    assert rref(hilbert, QQ) == rref_oracle(hilbert, QQ)
    identity6 = list(qm([[int(i == j) for j in range(6)] for i in range(6)]))
    assert rref(hilbert, QQ) == (identity6, list(range(6)))


def test_rank_and_rref_call_no_field_method_per_cell(monkeypatch):
    """rank and rref run on ints: with the fields' add, mul and inv made to
    raise, both still answer as the oracle did beforehand."""
    cases = [
        (QQ, qm([[1, 2, 3, 4], [2, 4, 6, 8], ["1/2", 0, "-3/7", 5], [0, 0, 0, 0]])),
        (QQ, [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]),
        (PrimeField(7), [[1, 2, 3], [2, 4, 6], [0, 5, 1]]),
        (PrimeField(2**31 - 1), [[3, 1, 4, 1], [5, 9, 2, 6], [8, 10, 6, 7]]),
    ]
    expected = [rref_oracle(rows, field) for field, rows in cases]

    def refuse(*args):
        raise AssertionError("field method called")

    for cls in (RationalField, PrimeField):
        for name in ("add", "mul", "inv"):
            monkeypatch.setattr(cls, name, refuse)
    for (field, rows), want in zip(cases, expected):
        assert rref(rows, field) == want
        assert rank(rows, field) == len(want[1])


def test_unreduced_entry_that_is_zero_mod_p_is_not_a_pivot():
    """Over F_p rows are read as residues: 7 is 0 in F_7."""
    F7 = PrimeField(7)
    singular = ((7, 0), (0, 1))
    assert rank(singular, F7) == 1
    assert not is_invertible(singular, F7)
    assert rref(singular, F7) == ([(0, 1), (0, 0)], [1])


@pytest.mark.parametrize("p", [2, 7, 101, 2**31 - 1])
def test_entries_shifted_by_multiples_of_p(p, rng):
    """An F_p matrix with each entry moved by a random multiple of p (either
    sign) has the rank and rref of its residues."""
    field = PrimeField(p)
    for _ in range(100):
        rows = deficient_matrix(field, rng)
        shifted = [[x + p * rng.randint(-3, 3) for x in row] for row in rows]
        assert rank(shifted, field) == rank(rows, field)
        assert rref(shifted, field) == rref(rows, field)
