"""Exact linear algebra over an exact field: RREF, rank, nullspace, products."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon(rows, field, reduced):
    """(mat, pivots): the rows in echelon form on Python ints, pivot row k of
    mat holding a nonzero entry in column pivots[k] and the zero rows last.

    Over Q each row is scaled to integers by the lcm of its denominators;
    over F_p each entry is read as its residue mod p.  Scaling a row keeps
    the row space.  Each step sets row_i <- piv * row_i - f * row_r, piv the
    pivot and f the entry of row_i in its column, then reduces row_i modulo
    p, or over Z divides it by the gcd of its entries, which keeps the
    entries small.  The forward pass clears each pivot column below the pivot; with
    reduced it clears it above too.  No field method is called per cell.
    """
    p = field.characteristic
    if p:
        mat = [[x % p for x in r] for r in rows]
    else:
        mat = []
        for r in rows:
            den = lcm(*(x.denominator for x in r))
            mat.append(_primitive([x.numerator * (den // x.denominator) for x in r]))
    n = len(mat)
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        piv = prow[c]
        for i in range(0 if reduced else r + 1, n):
            f = mat[i][c]
            if f and i != r:
                if p:
                    mat[i] = [(piv * x - f * y) % p for x, y in zip(mat[i], prow)]
                else:
                    mat[i] = _primitive([piv * x - f * y for x, y in zip(mat[i], prow)])
        pivots.append(c)
        if r + 1 == n:
            break
    return mat, pivots


def rref(rows, field):
    """Reduced row echelon form.

    Returns (rref rows as list of tuples, pivot column list).  The
    elimination runs on integer rows (_echelon); each pivot row is divided
    by its pivot at the end and the zero rows are field.zero.
    """
    mat, pivots = _echelon(rows, field, True)
    p = field.characteristic
    red = []
    for row, c in zip(mat, pivots):
        if p:
            inv = pow(row[c], -1, p)
            red.append(tuple(x * inv % p for x in row))
        else:
            red.append(tuple(Fraction(x, row[c]) for x in row))
    if mat:
        red += [(field.zero,) * len(mat[0])] * (len(mat) - len(pivots))
    return red, pivots


def rank(rows, field) -> int:
    """The number of pivots of the forward elimination pass."""
    return len(_echelon(rows, field, False)[1])


def nullspace(rows, field):
    """Basis of {x : A x = 0}, one vector per free column, deterministic order."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][fc])
        basis.append(tuple(vec))
    return basis


def mat_mul(a, b, field):
    """a . b.  Row i of the product is sum_t a[i][t] * (row t of b), skipping
    the zero entries of a, so a signed permutation times any matrix costs
    n^2 field operations, not n^3."""
    zero, add, mul = field.zero, field.add, field.mul
    width = len(b[0]) if b else 0
    out = []
    for row_a in a:
        acc = [zero] * width
        for x, row_b in zip(row_a, b):
            if x != zero:
                acc = [add(s, mul(x, y)) for s, y in zip(acc, row_b)]
        out.append(tuple(acc))
    return tuple(out)


def identity(n, field):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def is_invertible(mat, field) -> bool:
    n = len(mat)
    return all(len(r) == n for r in mat) and rank(mat, field) == n
