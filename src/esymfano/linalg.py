"""Exact linear algebra over an exact field: RREF, rank, nullspace, products."""

from __future__ import annotations


def rref(rows, field):
    """Reduced row echelon form.

    Returns (rref rows as list of tuples, pivot column list).  Exact; no
    pivoting heuristics are needed because the arithmetic is exact.
    """
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
                    field.sub(x, field.mul(factor, y)) for x, y in zip(mat[i], mat[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat], pivots


def rank(rows, field) -> int:
    return len(rref(rows, field)[1])


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
