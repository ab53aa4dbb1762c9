"""Finite matrix-group actions on polynomials and symmetric-pullback invariants.

Groups are concrete lists of invertible matrices over an exact field.  The
workhorses: orbits of linear forms, elementary symmetric polynomials
evaluated on an orbit (always invariant), the averaging projector onto
invariants, and exact graded dimension counts used to test whether a
generator set spans the whole invariant ring degree by degree.

A finite set of matrices that holds the identity and is closed under right
multiplication by invertible members that generate it is a group.  _close
builds such sets; close_group's result is proved a group once, by _close.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb, gcd, lcm
from operator import add, getitem, mul

from .fields import QQ, BudgetExceeded, FieldError, PrimeField
from .linalg import identity, is_invertible, mat_mul, rank
from .poly import LinearForm, Polynomial, coefficient_rows, esym, poly_eval


CLOSURE_BUDGET = 10**4  # most elements close_group lists before refusing

# most coefficient cells generation_check ranks before refusing (see
# _check_span_budget).  S_4 from the seed x_1 over Q, on a 2-core host: 95k
# cells at degree 14 (0.85 s), 395k at 18 (4.6 s), 1.29M at 22 (20 s)
SPAN_BUDGET = 5 * 10**5

# the prime modulo which the subalgebra ranks over Q are certified
CERTIFICATE_PRIME = 2**31 - 1


def _scaled(g, p):
    """g as (h, s) with g = h / s: over Q, s is the lcm of the entry
    denominators and h the integer rows s g; over F_p, s = 1 and h is g
    reduced mod p.  The pair is determined by g, so sets of pairs decide
    equality."""
    if p:
        return tuple(tuple(x % p for x in row) for row in g), 1
    s = lcm(*(x.denominator for row in g for x in row))
    return tuple(tuple(x.numerator * (s // x.denominator) for x in row) for row in g), s


def _scaled_product(a, b, p):
    """The scaled form of the product of the matrices whose scaled forms are
    a = (h, s) and b = (k, u).  Row i of h k is sum_t h[i][t] * (row t of k),
    skipping the zero entries of h (no row of h is zero: every matrix
    multiplied is invertible).  Over Q the pair (h k, s u) is divided by the
    gcd of s u and its entries; over F_p the rows are reduced mod p."""
    (h, s), (k, u) = a, b
    rows = []
    for row in h:
        acc = None
        for x, krow in zip(row, k):
            if x and acc is None:
                acc = [x * y for y in krow]
            elif x:
                acc = [z + x * y for z, y in zip(acc, krow)]
        rows.append(tuple([z % p for z in acc]) if p else tuple(acc))
    if p:
        return tuple(rows), 1
    d = s * u
    if d > 1:
        g = gcd(d, *chain.from_iterable(rows))
        if g > 1:
            d //= g
            rows = [tuple([z // g for z in row]) for row in rows]
    return tuple(rows), d


def _unscaled(forms, field):
    """The matrices of the scaled forms, with one Fraction per distinct
    (entry, denominator) over Q."""
    if field.characteristic:
        return tuple(h for h, _ in forms)
    pairs = {(c, s) for h, s in forms for row in h for c in row}
    value = {pair: Fraction(*pair) for pair in pairs}
    return tuple(tuple(tuple(value[c, s] for c in row) for row in h) for h, s in forms)


def _close(reached, gens, new, p, admit):
    """Extend reached, a set of scaled forms (_scaled) of matrices over the
    field of characteristic p, closed under right multiplication by gens,
    until it is closed under right multiplication by new as well.

    Every product is one _scaled_product on integer rows, with no field
    method and no Fraction.  Elements already reached meet only new; each
    newly reached element meets every generator, so every (element,
    generator) product is formed once.  admit(prod) vets each new element
    before it joins, and raises to refuse it.  Started from the identity,
    reached ends as the monoid the generators generate.  When that is
    finite and the generators are invertible, it is a group: g^a = g^b with
    a < b makes g^(b - a - 1) the inverse of g.
    """
    every = tuple(gens) + tuple(new)
    todo = [(x, new) for x in reached]
    while todo:
        x, ts = todo.pop()
        for t in ts:
            prod = _scaled_product(x, t, p)
            if prod not in reached:
                admit(prod)
                reached.add(prod)
                todo.append((prod, every))


@dataclass(frozen=True)
class GroupAction:
    """A finite group of invertible n x n matrices, listed explicitly."""

    field: object
    dimension: int
    elements: tuple  # tuples of tuples of scalars; close_group lists the identity first

    def __post_init__(self):
        """Each element not yet reached must be invertible and becomes a
        generator for _close, every product looked up in the set of the
        elements' scaled forms, so the elements end as the group the
        generators generate.  Each new generator at least doubles the
        reached subgroup: at most log2 |G| rank checks and |G| log2 |G|
        products.  Over F_p an entry counts as its residue mod p."""
        elems = tuple(tuple(tuple(row) for row in g) for g in self.elements)
        object.__setattr__(self, "elements", elems)
        n, field = self.dimension, self.field
        p = field.characteristic
        forms = [_scaled(g, p) for g in elems]
        members = set(forms)
        if len(members) != len(elems):
            raise ValueError("duplicate group elements")
        ident = _scaled(identity(n, field), p)
        if ident not in members:
            raise ValueError("identity matrix missing")
        if any(len(g) != n or any(len(row) != n for row in g) for g in elems):
            raise ValueError("element of wrong dimension")

        def admit(prod):
            if prod not in members:
                raise ValueError("element set not closed under multiplication")

        gens = []
        reached = {ident}
        for form in forms:
            if form in reached:
                continue
            if not is_invertible(form[0], field):
                raise ValueError("non-invertible element")
            _close(reached, gens, (form,), p, admit)
            gens.append(form)

    @property
    def order(self):
        return len(self.elements)

    def require_large_characteristic(self):
        p = self.field.characteristic
        if p != 0 and p <= self.order:
            raise FieldError(
                f"characteristic {p} must be 0 or exceed the group order {self.order}"
            )


def close_group(generators, field=QQ) -> GroupAction:
    """The group generated by the matrices, as an explicit element list:
    the identity, then the others sorted by their scaled forms (_scaled).
    With no denominator, as in every signed permutation group, that sorts
    the matrices themselves; a group with denominators comes out in the
    order of its scaled forms.  _close proves it a group, so GroupAction's
    check is skipped.  Over Q an element whose trace rules out finite order
    is refused at once; over F_p each entry counts as its residue mod p."""
    p = field.characteristic
    gens = [_scaled(g, p) for g in generators]
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0][0])
    if any(len(h) != n for h, _ in gens):
        raise ValueError("generators of different sizes")
    for h, _ in gens:
        if not is_invertible(h, field):
            raise ValueError("non-invertible generator")
    ident = _scaled(identity(n, field), p)
    seen = {ident}

    def admit(prod):
        # each trace in a finite group is a sum of n roots of unity, so over Q
        # an integer in [-n, n]; the trace of h / s is tr(h) / s
        if not p:
            h, s = prod
            trace = sum(map(getitem, h, range(n)))
            if trace % s or abs(trace) > n * s:
                raise ValueError(
                    "the generators generate no finite group: an element has a "
                    f"trace that is not an integer in [-{n}, {n}]"
                )
        if len(seen) >= CLOSURE_BUDGET:
            raise BudgetExceeded(f"group closure exceeds {CLOSURE_BUDGET} elements")

    _close(seen, (), gens, p, admit)
    seen.remove(ident)
    group = object.__new__(GroupAction)
    object.__setattr__(group, "field", field)
    object.__setattr__(group, "dimension", n)
    # the identity first for readability
    object.__setattr__(group, "elements", _unscaled((ident, *sorted(seen)), field))
    return group


# -- actions on forms and polynomials --------------------------------------


def _row_forms(g, field):
    """The rows of g as linear forms: f . g substitutes x_i -> row i."""
    return [LinearForm(field, row) for row in g]


def orbit_of_form(f: LinearForm, group: GroupAction):
    """The orbit {f . phi_s}, deduplicated, in first-seen order."""
    field = f.field
    images = (LinearForm(field, mat_mul((f.coeffs,), g, field)[0]) for g in group.elements)
    return list(dict.fromkeys(images))


def orbit_chern(orbit, r: int) -> Polynomial:
    """E_r evaluated at the orbit forms; invariant under the group."""
    orbit = list(orbit)
    if not 1 <= r <= len(orbit):
        raise ValueError(f"order {r} outside [1, {len(orbit)}]")
    return esym(r, orbit)


def is_invariant(f: Polynomial, group: GroupAction) -> bool:
    return all(poly_eval(f, _row_forms(g, f.field)) == f for g in group.elements)


def reynolds(f: Polynomial, group: GroupAction) -> Polynomial:
    """The averaging projector (1/|G|) sum_s f . phi_s."""
    group.require_large_characteristic()
    field = f.field
    total = Polynomial.zero(field, f.nvars)
    for g in group.elements:
        total = total + poly_eval(f, _row_forms(g, field))
    return total.scale(field.inv(field.from_int(group.order)))


# -- graded dimensions ------------------------------------------------------


def _span_dim(polys, field) -> int:
    """Dimension of the span of the polynomials: the rank of their
    coefficient rows."""
    return rank(coefficient_rows(polys), field)


def _products_by_degree(factors, degrees, D):
    """levels[k] for k = 0..D: the product of each multiset of the factors
    whose degrees sum to k, factors of degree below 1 left out.  Factor i
    multiplies only the products whose largest index is at most i, so each
    multiset is multiplied out once, and each level lists its multisets in
    an order that depends on the degrees alone."""
    one = Polynomial.one(factors[0].field, factors[0].nvars)
    levels = [[(one, 0)]]
    for k in range(1, D + 1):
        levels.append([
            (p * f, i)
            for i, (f, deg) in enumerate(zip(factors, degrees))
            if 0 < deg <= k
            for p, last in levels[k - deg]
            if last <= i
        ])
    return [[p for p, _ in level] for level in levels]


def _invariant_dims(group: GroupAction, D: int):
    """dim R^G_k for k = 0..D: the ranks of the Reynolds images of the
    degree-k monomials, all degrees in one pass over the group.

    The image of x^e under g is prod_i L_i^(e_i), L_i = row i of g as a
    linear form: the product of the multiset of rows that takes row i e_i
    times.  The images under each g are added level by level, multiset by
    multiset.  The sums are the Reynolds images times |G|, which leaves
    every rank unchanged.
    """
    group.require_large_characteristic()
    field, n = group.field, group.dimension
    images = (_products_by_degree(_row_forms(g, field), [1] * n, D) for g in group.elements)
    sums = reduce(lambda s, t: [list(map(add, a, b)) for a, b in zip(s, t)], images)
    # monomials in one orbit share a sum; repeated rows leave the rank as is
    return [1] + [_span_dim(list(dict.fromkeys(level)), field) for level in sums[1:]]


def _molien_exact(field, n: int, D: int) -> bool:
    """Whether _molien_dims gives the dimensions up to degree D: always over
    Q; over F_p when every count C(n + k - 1, k) of degree-k monomials,
    k <= D, is below p.  The counts never fall as k grows, and
    C(n + D - 1, D) >= n once D >= 1, so every k <= min(n, D) that the
    Faddeev-LeVerrier steps divide by is below p."""
    p = field.characteristic
    return p == 0 or D < 1 or comb(n + D - 1, D) < p


def _det_coeffs(h, K: int, p: int):
    """c_0..c_K of det(I - t h) = sum_k c_k t^k for a square matrix h of
    ints, by Faddeev-LeVerrier: B_1 = h, c_k = -tr(B_k) / k and
    B_(k+1) = h (B_k + c_k I).  Over Z (p = 0) every division is exact;
    modulo a prime p > K it multiplies by the inverse of k."""
    n = len(h)
    b = [list(row) for row in h]
    coeffs = [1]
    for k in range(1, K + 1):
        trace = sum(b[i][i] for i in range(n))
        if p:
            c = -trace * pow(k, -1, p) % p
        else:
            c, rem = divmod(-trace, k)
            if rem:
                raise ArithmeticError(f"Faddeev-LeVerrier trace {trace} not divisible by {k}")
        coeffs.append(c)
        if k < K:
            for i in range(n):
                b[i][i] += c
            cols = list(zip(*b))
            b = [[sum(map(mul, row, col)) for col in cols] for row in h]
            if p:
                b = [[x % p for x in row] for row in b]
    return tuple(coeffs)


def _molien_dims(group: GroupAction, D: int):
    """dim R^G_k for k = 0..D from Molien's series (1/|G|) sum_g
    1/det(I - t g), or None where _molien_exact says it may be wrong.

    Over Q each element is scaled to the integer matrix h = L g, L the lcm
    of all entry denominators, so c_k(g) = c_k(h) / L^k and the t^k
    coefficient of 1/det(I - t g) is that of 1/det(I - t h) over L^k.
    Over F_p, p > |G| makes the Reynolds operator on the degree-k forms
    idempotent, so its trace, the t^k coefficient, is its rank mod p; the
    rank is at most C(n + k - 1, k) < p, so the residue is the rank.  Only
    c_1..c_min(n, D) matter to degree D, and only they are formed.
    """
    field, n, order = group.field, group.dimension, group.order
    if not _molien_exact(field, n, D):
        return None
    p = field.characteristic
    if p:
        scale, mats = 1, group.elements
    else:
        scale = lcm(*(x.denominator for g in group.elements for row in g for x in row))
        mats = [
            [[x.numerator * (scale // x.denominator) for x in row] for row in g]
            for g in group.elements
        ]
    K = min(n, D)
    totals = [0] * (D + 1)
    for c, count in Counter(_det_coeffs(h, K, p) for h in mats).items():
        # 1/det(I - t h) as a power series: s_k = -sum_i c_i s_(k - i)
        series = [1]
        for k in range(1, D + 1):
            s = -sum(c[i] * series[k - i] for i in range(1, min(k, K) + 1))
            series.append(s % p if p else s)
        totals = [t + count * s for t, s in zip(totals, series)]
    if p:
        inv = pow(order, -1, p)
        return [t * inv % p for t in totals]
    dims = []
    for k, t in enumerate(totals):
        dim, rem = divmod(t, order * scale**k)
        if rem:
            raise ArithmeticError(f"Molien coefficient of degree {k} is not an integer")
        dims.append(dim)
    return dims


def invariant_dim(group: GroupAction, degree: int) -> int:
    """Dimension of the degree-D invariants: rank of the averaging projector
    on the monomial basis."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    return _invariant_dims(group, degree)[degree]


def subalgebra_graded_dims(gens, D: int):
    """For each degree k <= D, the dimension of the span of all products of
    the homogeneous generators with total degree exactly k."""
    gens = list(gens)
    if not gens:
        raise ValueError("no generators")
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("inhomogeneous generator")
    levels = _products_by_degree(gens, [g.degree() for g in gens], D)
    # the empty product spans the constants
    return [1] + [_span_dim(level, gens[0].field) for level in levels[1:]]


# -- generation check and the quadratic counterexample ----------------------


def orbit_chern_generators(group: GroupAction, seed_forms):
    """All elementary symmetric evaluations on the orbits of the seed forms,
    dropping zero polynomials and duplicates."""
    orbits = [orbit_of_form(f, group) for f in seed_forms]
    gens = dict.fromkeys(
        orbit_chern(orbit, r) for orbit in orbits for r in range(1, len(orbit) + 1)
    )
    return [g for g in gens if not g.is_zero()]


def _check_span_budget(n: int, degrees, D: int, reynolds: bool):
    """Refuse before any span is formed when the spans generation_check
    ranks hold more than SPAN_BUDGET coefficient cells.  Degree k ranks one
    row of C(n + k - 1, k) cells per generator multiset of degree k, and
    one more row per degree-k monomial when the Reynolds images give the
    invariant dimensions, or one for the Molien coefficient otherwise.
    A[k][i], the number of multisets of degree k from generators 0..i, is
    A[k][i - 1] + A[k - d_i][i]; counting stops once past the budget."""
    multisets = []  # A[k] per degree k
    cells = 0
    monomials = 1  # C(n + k - 1, k)
    for k in range(D + 1):
        below = int(k == 0)
        row = []
        for i, deg in enumerate(degrees):
            if deg <= k:
                below += multisets[k - deg][i]
            row.append(below)
        multisets.append(row)
        cells += monomials * (below + (monomials if reynolds else 1))
        if cells > SPAN_BUDGET:
            raise BudgetExceeded(
                f"generation check to degree {D} ranks more than {SPAN_BUDGET} "
                "coefficient cells; lower the degree bound"
            )
        monomials = monomials * (n + k) // (k + 1)


def _certified_subalgebra_dims(gens, inv_dims, D: int):
    """subalgebra_graded_dims over Q, from the generators scaled to integers
    and reduced modulo CERTIFICATE_PRIME where that proves the answer.

    The rank modulo a prime of an integer matrix is at most its rank over
    Q, and the subalgebra lies in the invariants, so modular ranks equal to
    inv_dims in every degree are the subalgebra dimensions.  Any shortfall,
    a subalgebra that is not all of the invariants or an unlucky prime,
    takes the exact route over Q in every degree."""
    fp = PrimeField(CERTIFICATE_PRIME)
    reduced = []
    for g in gens:
        scale = lcm(*(c.denominator for c in g.terms.values()))
        terms = {
            e: c.numerator * (scale // c.denominator) % CERTIFICATE_PRIME
            for e, c in g.terms.items()
        }
        reduced.append(Polynomial(fp, g.nvars, terms))
    dims = subalgebra_graded_dims(reduced, D)
    if dims == inv_dims:
        return dims
    return subalgebra_graded_dims(gens, D)


def generation_check(group: GroupAction, seed_forms, D: int):
    """Compare, degree by degree, the span of products of the orbit-derived
    generators against the full space of invariants."""
    group.require_large_characteristic()
    gens = orbit_chern_generators(group, seed_forms)
    field = group.field
    molien = _molien_exact(field, group.dimension, D)
    _check_span_budget(group.dimension, [g.degree() for g in gens], D, not molien)
    inv_dims = _molien_dims(group, D) if molien else _invariant_dims(group, D)
    if not gens:
        sub_dims = [1] + [0] * D
    elif field.characteristic:
        sub_dims = subalgebra_graded_dims(gens, D)
    else:
        sub_dims = _certified_subalgebra_dims(gens, inv_dims, D)
    per_degree = []
    for k in range(D + 1):
        per_degree.append(
            {
                "degree": k,
                "invariant_dim": inv_dims[k],
                "subalgebra_dim": sub_dims[k],
                "equal": inv_dims[k] == sub_dims[k],
            }
        )
    return {
        "group_order": group.order,
        "generator_count": len(gens),
        "max_degree": D,
        "per_degree": per_degree,
        "generated": all(row["equal"] for row in per_degree),
    }


def z2_counterexample_report(trials: int = 50, seed: int = 0):
    """The sign action on two variables: xy is invariant, lies in no single
    symmetric-pullback image, yet is generated by the quadratic pullbacks."""
    field = QQ
    neg = ((field.from_int(-1), field.zero), (field.zero, field.from_int(-1)))
    group = close_group([neg], field)
    x = Polynomial.variable(field, 2, 0)
    y = Polynomial.variable(field, 2, 1)
    xy = x * y
    xy_invariant = is_invariant(xy, group)

    rng = random.Random(seed)
    single_image_hits = 0
    pullbacks_all_in_span = True
    for _ in range(trials):
        k = rng.randint(1, 4)
        pairs = []
        while len(pairs) < k:
            a, b = field.from_int(rng.randint(-9, 9)), field.from_int(
                rng.randint(-9, 9)
            )
            if a != field.zero or b != field.zero:
                pairs.append((a, b))
        forms = []
        for a, b in pairs:
            forms.append(LinearForm(field, (a, b)))
            forms.append(LinearForm(field, (field.neg(a), field.neg(b))))
        # every quadratic symmetric pullback lies in the span of
        # q = sum_i (a_i x + b_i y)^2
        q = Polynomial.zero(field, 2)
        for a, b in pairs:
            g = LinearForm(field, (a, b))
            q = q + g * g
        e1 = esym(1, forms)
        e2 = esym(2, forms)
        e1sq = e1 * e1
        for g in (e1sq, e2):
            if not _in_span([q], g, field):
                pullbacks_all_in_span = False
        # xy = c*q forces c * (sum a_i^2) = 0 and c * (sum b_i^2) = 0, hence
        # c = 0 over the rationals unless every form vanishes
        if _in_span([q], xy, field):
            single_image_hits += 1

    x_plus_y = LinearForm(field, (field.one, field.one))
    polarization = (x_plus_y * x_plus_y - x * x - y * y).scale(
        field.inv(field.from_int(2))
    )
    chern_gens = orbit_chern_generators(
        group,
        [
            LinearForm(field, (field.one, field.zero)),
            LinearForm(field, (field.zero, field.one)),
            LinearForm(field, (field.one, field.one)),
        ],
    )
    dims = subalgebra_graded_dims(chern_gens, 2)
    return {
        "trials": trials,
        "xy_invariant": xy_invariant,
        "single_image_membership_hits": single_image_hits,
        "quadratic_pullbacks_in_single_span": pullbacks_all_in_span,
        "polarization_identity": polarization == xy,
        "algebra_membership": dims[2] == 3,  # xy lies in the quadratic span
    }


def _in_span(basis, target, field):
    return _span_dim(basis + [target], field) == _span_dim(basis, field)
