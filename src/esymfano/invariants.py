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
from dataclasses import dataclass

from .fields import QQ, FieldError
from .linalg import identity, is_invertible, mat_mul, rank
from .poly import (
    LinearForm,
    Polynomial,
    coefficient_rows,
    degree_monomials,
    esym,
    poly_eval,
)


class ClosureBudgetExceeded(RuntimeError):
    pass


CLOSURE_BUDGET = 10**4  # most elements close_group lists before refusing


def _close(reached, gens, new, field, admit):
    """Extend reached, a set of matrices closed under right multiplication by
    gens, until it is closed under right multiplication by new as well.

    Elements already reached meet only new; each newly reached element
    meets every generator, so every (element, generator) product is formed
    once.  admit(prod) vets each new element before it joins, and raises to
    refuse it.  Started from the identity, reached ends as the monoid the
    generators generate.  When that is finite and the generators are
    invertible, it is a group: g^a = g^b with a < b makes g^(b - a - 1) the
    inverse of g.
    """
    every = tuple(gens) + tuple(new)
    todo = [(x, new) for x in reached]
    while todo:
        x, ts = todo.pop()
        for t in ts:
            prod = mat_mul(x, t, field)
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
        generator for _close, every product looked up in the element set, so
        the elements end as the group the generators generate.  Each new
        generator at least doubles the reached subgroup: at most log2 |G|
        rank checks and |G| log2 |G| products."""
        elems = tuple(tuple(tuple(row) for row in g) for g in self.elements)
        object.__setattr__(self, "elements", elems)
        n, field = self.dimension, self.field
        members = set(elems)
        if len(members) != len(elems):
            raise ValueError("duplicate group elements")
        ident = identity(n, field)
        if ident not in members:
            raise ValueError("identity matrix missing")
        if any(len(g) != n or any(len(row) != n for row in g) for g in elems):
            raise ValueError("element of wrong dimension")

        def admit(prod):
            if prod not in members:
                raise ValueError("element set not closed under multiplication")

        gens = []
        reached = {ident}
        for g in elems:
            if g in reached:
                continue
            if not is_invertible(g, field):
                raise ValueError("non-invertible element")
            _close(reached, gens, (g,), field, admit)
            gens.append(g)

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
    """The group generated by the matrices, as an explicit element list.
    _close proves it a group, so GroupAction's check is skipped."""
    gens = [tuple(tuple(row) for row in g) for g in generators]
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators of different sizes")
    for g in gens:
        if not is_invertible(g, field):
            raise ValueError("non-invertible generator")
    ident = identity(n, field)
    seen = {ident}

    def admit(prod):
        if len(seen) >= CLOSURE_BUDGET:
            raise ClosureBudgetExceeded(
                f"group closure exceeds {CLOSURE_BUDGET} elements"
            )

    _close(seen, (), gens, field, admit)
    seen.remove(ident)
    group = object.__new__(GroupAction)
    object.__setattr__(group, "field", field)
    object.__setattr__(group, "dimension", n)
    # the identity first for readability
    object.__setattr__(group, "elements", (ident, *sorted(seen)))
    return group


# -- actions on forms and polynomials --------------------------------------


def _row_forms(g, field):
    """The rows of g as degree-one polynomials: f . g substitutes x_i -> row i."""
    return [LinearForm(field, row).to_polynomial() for row in g]


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


def _invariant_dims(group: GroupAction, D: int):
    """dim R^G_k for k = 0..D: the ranks of the Reynolds images of the
    degree-k monomials, all degrees in one pass over the group.

    The image of x^e under g is prod_i L_i^(e_i), L_i = row i of g as a
    linear form.  For each g the degree-k images are built from the degree
    k - 1 ones, img(x^e) = img(x^(e - u_j)) * L_j with j the first nonzero
    index of e, and added into one sum per monomial.  The sums are the
    Reynolds images times |G|, which leaves every rank unchanged.
    """
    group.require_large_characteristic()
    field, n = group.field, group.dimension
    # per degree k >= 1: (e, e - u_j, j) for each monomial x^e of degree k
    steps = []
    for k in range(1, D + 1):
        level = []
        for e in degree_monomials(n, k):
            j = next(i for i, a in enumerate(e) if a)
            level.append((e, e[:j] + (e[j] - 1,) + e[j + 1 :], j))
        steps.append(level)
    sums = [{e: Polynomial.zero(field, n) for e, _, _ in level} for level in steps]
    for g in group.elements:
        forms = _row_forms(g, field)
        images = {(0,) * n: Polynomial.one(field, n)}
        for level, total in zip(steps, sums):
            images = {e: images[lower] * forms[j] for e, lower, j in level}
            for e, img in images.items():
                total[e] = total[e] + img
    # monomials in one orbit share a sum; repeated rows leave the rank as is
    return [1] + [_span_dim(list(dict.fromkeys(total.values())), field) for total in sums]


def invariant_dim(group: GroupAction, degree: int) -> int:
    """Dimension of the degree-D invariants: rank of the averaging projector
    on the monomial basis."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    return _invariant_dims(group, degree)[degree]


def subalgebra_graded_dims(gens, D: int):
    """For each degree k <= D, the dimension of the span of all products of
    the homogeneous generators with total degree exactly k."""
    gens = [g for g in gens]
    if not gens:
        raise ValueError("no generators")
    field = gens[0].field
    nvars = gens[0].nvars
    degs = []
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("inhomogeneous generator")
        degs.append(g.degree())
    # levels[k]: (product, largest generator index) per multiset of degree k;
    # g_i multiplies only the products whose largest index is at most i, so
    # each multiset is multiplied out once
    levels = [[(Polynomial.one(field, nvars), 0)]]
    for k in range(1, D + 1):
        levels.append([
            (p * g, i)
            for i, (g, deg) in enumerate(zip(gens, degs))
            if 0 < deg <= k
            for p, last in levels[k - deg]
            if last <= i
        ])
    # the empty product spans the constants
    return [1] + [_span_dim([p for p, _ in level], field) for level in levels[1:]]


# -- generation check and the quadratic counterexample ----------------------


def orbit_chern_generators(group: GroupAction, seed_forms):
    """All elementary symmetric evaluations on the orbits of the seed forms,
    dropping zero polynomials and duplicates."""
    orbits = [orbit_of_form(f, group) for f in seed_forms]
    gens = dict.fromkeys(
        orbit_chern(orbit, r) for orbit in orbits for r in range(1, len(orbit) + 1)
    )
    return [g for g in gens if not g.is_zero()]


def generation_check(group: GroupAction, seed_forms, D: int):
    """Compare, degree by degree, the span of products of the orbit-derived
    generators against the full space of invariants."""
    group.require_large_characteristic()
    gens = orbit_chern_generators(group, seed_forms)
    if gens:
        sub_dims = subalgebra_graded_dims(gens, D)
    else:
        sub_dims = [1] + [0] * D
    inv_dims = _invariant_dims(group, D)
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
            g = LinearForm(field, (a, b)).to_polynomial()
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

    x_plus_y = LinearForm(field, (field.one, field.one)).to_polynomial()
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
