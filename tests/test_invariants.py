from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, lcm

import pytest

from esymfano import invariants
from esymfano.fields import QQ, BudgetExceeded, FieldError, PrimeField
from esymfano.invariants import (
    CERTIFICATE_PRIME,
    GroupAction,
    _check_span_budget,
    _invariant_dims,
    _molien_dims,
    _span_dim,
    close_group,
    generation_check,
    invariant_dim,
    is_invariant,
    orbit_chern,
    orbit_of_form,
    reynolds,
    subalgebra_graded_dims,
    z2_counterexample_report,
)
from esymfano.linalg import identity, mat_mul
from esymfano.poly import LinearForm, Polynomial, degree_monomials, elem_sym

from conftest import closure_oracle, eval_oracle, qm


def sign_group():
    return close_group([qm([[-1, 0], [0, -1]])], QQ)


def swap_group():
    return close_group([qm([[0, 1], [1, 0]])], QQ)


def s3_group():
    return close_group(
        [qm([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), qm([[0, 0, 1], [1, 0, 0], [0, 1, 0]])],
        QQ,
    )


# generators as integer matrices, so each group can be built over any field;
# all are signed permutations except "order6", whose rotation [[0,-1],[1,-1]]
# has a row with two nonzero entries
GENERATORS = {
    "sign": [[[-1, 0], [0, -1]]],
    "swap": [[[0, 1], [1, 0]]],
    "rotation4": [[[0, -1], [1, 0]]],
    "s3": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
    "b2": [[[0, 1], [1, 0]], [[-1, 0], [0, 1]]],
    "order6": [[[0, -1], [1, -1]], [[-1, 0], [0, -1]]],
    "trivial": [[[1, 0], [0, 1]]],
}
F7 = PrimeField(7)
F101 = PrimeField(101)
S4_GENERATORS = [
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
]
B3_GENERATORS = [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
]
INTEGER_GENERATORS = {**GENERATORS, "s4": S4_GENERATORS, "b3": B3_GENERATORS}
# generators with denominators, as strings for qm: the dihedral group of
# order 6 with entries in (1/2)Z, and S_3 conjugated by diag(2, 3, 1), whose
# elements carry denominators 1, 2, 3 and 6
FRACTIONAL_GENERATORS = {
    "dihedral6": [[["-1/2", "-3/2"], ["1/2", "-1/2"]], [["1/2", "3/2"], ["1/2", "-1/2"]]],
    "s3-conjugated": [
        [[0, "2/3", 0], ["3/2", 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 3], [0, "1/3", 0]],
    ],
}


def group_over_generators(gens, field):
    return close_group([[[field.from_int(x) for x in row] for row in m] for m in gens], field)


def group_over(name, field):
    return group_over_generators(GENERATORS[name], field)


def over_field(gens, field):
    """Generators of ints and rational strings as matrices over field; over
    F_p a rational a/b becomes a times the inverse of b."""
    p = field.characteristic
    mats = [qm(g) for g in gens]
    if not p:
        return mats
    return [[[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in g] for g in mats]


def lf(*coeffs):
    return LinearForm(QQ, tuple(Fraction(c) for c in coeffs))


X = Polynomial.variable(QQ, 2, 0)
Y = Polynomial.variable(QQ, 2, 1)


class TestCloseGroup:
    def test_sign_group(self):
        g = sign_group()
        assert g.order == 2

    def test_swap(self):
        assert swap_group().order == 2

    def test_rotation_order_4(self):
        g = close_group([qm([[0, -1], [1, 0]])], QQ)
        assert g.order == 4

    def test_trace_refuses_infinite_groups_over_q(self, monkeypatch):
        """A trace that is not an integer in [-n, n] is refused at once; the
        shear keeps trace 2 in every power and still meets the budget, and
        F_7, where every group is finite, takes no trace check."""
        monkeypatch.setattr(invariants, "CLOSURE_BUDGET", 20)
        for gen in ([[2]], [["1/2"]], [[1, 1], [1, 0]], [["1/2", 0], [0, 2]]):
            with pytest.raises(ValueError, match="no finite group"):
                close_group([qm(gen)], QQ)
        with pytest.raises(BudgetExceeded):
            close_group([qm([[1, 1], [0, 1]])], QQ)
        assert close_group([[[1, 1], [0, 1]]], F7).order == 7
        # trace 1, order 6
        assert close_group([qm([[1, -1], [1, 0]])], QQ).order == 6

    def test_non_invertible_rejected(self):
        with pytest.raises(ValueError):
            close_group([qm([[1, 0], [2, 0]])], QQ)

    def test_non_invertible_plain_ints_rejected(self):
        with pytest.raises(ValueError, match="^non-invertible generator$"):
            close_group([[[3, 5], [9, 15]]])

    def test_closure_validated_at_construction(self):
        with pytest.raises(ValueError):
            GroupAction(QQ, 2, (qm([[1, 0], [0, 1]]), qm([[2, 0], [0, 1]])))

    def test_closure_matches_brute_force(self):
        """Every subset of S_3 holding the identity, in two element orders, is
        accepted exactly when all |G|^2 products stay inside it."""
        ident, *others = s3_group().elements
        accepted = 0
        for r in range(len(others) + 1):
            for rest in combinations(others, r):
                subset = (ident,) + rest
                closed = all(mat_mul(g, h, QQ) in subset for g in subset for h in subset)
                for order in (subset, subset[::-1]):
                    if closed:
                        assert GroupAction(QQ, 3, order).order == len(subset)
                    else:
                        with pytest.raises(
                            ValueError, match="^element set not closed under multiplication$"
                        ):
                            GroupAction(QQ, 3, order)
                accepted += closed
        assert accepted == 6  # the trivial group, three of order 2, A_3 and S_3

    @pytest.mark.parametrize(
        "elements,message",
        [
            ([[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "duplicate group elements"),
            ([[[-1, 0], [0, -1]]], "identity matrix missing"),
            ([[[1, 0], [0, 1]], [[1, 0]]], "element of wrong dimension"),
        ],
        ids=["duplicate", "no-identity", "wrong-dimension"],
    )
    def test_validation_messages(self, elements, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GroupAction(QQ, 2, tuple(qm(g) for g in elements))

    @pytest.mark.parametrize(
        "singular", [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], ids=["zero", "projection"]
    )
    def test_monoid_that_is_no_group_rejected(self, singular):
        """{I, S} with S idempotent is closed under products, but S has no
        inverse in it."""
        with pytest.raises(ValueError, match="^non-invertible element$"):
            GroupAction(QQ, 2, (qm([[1, 0], [0, 1]]), qm(singular)))

    @pytest.mark.parametrize("field", [QQ, F7, F101], ids=["Q", "F7", "F101"])
    @pytest.mark.parametrize("name", sorted(INTEGER_GENERATORS))
    def test_closure_passes_validation(self, name, field):
        """close_group skips GroupAction's check; the check accepts its list.
        With every denominator 1 the elements come out as the identity, then
        the others sorted as matrices over the field."""
        gens = INTEGER_GENERATORS[name]
        g = group_over_generators(gens, field)
        assert GroupAction(field, g.dimension, g.elements) == g
        ident = identity(g.dimension, field)
        mats = [[[field.from_int(x) for x in row] for row in m] for m in gens]
        assert g.elements == (ident, *sorted(closure_oracle(mats, field) - {ident}))

    def test_generators_of_different_sizes_rejected(self, monkeypatch):
        def refuse(a, b, p):
            raise AssertionError("product formed before the sizes were checked")

        monkeypatch.setattr(invariants, "_scaled_product", refuse)
        swap2 = qm([[0, 1], [1, 0]])
        swap3 = qm([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        for gens in ([swap2, swap3], [swap3, swap2]):
            with pytest.raises(ValueError, match="^generators of different sizes$"):
                close_group(gens, QQ)


class TestIntegerClosure:
    """close_group multiplies integer forms (h, s), g = h / s; the closure
    through linalg.mat_mul on field elements is its oracle."""

    CASES = [
        pytest.param(gens, field, id=f"{name}-{field}")
        for name, gens in [
            ("s4", S4_GENERATORS),
            ("b3", B3_GENERATORS),
            *FRACTIONAL_GENERATORS.items(),
        ]
        for field in (QQ, F7, F101)
    ]

    @pytest.mark.parametrize("gens,field", CASES)
    def test_matches_the_oracle(self, gens, field):
        mats = over_field(gens, field)
        g = close_group(mats, field)
        assert set(g.elements) == closure_oracle(mats, field)
        assert g.order == len(g.elements)
        scalar = int if field.characteristic else Fraction
        assert all(type(x) is scalar for e in g.elements for row in e for x in row)

    def test_orders(self):
        orders = {
            name: close_group(over_field(gens, QQ), QQ).order
            for name, gens in FRACTIONAL_GENERATORS.items()
        }
        assert orders == {"dihedral6": 6, "s3-conjugated": 6}
        g = close_group(over_field(FRACTIONAL_GENERATORS["s3-conjugated"], QQ), QQ)
        scales = [lcm(*(x.denominator for row in e for x in row)) for e in g.elements]
        assert sorted(scales) == [1, 2, 3, 6, 6, 6]

    @pytest.mark.parametrize("name", sorted(FRACTIONAL_GENERATORS))
    def test_groups_with_denominators_pass_validation(self, name):
        g = close_group(over_field(FRACTIONAL_GENERATORS[name], QQ), QQ)
        assert g.elements[0] == identity(g.dimension, QQ)
        assert GroupAction(QQ, g.dimension, g.elements) == g
        assert GroupAction(QQ, g.dimension, g.elements[::-1]).order == g.order

    def test_scaled_trace_refused(self):
        """diag(1/2, 2) has trace 5/2: h = diag(1, 4), s = 2, and 5 % 2 != 0."""
        with pytest.raises(
            ValueError,
            match=r"^the generators generate no finite group: an element has a trace "
            r"that is not an integer in \[-2, 2\]$",
        ):
            close_group([qm([["1/2", 0], [0, 2]])], QQ)

    def test_scaled_swap_closes(self):
        """[[0, 2], [1/2, 0]] has trace 0 and squares to the identity."""
        g = close_group([qm([[0, 2], ["1/2", 0]])], QQ)
        assert g.order == 2
        assert g.elements == (identity(2, QQ), qm([[0, 2], ["1/2", 0]]))

    def test_shear_stops_at_the_budget(self, monkeypatch):
        """[[1, 1], [0, 1]] keeps trace 2 in every power; the budget stops it
        at the same product and with the same message as before."""
        calls = []
        product = invariants._scaled_product

        def counted(a, b, p):
            calls.append(1)
            return product(a, b, p)

        monkeypatch.setattr(invariants, "_scaled_product", counted)
        with pytest.raises(
            BudgetExceeded, match=f"^group closure exceeds {invariants.CLOSURE_BUDGET} elements$"
        ):
            close_group([qm([[1, 1], [0, 1]])], QQ)
        # powers 1 .. CLOSURE_BUDGET; the last is refused
        assert len(calls) == invariants.CLOSURE_BUDGET

    def test_entries_over_fp_are_residues(self):
        """diag(7, 1) is singular over F_7, although its integer rank is 2;
        -1 and 6 are one residue."""
        with pytest.raises(ValueError, match="^non-invertible generator$"):
            close_group([[[7, 0], [0, 1]]], F7)
        with pytest.raises(ValueError, match="^non-invertible element$"):
            GroupAction(F7, 2, (identity(2, F7), ((7, 0), (0, 1))))
        assert close_group([[[0, -1], [1, 0]]], F7) == close_group([[[0, 6], [1, 0]]], F7)
        with pytest.raises(ValueError, match="^duplicate group elements$"):
            GroupAction(F7, 2, (identity(2, F7), ((-1, 0), (0, -1)), ((6, 0), (0, 6))))
        assert GroupAction(F7, 2, (identity(2, F7), ((-1, 0), (0, -1)))).order == 2

    def test_hand_written_list_with_denominators(self):
        swap = qm([[0, 2], ["1/2", 0]])
        neg = qm([[-1, 0], [0, -1]])
        with pytest.raises(ValueError, match="^element set not closed under multiplication$"):
            GroupAction(QQ, 2, (identity(2, QQ), swap, neg))
        closed = (identity(2, QQ), swap, neg, qm([[0, -2], ["-1/2", 0]]))
        assert GroupAction(QQ, 2, closed).order == 4
        with pytest.raises(ValueError, match="^element set not closed under multiplication$"):
            GroupAction(QQ, 2, (identity(2, QQ), qm([["1/2", 0], [0, 2]])))


class TestOrbits:
    def test_sign_orbit(self):
        orb = orbit_of_form(lf(1, 0), sign_group())
        assert {o.coeffs for o in orb} == {(1, 0), (-1, 0)}

    def test_swap_orbit(self):
        orb = orbit_of_form(lf(1, 0), swap_group())
        assert {o.coeffs for o in orb} == {(1, 0), (0, 1)}

    def test_fixed_form(self):
        orb = orbit_of_form(lf(1, 1), swap_group())
        assert len(orb) == 1

    def test_orbit_size_divides_order(self, rng):
        g = s3_group()
        for _ in range(20):
            f = lf(*(rng.randint(-3, 3) for _ in range(3)))
            assert g.order % len(orbit_of_form(f, g)) == 0


class TestOrbitChern:
    def test_sign_pair(self):
        orb = [lf(1, 0), lf(-1, 0)]
        assert orbit_chern(orb, 2) == -(X * X)

    def test_e1_of_coordinates(self):
        orb = [LinearForm(QQ, tuple(Fraction(1 if i == j else 0) for i in range(3))) for j in range(3)]
        out = orbit_chern(orb, 1)
        expect = Polynomial(QQ, 3, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)})
        assert out == expect

    def test_plus_minus_pair(self):
        assert orbit_chern([lf(1, 1), lf(1, -1)], 2) == X * X - Y * Y

    def test_always_invariant_random(self, rng):
        groups = [
            sign_group(),
            swap_group(),
            s3_group(),
            close_group([qm([[0, -1], [1, 0]])], QQ),
            group_over("order6", QQ),  # not closed under transpose
        ]
        for _ in range(100):
            g = groups[rng.randrange(len(groups))]
            f = lf(*(rng.randint(-3, 3) for _ in range(g.dimension)))
            orb = orbit_of_form(f, g)
            r = rng.randint(1, len(orb))
            assert is_invariant(orbit_chern(orb, r), g)


class TestReynolds:
    def test_fixes_invariant(self):
        g = sign_group()
        assert reynolds(X * X, g) == X * X

    def test_kills_odd(self):
        assert reynolds(X, sign_group()).is_zero()

    def test_symmetrizes(self):
        out = reynolds(X * X, swap_group())
        assert out == (X * X + Y * Y).scale(Fraction(1, 2))

    def test_idempotent_random(self, rng):
        g = s3_group()
        for _ in range(20):
            terms = {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-4, 4))
                for _ in range(4)
            }
            f = Polynomial(QQ, 3, terms)
            r1 = reynolds(f, g)
            assert reynolds(r1, g) == r1
            assert is_invariant(r1, g)

    def test_characteristic_guard(self):
        f2 = PrimeField(2)
        swap = ((f2.zero, f2.one), (f2.one, f2.zero))
        g = close_group([swap], f2)
        with pytest.raises(FieldError):
            reynolds(Polynomial.variable(f2, 2, 0), g)


class TestIsInvariant:
    def test_xy_under_sign(self):
        assert is_invariant(X * Y, sign_group())

    def test_x_not_invariant(self):
        assert not is_invariant(X, sign_group())

    def test_elementary_symmetric_under_s3(self):
        assert is_invariant(elem_sym(2, 3, QQ), s3_group())

    def test_group_not_closed_under_transpose(self):
        """x^2 - xy + y^2 is fixed by the rotation x -> -y, y -> x - y of
        order 3, whose transpose lies outside the group."""
        g = close_group([qm([[0, -1], [1, -1]])], QQ)
        assert g.order == 3
        assert all(tuple(zip(*m)) not in g.elements for m in g.elements[1:])
        assert is_invariant(X * X - X * Y + Y * Y, g)


class TestInvariantDim:
    @pytest.mark.parametrize("degree,expected", [(2, 3), (3, 0)])
    def test_sign_group(self, degree, expected):
        assert invariant_dim(sign_group(), degree) == expected

    def test_swap_group(self):
        assert invariant_dim(swap_group(), 2) == 2

    @pytest.mark.parametrize(
        "name,field",
        [(name, QQ) for name in sorted(GENERATORS)]
        + [(name, F7) for name in ("order6", "s3", "sign", "swap", "rotation4", "trivial")],
    )
    def test_matches_reynolds_images(self, name, field):
        """The one-pass dimensions against the rank of the Reynolds images
        of the monomials, built one substitution at a time."""
        g = group_over(name, field)
        dims = _invariant_dims(g, 4)
        for k in range(5):
            monos = [
                Polynomial(field, g.dimension, {e: field.one})
                for e in degree_monomials(g.dimension, k)
            ]
            expected = _span_dim([reynolds(m, g) for m in monos], field)
            assert dims[k] == invariant_dim(g, k) == expected

    def test_characteristic_guard(self):
        with pytest.raises(FieldError):
            invariant_dim(group_over("b2", F7), 2)  # |B_2| = 8 > 7

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_molien(self, name):
        g = group_over(name, QQ)
        assert _invariant_dims(g, 6) == molien_series(g, 6)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            invariant_dim(sign_group(), -1)


class TestMolienDims:
    """_molien_dims, the fast path of generation_check, against the Reynolds
    ranks of _invariant_dims."""

    @pytest.mark.parametrize(
        "name,field",
        [pytest.param(name, field, id=f"{name}-{field}")
         for name in sorted(GENERATORS) for field in (QQ, F7, F101)
         if not (name == "b2" and field == F7)],  # |B_2| = 8 > 7
    )
    def test_matches_reynolds_ranks(self, name, field):
        """Every degree bound up to 6 that the guard admits; over Q it admits
        them all, over F_p exactly those with C(n + D - 1, D) < p."""
        g = group_over(name, field)
        n, p = g.dimension, field.characteristic
        reynolds_dims = _invariant_dims(g, 6)
        for D in range(7):
            dims = _molien_dims(g, D)
            if p and comb(n + D - 1, D) >= p:
                assert dims is None
            else:
                assert dims == reynolds_dims[: D + 1]

    def test_guard_boundary_s4_f29(self):
        """C(6, 3) = 20 < 29 admits degree 3; C(7, 4) = 35 does not admit 4,
        and generation_check then takes the Reynolds ranks."""
        f29 = PrimeField(29)
        g = group_over_generators(S4_GENERATORS, f29)
        assert _molien_dims(g, 3) == _invariant_dims(g, 3)
        assert _molien_dims(g, 4) is None
        out = generation_check(g, [LinearForm(f29, (1, 0, 0, 0))], 4)
        assert [row["invariant_dim"] for row in out["per_degree"]] == _invariant_dims(g, 4)
        assert out["generated"]

    def test_degree_0_inverts_no_multiple_of_p(self):
        """Seven variables over F_7: degree 0 needs no Faddeev-LeVerrier step,
        so nothing divides by 7; degree 1 counts 7 monomials and is refused."""
        g = close_group([identity(7, F7)], F7)
        assert _molien_dims(g, 0) == [1]
        assert _molien_dims(g, 1) is None
        seed = LinearForm(F7, (1,) + (0,) * 6)
        assert generation_check(g, [seed], 0)["per_degree"] == [
            {"degree": 0, "invariant_dim": 1, "subalgebra_dim": 1, "equal": True}
        ]

    def test_non_integer_matrices(self):
        """[[1/2, 3/2], [1/2, -1/2]] squares to I; its Molien terms carry
        powers of the denominator lcm 2."""
        g = close_group([qm([[Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 2), Fraction(-1, 2)]])], QQ)
        assert g.order == 2
        assert _molien_dims(g, 6) == _invariant_dims(g, 6) == molien_series(g, 6)


class SubalgebraSpy:
    """Records the field of every subalgebra_graded_dims call."""

    def __init__(self, monkeypatch):
        self.fields = []
        original = invariants.subalgebra_graded_dims

        def spy(gens, D):
            self.fields.append(gens[0].field)
            return original(gens, D)

        monkeypatch.setattr(invariants, "subalgebra_graded_dims", spy)


class TestCertifiedSubalgebraDims:
    P = PrimeField(CERTIFICATE_PRIME)

    def test_certificate_alone_when_generated(self, monkeypatch):
        spy = SubalgebraSpy(monkeypatch)
        out = generation_check(s3_group(), [lf(1, 0, 0)], 6)
        assert out["generated"]
        assert spy.fields == [self.P]

    def test_unlucky_prime_takes_the_exact_route(self, monkeypatch):
        """x and x + P y span the linear forms over Q but agree modulo P, so
        the modular ranks fall short and the ranks over Q decide."""
        trivial = group_over("trivial", QQ)
        seeds = [lf(1, 0), lf(1, CERTIFICATE_PRIME)]
        spy = SubalgebraSpy(monkeypatch)
        out = generation_check(trivial, seeds, 4)
        assert spy.fields == [self.P, QQ]
        exact = subalgebra_graded_dims(seeds, 4)
        assert exact == [1, 2, 3, 4, 5]
        assert [row["subalgebra_dim"] for row in out["per_degree"]] == exact
        assert out["generated"]

    def test_not_generated_through_the_exact_route(self, monkeypatch):
        """The sign group from the seed x: only x^2 is generated, while every
        even degree k has k + 1 invariants."""
        spy = SubalgebraSpy(monkeypatch)
        out = generation_check(sign_group(), [lf(1, 0)], 4)
        assert spy.fields == [self.P, QQ]
        assert not out["generated"]
        assert [row["invariant_dim"] for row in out["per_degree"]] == [1, 0, 3, 0, 5]
        assert [row["subalgebra_dim"] for row in out["per_degree"]] == [1, 0, 1, 0, 1]

    def test_fractional_generators_are_scaled(self, monkeypatch):
        """Seeds with denominators: the certificate still proves generation."""
        spy = SubalgebraSpy(monkeypatch)
        out = generation_check(swap_group(), [lf(Fraction(1, 3), Fraction(2, 5))], 5)
        assert out["generated"]
        assert spy.fields == [self.P]


    def test_proportional_seeds_with_denominators(self, monkeypatch):
        """x + 2y and x/2 + y span one line: reducing each generator without
        its denominator lcm would turn them into x + 2y and x + y, and
        certify a generation that does not hold."""
        spy = SubalgebraSpy(monkeypatch)
        out = generation_check(group_over("trivial", QQ), [lf(1, 2), lf(Fraction(1, 2), 1)], 2)
        assert spy.fields == [self.P, QQ]
        assert not out["generated"]
        assert [row["subalgebra_dim"] for row in out["per_degree"]] == [1, 1, 1]


class TestSpanBudget:
    @staticmethod
    def cells(n, degrees, D, reynolds):
        """The count by brute force: multisets of generator indices listed
        degree by degree."""
        total = 0
        for k in range(D + 1):
            multisets = sum(
                sum(degrees[i] for i in ms) == k
                for size in range(k + 1)
                for ms in combinations_with_replacement(range(len(degrees)), size)
            )
            monomials = comb(n + k - 1, k)
            total += monomials * (multisets + (monomials if reynolds else 1))
        return total

    @pytest.mark.parametrize("reynolds", [False, True])
    @pytest.mark.parametrize("n,degrees,D", [(2, [1, 2], 3), (3, [2, 2, 3], 5), (4, [], 2)])
    def test_bound_is_exact(self, monkeypatch, n, degrees, D, reynolds):
        cells = self.cells(n, degrees, D, reynolds)
        monkeypatch.setattr(invariants, "SPAN_BUDGET", cells)
        _check_span_budget(n, degrees, D, reynolds)
        monkeypatch.setattr(invariants, "SPAN_BUDGET", cells - 1)
        with pytest.raises(BudgetExceeded):
            _check_span_budget(n, degrees, D, reynolds)

    def test_admits_s4_to_degree_18(self):
        """S_4 from x_1 has generators of degrees 1..4: 402k cells at degree
        18 are admitted, 548k at degree 19 are not."""
        _check_span_budget(4, [1, 2, 3, 4], 18, False)
        with pytest.raises(BudgetExceeded):
            _check_span_budget(4, [1, 2, 3, 4], 19, False)

    def test_admits_b4_at_degree_8(self):
        g = group_over_generators(
            S4_GENERATORS + [[[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]], QQ
        )
        gens = invariants.orbit_chern_generators(g, [lf(1, 0, 0, 0), lf(1, 1, 0, 0)])
        _check_span_budget(4, [p.degree() for p in gens], 8, False)

    def test_refused_before_any_span(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("span formed before the budget was checked")

        for name in ("subalgebra_graded_dims", "_invariant_dims", "_molien_dims"):
            monkeypatch.setattr(invariants, name, refuse)
        g = group_over_generators(S4_GENERATORS, QQ)
        with pytest.raises(BudgetExceeded):
            generation_check(g, [lf(1, 0, 0, 0)], 30)


def determinant(m):
    """Leibniz expansion; 1 for the empty matrix."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(m)), 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def molien_series(group, K):
    """[t^k] (1/|G|) sum_g 1/det(I - t g) for k = 0..K, over Q (Molien 1897)."""
    n = group.dimension
    total = [Fraction(0)] * (K + 1)
    for g in group.elements:
        # det(I - t g) = sum_k (-t)^k (sum of the principal k x k minors of g)
        p = [
            (-1) ** k
            * sum(
                determinant([[g[i][j] for j in S] for i in S])
                for S in combinations(range(n), k)
            )
            for k in range(n + 1)
        ]
        series = [Fraction(1)]  # 1 / p as a power series, p[0] = 1
        for k in range(1, K + 1):
            series.append(-sum(p[i] * series[k - i] for i in range(1, min(k, n) + 1)))
        total = [a + b for a, b in zip(total, series)]
    return [c / group.order for c in total]


def pullback(p, forms):
    """p(f_1, ..., f_m), substituted term by term through the tuple-loop
    product: the oracle for esym."""
    return eval_oracle(p, forms)


class TestPullback:
    """E_r at the orbit forms (orbit_chern, run by esym) against the
    elementary symmetric polynomial substituted through eval_oracle."""

    def test_matches_orbit_chern(self):
        orb = [lf(1, 0), lf(-1, 0)]
        assert pullback(elem_sym(2, 2, QQ), orb) == orbit_chern(orb, 2)

    def test_matches_orbit_chern_every_order(self):
        orb = orbit_of_form(lf(1, 2, 3), s3_group())
        assert len(orb) == 6
        for r in range(1, 7):
            assert pullback(elem_sym(r, 6, QQ), orb) == orbit_chern(orb, r)

    def test_e1(self):
        forms = [lf(1, 0, 0), lf(0, 1, 0), lf(0, 0, 1)]
        assert pullback(elem_sym(1, 3, QQ), forms) == orbit_chern(forms, 1)

    def test_product_expansion(self):
        forms = [lf(1, 1), lf(1, -1)]
        assert pullback(elem_sym(2, 2, QQ), forms) == orbit_chern(forms, 2) == X * X - Y * Y


class TestSubalgebraDims:
    def quadrics(self):
        xs = X * X
        ys = Y * Y
        xy2 = (X + Y) * (X + Y)
        return [xs, ys, xy2]

    def test_degree_2(self):
        assert subalgebra_graded_dims(self.quadrics(), 2) == [1, 0, 3]

    def test_degree_4(self):
        assert subalgebra_graded_dims(self.quadrics(), 4)[4] == 5

    def test_elementary_symmetric_generators(self):
        gens = [elem_sym(r, 3, QQ) for r in (1, 2, 3)]
        assert subalgebra_graded_dims(gens, 3)[3] == 3  # partitions of 3

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            subalgebra_graded_dims([X + X * X], 2)

    def test_contained_in_invariants(self, rng):
        g = swap_group()
        orb = orbit_of_form(lf(1, 0), g)
        gens = [orbit_chern(orb, r) for r in (1, 2)]
        dims = subalgebra_graded_dims(gens, 5)
        for k in range(1, 6):
            assert dims[k] <= invariant_dim(g, k)


class TestGenerationCheck:
    def test_sign_group_quadric_seeds(self):
        out = generation_check(sign_group(), [lf(1, 0), lf(0, 1), lf(1, 1)], 4)
        assert out["generated"]

    def test_swap_group_single_seed(self):
        out = generation_check(swap_group(), [lf(1, 0)], 4)
        assert out["generated"]

    def test_trivial_group_short(self):
        trivial = close_group([qm([[1, 0], [0, 1]])], QQ)
        out = generation_check(trivial, [lf(1, 0)], 1)
        assert not out["generated"]
        assert out["per_degree"][1]["invariant_dim"] == 2
        assert out["per_degree"][1]["subalgebra_dim"] == 1


class TestZ2Counterexample:
    def test_report(self):
        rep = z2_counterexample_report()
        assert rep["xy_invariant"]
        assert rep["single_image_membership_hits"] == 0
        assert rep["quadratic_pullbacks_in_single_span"]
        assert rep["polarization_identity"]
        assert rep["algebra_membership"]
