import itertools
from fractions import Fraction
from math import comb

import pytest

from esymfano.fields import QQ, FieldError, PrimeField, RationalField
from esymfano.poly import (
    LinearForm,
    Polynomial,
    degree_monomials,
    elem_sym,
    esym,
    esym_almost_top,
    format_polynomial,
    grlex_key,
    poly_eval,
)

from conftest import format_oracle, mul_oracle, qm, substitution_oracle


def var(field, n, i):
    return Polynomial.variable(field, n, i)


def at_forms(forms):
    return esym_almost_top(forms)


def rand_poly(field, nvars, rng, maxdeg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = field.from_int(rng.randint(-5, 5))
    return Polynomial(field, nvars, terms)


class TestScalars:
    def test_rational_lowest_terms(self):
        assert QQ.parse("4/6") == Fraction(2, 3)
        assert QQ.parse("-3") == Fraction(-3)

    def test_rational_zero_denominator(self):
        with pytest.raises(FieldError):
            QQ.parse("1/0")

    def test_prime_field_reduction_and_inverse(self):
        f = PrimeField(7)
        assert f.from_int(-1) == 6
        assert f.mul(f.inv(3), 3) == 1

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(FieldError):
            PrimeField(15)


class TestPolyMul:
    def test_difference_of_squares(self):
        x1, x2 = var(QQ, 2, 0), var(QQ, 2, 1)
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_f3_product(self):
        # (x+2)(x+1) expands to x^2 + 3x + 2, which reduces to x^2 + 2 mod 3
        f = PrimeField(3)
        x = var(f, 1, 0)
        a = x + Polynomial.constant(f, 1, f.from_int(2))
        b = x + Polynomial.one(f, 1)
        assert a * b == x * x + Polynomial.constant(f, 1, f.from_int(2))

    def test_zero_annihilates(self):
        x = var(QQ, 2, 0)
        assert (x * Polynomial.zero(QQ, 2)).is_zero()

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldError):
            var(QQ, 1, 0) * var(PrimeField(5), 1, 0)

    def test_ring_laws_random(self, rng):
        for field in (QQ, PrimeField(5)):
            for _ in range(25):
                a = rand_poly(field, 2, rng)
                b = rand_poly(field, 2, rng)
                c = rand_poly(field, 2, rng)
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + b == b + a


MUL_FIELDS = [QQ, PrimeField(7), PrimeField(2**31 - 1)]


def mixed_poly(field, nvars, rng, maxdeg=3, nterms=4):
    """Random terms; over Q with denominators 1 to 10 mixed."""
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        n = rng.randint(-9, 9)
        terms[e] = Fraction(n, rng.randint(1, 10)) if field == QQ else field.from_int(n)
    return Polynomial(field, nvars, terms)


class TestMulAgainstOracle:
    """a * b is esym(2, (a, b)) on packed ints; mul_oracle is the tuple loop
    with one field.add and one field.mul per pair of terms."""

    @pytest.mark.parametrize("field", MUL_FIELDS, ids=repr)
    def test_random_pairs(self, field, rng):
        for _ in range(60):
            nvars = rng.randint(0, 3)
            a = mixed_poly(field, nvars, rng, nterms=rng.randint(0, 5))
            b = mixed_poly(field, nvars, rng, nterms=rng.randint(0, 5))
            assert a * b == mul_oracle(a, b)

    @pytest.mark.parametrize("field", MUL_FIELDS, ids=repr)
    def test_zero_and_constants(self, field, rng):
        for nvars in (0, 1, 3):
            zero = Polynomial.zero(field, nvars)
            c = Polynomial.constant(field, nvars, field.from_int(-3))
            a = mixed_poly(field, nvars, rng)
            for x, y in [(zero, a), (a, zero), (zero, zero), (c, a), (a, c), (c, c)]:
                assert x * y == mul_oracle(x, y)
            assert (zero * a).is_zero()

    @pytest.mark.parametrize("field", MUL_FIELDS, ids=repr)
    @pytest.mark.parametrize("top", [255, 256])
    def test_byte_slot_boundary(self, field, top):
        # degree sum 255 fills a one-byte slot; 256 needs two bytes per slot
        half = Fraction(1, 2) if field == QQ else field.inv(2)
        a = Polynomial(field, 2, {(top - 100, 0): half, (3, 7): field.from_int(5)})
        b = Polynomial(field, 2, {(100, 0): field.from_int(-4), (0, 1): field.one})
        assert a * b == mul_oracle(a, b)
        assert (a * b).coefficient((top, 0)) == field.mul(half, field.from_int(-4))

    def test_calls_no_field_method(self, monkeypatch, rng):
        pairs = [
            (mixed_poly(field, nvars, rng), mixed_poly(field, nvars, rng))
            for field in MUL_FIELDS
            for nvars in (0, 2)
        ]
        expected = [mul_oracle(a, b) for a, b in pairs]

        def refuse(*args):
            raise AssertionError("field method called")

        for cls in (RationalField, PrimeField):
            for name in ("add", "mul", "neg", "inv"):
                monkeypatch.setattr(cls, name, refuse)
        assert [a * b for a, b in pairs] == expected


class TestElemSym:
    def test_small_cases(self):
        x1, x2 = var(QQ, 2, 0), var(QQ, 2, 1)
        assert elem_sym(1, 2, QQ) == x1 + x2
        y = [var(QQ, 3, i) for i in range(3)]
        assert elem_sym(2, 3, QQ) == y[0] * y[1] + y[0] * y[2] + y[1] * y[2]
        assert elem_sym(0, 5, QQ) == Polynomial.one(QQ, 5)
        assert elem_sym(0, 0, QQ) == Polynomial.one(QQ, 0)

    def test_term_counts(self):
        for m in range(1, 7):
            for r in range(m + 1):
                assert len(elem_sym(r, m, QQ).terms) == comb(m, r)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elem_sym(4, 3, QQ)
        with pytest.raises(ValueError):
            elem_sym(-1, 3, QQ)

    def test_newton_consistency(self):
        # sum_r (-1)^r E_r t^r == prod_j (1 - x_j t), coefficientwise in t
        for m in range(1, 7):
            n = m + 1  # variables x_1..x_m plus t at index m
            t = var(QQ, n, m)
            prod = Polynomial.one(QQ, n)
            for j in range(m):
                prod = prod * (Polynomial.one(QQ, n) - var(QQ, n, j) * t)
            total = Polynomial.zero(QQ, n)
            t_r = Polynomial.one(QQ, n)  # t**r
            for r in range(m + 1):
                er = elem_sym(r, m, QQ)
                lifted = Polynomial(
                    QQ, n, {e + (0,): c for e, c in er.terms.items()}
                )
                sign = QQ.from_int((-1) ** r)
                total = total + (lifted * t_r).scale(sign)
                t_r = t_r * t
            assert total == prod


def at_columns(f, T):
    """f evaluated by poly_eval at the column forms of the matrix T."""
    return poly_eval(f, [LinearForm(f.field, col) for col in zip(*T)])


class TestSubstitution:
    def test_all_forms_equal(self):
        T = qm([[1, 1, 1]])
        out = at_columns(elem_sym(2, 3, QQ), T)
        assert out == Polynomial(QQ, 1, {(2,): Fraction(3)})

    def test_matching_plane_kills_e3(self):
        T = qm([[1, 0, -1, 0], [0, 1, 0, -1]])
        assert at_columns(elem_sym(3, 4, QQ), T).is_zero()

    def test_repeated_columns_expansion(self):
        # E_3(s1, s2, s1, s2) = 2 s1^2 s2 + 2 s1 s2^2, expanded by hand:
        # the four triples are {s1,s2,s1}, {s1,s2,s2}, {s1,s1,s2}, {s2,s1,s2}
        T = qm([[1, 0, 1, 0], [0, 1, 0, 1]])
        out = at_columns(elem_sym(3, 4, QQ), T)
        assert out == Polynomial(QQ, 2, {(2, 1): Fraction(2), (1, 2): Fraction(2)})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            at_columns(elem_sym(2, 3, QQ), qm([[1, 1]]))

    def test_homogeneity_preserved(self, rng):
        for _ in range(20):
            m, d = rng.randint(2, 5), rng.randint(1, 3)
            r = rng.randint(1, m)
            T = qm([[rng.randint(-3, 3) for _ in range(m)] for _ in range(d)])
            out = at_columns(elem_sym(r, m, QQ), T)
            assert out.is_homogeneous()
            assert out.is_zero() or out.degree() == r


class TestLinearForm:
    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_is_the_polynomial_of_its_row(self, field):
        """A form is the Polynomial with one term c_i x_i per nonzero c_i:
        equal to it both ways, hashed like it, its zero entries dropped."""
        row = (field.from_int(3), field.zero, field.inv(field.from_int(-2)), field.zero)
        form = LinearForm(field, row)
        poly = Polynomial(field, 4, {(1, 0, 0, 0): row[0], (0, 0, 1, 0): row[2]})
        assert form == poly and poly == form
        assert hash(form) == hash(poly)
        assert form.terms == poly.terms and form.nvars == 4
        assert form.coeffs == row
        zero = LinearForm(field, [field.zero] * 3)
        assert zero == Polynomial.zero(field, 3) and zero.is_zero()
        assert hash(zero) == hash(Polynomial.zero(field, 3))


class TestTopAtForms:
    def test_sign_pairs_vanish(self):
        forms = [
            LinearForm(QQ, tuple(Fraction(x) for x in c))
            for c in [(1, 0), (0, 1), (-1, 0), (0, -1)]
        ]
        assert at_forms(forms).is_zero()

    def test_two_equal_forms(self):
        s = LinearForm(QQ, (Fraction(1),))
        assert at_forms([s, s]) == Polynomial(QQ, 1, {(1,): Fraction(2)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            esym_almost_top([])

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_matches_naive_substitution(self, field, rng):
        # the esym kernel must agree with substituting into E_{m-1}
        for _ in range(200):
            m, d = rng.randint(1, 8), rng.randint(1, 4)
            T = [
                [field.from_int(rng.randint(-4, 4)) for _ in range(m)]
                for _ in range(d)
            ]
            forms = [
                LinearForm(field, tuple(T[i][j] for i in range(d)))
                for j in range(m)
            ]
            lhs = at_forms(forms)
            rhs = substitution_oracle(elem_sym(m - 1, m, field), T)
            assert lhs == rhs


class TestCoefficientExtraction:
    def test_read_off(self):
        p = Polynomial(QQ, 2, {(2, 1): Fraction(2), (1, 2): Fraction(2)})
        assert p.sorted_terms() == [
            ((1, 2), Fraction(2)),
            ((2, 1), Fraction(2)),
        ]

    def test_zero(self):
        assert Polynomial.zero(QQ, 3).sorted_terms() == []

    def test_single_term(self):
        p = Polynomial(QQ, 1, {(2,): Fraction(3)})
        assert p.sorted_terms() == [((2,), Fraction(3))]


class TestFormatting:
    """format_polynomial sorts and joins in C; format_oracle in conftest is
    the per-term loop it replaced, and both must give the same text."""

    @staticmethod
    def random_coeff(field, rng):
        if field == QQ:
            return Fraction(rng.choice([-7, -2, -1, 1, 1, 3]), rng.choice([1, 1, 2, 9]))
        return field.from_int(rng.randint(1, 2 * field.p))

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)], ids=["Q", "F2", "F101"])
    def test_matches_the_oracle(self, field, rng):
        for _ in range(300):
            nvars = rng.randint(0, 4)
            # exponents up to 3 or, half the time, squarefree monomials
            top = rng.choice([1, 3])
            terms = {
                tuple(rng.randint(0, top) for _ in range(nvars)): self.random_coeff(field, rng)
                for _ in range(rng.randint(0, 6))
            }
            p = Polynomial(field, nvars, terms)
            assert format_polynomial(p) == format_oracle(p)
            names = [f"u{v}_{rng.randint(1, 9)}" for v in range(nvars)]
            assert format_polynomial(p, names) == format_oracle(p, names)

    def test_known_texts(self):
        cases = [
            ({}, "0"),
            ({(0, 0): Fraction(-5, 2)}, "-5/2"),
            ({(0, 0): Fraction(1, 2), (1, 0): Fraction(2), (0, 3): Fraction(-1)},
             "1/2 + 2*x1 - x2^3"),
            ({(1, 0): Fraction(-1), (0, 1): Fraction(-3, 2)}, "-3/2*x2 - x1"),
            ({(2, 1): Fraction(1), (0, 0): Fraction(-1)}, "-1 + x1^2*x2"),
            ({(1, 1): Fraction(1), (2, 0): Fraction(-1, 3)}, "x1*x2 - 1/3*x1^2"),
        ]
        for terms, text in cases:
            p = Polynomial(QQ, 2, terms)
            assert format_polynomial(p) == text == format_oracle(p)
        f7 = PrimeField(7)
        p = Polynomial(f7, 2, {(1, 0): 6, (0, 2): 1, (0, 0): 3})
        assert format_polynomial(p, ["a", "b"]) == "3 + 6*a + b^2" == format_oracle(p, ["a", "b"])

    @pytest.mark.parametrize("nvars", range(0, 5))
    def test_sorted_terms_is_grlex(self, nvars, rng):
        for _ in range(50):
            terms = {
                tuple(rng.randint(0, 4) for _ in range(nvars)): Fraction(rng.randint(1, 9))
                for _ in range(rng.randint(0, 12))
            }
            p = Polynomial(QQ, nvars, terms)
            expected = [(e, p.terms[e]) for e in sorted(p.terms, key=grlex_key)]
            assert p.sorted_terms() == expected


class TestDegreeMonomials:
    def test_no_variables(self):
        # the empty monomial is the one monomial of degree 0 in no variables
        assert degree_monomials(0, 0) == [()]
        assert degree_monomials(0, 2) == []

    @pytest.mark.parametrize("n", range(1, 5))
    def test_grlex_filter_of_the_box(self, n):
        for k in range(6):
            box = itertools.product(range(k + 1), repeat=n)
            expected = sorted((e for e in box if sum(e) == k), key=grlex_key)
            assert degree_monomials(n, k) == expected


class TestEsym:
    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_matches_sum_over_subsets(self, field, rng):
        # E_r is the sum over r-subsets of the product of their members
        for _ in range(30):
            m, d = rng.randint(1, 7), rng.randint(1, 3)
            polys = [
                LinearForm(field, [field.from_int(rng.randint(-4, 4)) for _ in range(d)])
                for _ in range(m)
            ]
            for r in range(m + 1):
                brute = Polynomial.zero(field, d)
                for subset in itertools.combinations(polys, r):
                    prod = Polynomial.one(field, d)
                    for g in subset:
                        prod = mul_oracle(prod, g)
                    brute = brute + prod
                assert esym(r, polys) == brute

    def test_out_of_range(self):
        x = var(QQ, 1, 0)
        for r in (-1, 3):
            with pytest.raises(ValueError):
                esym(r, [x, x])
        with pytest.raises(ValueError):
            esym(0, [])


def sum_over_subsets(r, polys):
    """E_r by brute force: the sum over r-subsets of their products."""
    field, nvars = polys[0].field, polys[0].nvars
    total = Polynomial.zero(field, nvars)
    for subset in itertools.combinations(polys, r):
        prod = Polynomial.one(field, nvars)
        for g in subset:
            prod = mul_oracle(prod, g)
        total = total + prod
    return total


class TestEsymKernel:
    """Inputs outside the integer linear forms of TestEsym: the packed kernel
    scales Q by a common denominator, packs exponents in one radix and
    checks that all factors share one ring."""

    def test_mixed_denominators(self, rng):
        for _ in range(40):
            m, nvars = rng.randint(1, 5), rng.randint(1, 3)
            polys = []
            for _ in range(m):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 2) for _ in range(nvars))
                    terms[e] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7, 10]))
                polys.append(Polynomial(QQ, nvars, terms))
            for r in range(m + 1):
                assert esym(r, polys) == sum_over_subsets(r, polys)
        x = var(QQ, 1, 0)
        assert esym(2, [x.scale(Fraction(1, 2)), x.scale(Fraction(2, 3))]) == Polynomial(
            QQ, 1, {(2,): Fraction(1, 3)}
        )

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_non_homogeneous(self, field, rng):
        for _ in range(40):
            m, nvars = rng.randint(1, 4), rng.randint(1, 3)
            polys = [rand_poly(field, nvars, rng) for _ in range(m)]
            for r in range(m + 1):
                assert esym(r, polys) == sum_over_subsets(r, polys)

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_top_exponent_does_not_carry(self, field):
        # degrees 2 + 2 + 3 = 7, so x^7 is the largest exponent a slot must
        # hold; a slot that held only 0..6 would fold x^7 into y
        x, y = var(field, 2, 0), var(field, 2, 1)
        one = Polynomial.one(field, 2)
        polys = [x * x + one, x * x.scale(field.from_int(2)) + y, x * x * x - one]
        top = esym(3, polys)
        assert top.coefficient((7, 0)) == field.from_int(2)
        assert top.coefficient((0, 1)) == field.from_int(-1)
        for r in range(4):
            assert esym(r, polys) == sum_over_subsets(r, polys)

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("top", [255, 256])
    def test_byte_slot_boundary(self, field, top):
        # degree sum 255 fits one-byte slots with x^255 on the top value of
        # x's byte; at 256 the slots widen to two bytes, or x^256 would
        # carry into y's slot
        x, y = var(field, 2, 0), var(field, 2, 1)
        one = Polynomial.one(field, 2)
        polys = [esym(top - 2, [x] * (top - 2)) + y, x + one, x.scale(field.from_int(2)) - y]
        prod = esym(3, polys)
        assert prod.coefficient((top, 0)) == field.from_int(2)
        assert prod.coefficient((0, 2)) == field.from_int(-1)
        for r in range(4):
            assert esym(r, polys) == sum_over_subsets(r, polys)

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_linear_forms_packed_directly(self, field, rng):
        dens = [1, 2, 3, 4, 6, 7, 10]
        for _ in range(40):
            m, nvars = rng.randint(1, 6), rng.randint(1, 3)
            forms = []
            for _ in range(m):
                if rng.random() < 0.2:
                    coeffs = [field.zero] * nvars
                elif field == QQ:
                    coeffs = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(nvars)]
                else:
                    coeffs = [field.from_int(rng.randint(-4, 4)) for _ in range(nvars)]
                forms.append(LinearForm(field, coeffs))
            for r in range(m + 1):
                assert esym(r, forms) == sum_over_subsets(r, forms)

    def test_common_denominator_and_repeated_values(self, rng):
        # every coefficient is k/6 with k prime to 6, so D = 6 and the scaled
        # ints repeat; each distinct value of the result is one Fraction
        values = [Fraction(k, 6) for k in (-5, -1, 1, 1, 5, 7)]
        for _ in range(40):
            m, d = rng.randint(2, 7), rng.randint(1, 3)
            T = [[rng.choice(values) for _ in range(m)] for _ in range(d)]
            forms = [LinearForm(QQ, col) for col in zip(*T)]
            for r in range(m + 1):
                out = esym(r, forms)
                assert out == substitution_oracle(elem_sym(r, m, QQ), T)
                coeffs = list(out.terms.values())
                assert len(set(map(id, coeffs))) == len(set(coeffs))

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "F2", "F5"])
    def test_no_zero_coefficient(self, field, rng):
        # sign pairs and, over F_p, sums past p cancel terms along the way;
        # none of them may be left in the result with coefficient zero
        for _ in range(40):
            m, d = rng.randint(2, 5), rng.randint(1, 3)
            T = [[field.from_int(rng.randint(-2, 2)) for _ in range(m)] for _ in range(d)]
            forms = [LinearForm(field, col) for col in zip(*T)]
            forms += [form.scale(field.from_int(-1)) for form in forms[: rng.randint(0, 2)]]
            for r in range(len(forms) + 1):
                out = esym(r, forms)
                assert field.zero not in out.terms.values()
                assert out == sum_over_subsets(r, forms)

    def test_mixed_factor_kinds_mismatched_rejected(self):
        form_q = LinearForm(QQ, (Fraction(1), Fraction(2)))
        for other in (
            var(PrimeField(5), 2, 0),
            var(QQ, 3, 0),
            LinearForm(PrimeField(5), (1, 2)),
            LinearForm(QQ, (Fraction(1),)),
        ):
            for polys in ([form_q, other], [other, form_q], [var(QQ, 2, 1), form_q, other]):
                with pytest.raises(FieldError):
                    esym(1, polys)
                with pytest.raises(FieldError):
                    esym_almost_top(polys)

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_zero_factor(self, field, rng):
        for _ in range(20):
            m, nvars = rng.randint(1, 5), rng.randint(1, 3)
            polys = [rand_poly(field, nvars, rng, maxdeg=2) for _ in range(m)]
            j = rng.randrange(m)
            polys[j] = Polynomial.zero(field, nvars)
            assert esym(m, polys).is_zero()
            others = Polynomial.one(field, nvars)
            for k, g in enumerate(polys):
                if k != j:
                    others = mul_oracle(others, g)
            assert esym(m - 1, polys) == others
            for r in range(m + 1):
                assert esym(r, polys) == sum_over_subsets(r, polys)

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
    def test_no_variables(self, field, rng):
        for _ in range(20):
            values = [
                field.parse(f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}")
                if field == QQ
                else field.from_int(rng.randint(-4, 4))
                for _ in range(rng.randint(1, 5))
            ]
            polys = [Polynomial.constant(field, 0, v) for v in values]
            for r in range(len(values) + 1):
                expected = field.zero
                for subset in itertools.combinations(values, r):
                    prod = field.one
                    for v in subset:
                        prod = field.mul(prod, v)
                    expected = field.add(expected, prod)
                assert esym(r, polys) == Polynomial.constant(field, 0, expected)

    def test_mismatched_rings_rejected(self):
        x_q = var(QQ, 2, 0)
        for other in (var(PrimeField(5), 2, 0), var(QQ, 3, 0), var(PrimeField(7), 2, 1)):
            for polys in ([x_q, other], [other, x_q], [x_q, x_q, other]):
                with pytest.raises(FieldError):
                    esym(1, polys)
                with pytest.raises(FieldError):
                    esym_almost_top(polys)
