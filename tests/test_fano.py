import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from esymfano import fano, linalg, poly
from esymfano.fano import (
    BudgetExceeded,
    PartitionCertificate,
    PlaneMatrix,
    ZeroPair,
    brute_force_members,
    classify,
    cross_check,
    enumerate_isolated,
    enumerate_subspaces,
    expected_dimension,
    fano_chart_equations,
    gaussian_binomial,
    is_member_direct,
    matchings,
    proportionality_class_count,
    random_partition_certificate,
    reciprocal_relation_space,
    sample_member,
    stratum_dimension,
    verify_certificate,
)
from esymfano.fields import QQ, FieldError, PrimeField
from esymfano.linalg import rank
from esymfano.poly import LinearForm, Polynomial, elem_sym, poly_eval

from conftest import (
    DISTINCT_ROWS,
    REPEATED_ROWS,
    eval_oracle,
    qm,
    reciprocal_oracle,
    reciprocal_relation_holds,
)


def plane(rows, field=QQ):
    if field is QQ:
        return PlaneMatrix(QQ, qm(rows))
    return PlaneMatrix(field, tuple(tuple(field.from_int(x) for x in r) for r in rows))


MATCHING_PLANE = [[1, 0, -1, 0], [0, 1, 0, -1]]
REPEAT_PLANE = [[1, 0, 1, 0], [0, 1, 0, 1]]
THREE_CLASS_PLANE = [[1, 0, 1, -1, 0, -1], [0, 1, 1, 0, -1, -1]]


class TestPlaneMatrix:
    def test_rank_enforced(self):
        with pytest.raises(ValueError):
            plane([[1, 2, 3], [2, 4, 6]])

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            plane([[1, 0], [0, 1], [1, 1]])

    def test_rank_enforced_on_plain_ints(self):
        with pytest.raises(ValueError):
            PlaneMatrix(QQ, ((3, 5, 1), (9, 15, 3)))

    def test_rank_enforced_on_residues(self):
        # 7 is 0 in F_7, so the rows are dependent
        with pytest.raises(ValueError, match="rank deficient"):
            PlaneMatrix(PrimeField(7), ((7, 0, 0), (0, 1, 0)))


class TestDirectMembership:
    def test_matching_plane(self):
        assert is_member_direct(plane(MATCHING_PLANE))

    def test_repeat_plane(self):
        assert not is_member_direct(plane(REPEAT_PLANE))

    def test_two_zero_columns(self):
        assert is_member_direct(plane([[1, 0, 0, 0], [0, 1, 0, 0]]))

    def test_basis_invariance(self, rng):
        # left multiplication by an invertible matrix fixes the row span
        candidates = [MATCHING_PLANE, REPEAT_PLANE, THREE_CLASS_PLANE]
        hits = 0
        while hits < 100:
            T = plane(candidates[hits % 3])
            g = [[Fraction(rng.randint(-5, 5)) for _ in range(T.d)] for _ in range(T.d)]
            if rank(g, QQ) < T.d:
                continue
            hits += 1
            rows = tuple(
                tuple(
                    sum(g[i][k] * T.rows[k][j] for k in range(T.d))
                    for j in range(T.m)
                )
                for i in range(T.d)
            )
            assert is_member_direct(PlaneMatrix(QQ, rows)) == is_member_direct(T)


class TestClassify:
    def test_matching_plane_partition(self):
        v = classify(plane(MATCHING_PLANE))
        assert v.member
        assert isinstance(v.certificate, PartitionCertificate)
        assert v.certificate.classes == ((0, 2), (1, 3))
        assert v.spans_full_span_space

    def test_three_class_member(self):
        T = plane(THREE_CLASS_PLANE)
        v = classify(T)
        assert v.member and is_member_direct(T)
        assert v.certificate.classes == ((0, 3), (1, 4), (2, 5))
        assert v.certificate.num_classes == 3
        assert not v.spans_full_span_space

    def test_zero_pair(self):
        v = classify(plane([[1, 0, 0, 0], [0, 1, 0, 0]]))
        assert v.member
        assert isinstance(v.certificate, ZeroPair)
        assert (v.certificate.i, v.certificate.j) == (2, 3)

    def test_single_zero_column(self):
        # one zero column cannot be a member: the lone surviving product of
        # the other forms is nonzero
        T = plane([[1, 0, -1, 0], [0, 1, 0, 0]])
        v = classify(T)
        assert not v.member and not is_member_direct(T)

    def test_classify_never_expands(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classify expanded E_{m-1}")

        monkeypatch.setattr(fano, "membership_expansion", refuse)
        monkeypatch.setattr(fano, "esym_almost_top", refuse)
        assert not classify(plane(REPEAT_PLANE)).member
        assert not classify(plane([[1, 0, -1, 0], [0, 1, 0, 0]])).member
        verdicts = [classify(T) for T in enumerate_subspaces(2, 4, PrimeField(3))]
        assert len(verdicts) == gaussian_binomial(4, 2, 3)


def wide_plane(d, m):
    """A d x m plane [I_d | B] over Q: full rank, with a nonzero block B."""
    return plane([[int(i == j) if j < d else (i * j + 1) % 5 for j in range(m)] for i in range(d)])


class TestExpansionBudget:
    def test_bound_is_exact(self, monkeypatch):
        # a 2 x 4 plane costs 4 * C(4, 1) = 16 term steps
        T = plane(MATCHING_PLANE)
        monkeypatch.setattr(fano, "EXPANSION_BUDGET", 16)
        assert is_member_direct(T)
        monkeypatch.setattr(fano, "EXPANSION_BUDGET", 15)
        with pytest.raises(BudgetExceeded, match="16 term steps, over the budget of 15"):
            is_member_direct(T)

    @pytest.mark.parametrize("d,admitted", [(6, True), (7, False)])
    def test_m_24(self, monkeypatch, d, admitted):
        # (6, 24) costs 24 * C(28, 5) = 2,358,720 and is expanded; (7, 24)
        # costs 24 * C(29, 6) = 11,400,480 and is refused before any product
        expanded = []

        def stub(forms):
            expanded.append(len(forms))
            return Polynomial(QQ, d)

        monkeypatch.setattr(fano, "esym_almost_top", stub)
        T = wide_plane(d, 24)
        if admitted:
            assert is_member_direct(T)
            assert expanded == [24]
        else:
            with pytest.raises(BudgetExceeded, match="11400480 term steps"):
                is_member_direct(T)
            assert expanded == []


class TestVerifyCertificate:
    def test_own_certificate(self):
        T = plane(MATCHING_PLANE)
        assert verify_certificate(T, classify(T).certificate)

    def test_altered_scalar(self):
        T = plane(MATCHING_PLANE)
        cert = classify(T).certificate
        bad = PartitionCertificate(
            cert.classes,
            cert.representatives,
            (Fraction(2),) + cert.scalars[1:],
        )
        assert not verify_certificate(T, bad)

    def test_zero_pair_certificate(self):
        T = plane([[1, 0, 0, 0], [0, 1, 0, 0]])
        assert verify_certificate(T, ZeroPair(2, 3))
        assert not verify_certificate(T, ZeroPair(0, 3))

    def test_malformed(self):
        T = plane(MATCHING_PLANE)
        assert not verify_certificate(T, PartitionCertificate(((0, 1),), (), ()))
        assert not verify_certificate(T, "junk")


class Admitted(Exception):
    """Raised in place of building the first chart column: the size passed
    every budget check."""


def build_no_column(monkeypatch):
    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(fano, "Polynomial", admitted)


class TestChartEquations:
    def test_d1_m3(self):
        eqs = fano_chart_equations(1, 3)
        assert len(eqs) == 1
        mono, eq = eqs[0]
        assert mono == (2,)
        # E_2(s, a s, b s) = (a + b + ab) s^2
        a = Polynomial.variable(QQ, 2, 0)
        b = Polynomial.variable(QQ, 2, 1)
        assert eq == a + b + a * b

    def test_d1_m2(self):
        eqs = fano_chart_equations(1, 2)
        assert len(eqs) == 1
        a = Polynomial.variable(QQ, 1, 0)
        assert eqs[0][1] == Polynomial.one(QQ, 1) + a

    def test_d2_m4_count(self):
        eqs = fano_chart_equations(2, 4)
        assert len(eqs) == 4  # degree-3 monomials in s1, s2
        assert [mono for mono, _ in eqs] == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_consistency_with_direct(self, rng):
        # a chart-form matrix satisfies every equation iff the expansion vanishes
        eqs = fano_chart_equations(2, 4)
        samples = [
            [[1, 0, -1, 0], [0, 1, 0, -1]],
            [[1, 0, 1, 0], [0, 1, 0, 1]],
            [[1, 0, 2, -2], [0, 1, -1, 1]],
        ]
        for _ in range(20):
            samples.append(
                [[1, 0] + [rng.randint(-3, 3) for _ in range(2)],
                 [0, 1] + [rng.randint(-3, 3) for _ in range(2)]]
            )
        for rows in samples:
            T = plane(rows)
            point = tuple(
                Fraction(rows[i][j]) for i in range(2) for j in (2, 3)
            )
            all_zero = all(
                poly_eval(eq, [Polynomial.constant(QQ, 0, c) for c in point]).is_zero()
                for _, eq in eqs
            )
            assert all_zero == is_member_direct(T)

    @pytest.mark.parametrize("d,m", [(2, 4), (2, 5), (3, 5), (3, 6)])
    def test_reassembled_expansion(self, d, m):
        # sum_s s^mono * eq over the equations must be E_{m-1} substituted at
        # the standard chart's columns: s_i at column i < d, and
        # sum_i a_{i,k} s_i at column d + k
        na, ntot = d * (m - d), d * (m - d) + d

        def x(v):
            return Polynomial.variable(QQ, ntot, v)

        columns = [x(na + i) for i in range(d)]
        for k in range(m - d):
            col = Polynomial.zero(QQ, ntot)
            for i in range(d):
                col = col + x(i * (m - d) + k) * x(na + i)
            columns.append(col)
        expected = eval_oracle(elem_sym(m - 1, m, QQ), columns)
        terms = {}
        for s_mono, eq in fano_chart_equations(d, m):
            for a_exps, c in eq.terms.items():
                terms[a_exps + s_mono] = c
        assert not expected.is_zero()
        assert Polynomial(QQ, ntot, terms) == expected

    def test_budget(self, monkeypatch):
        # the budget's term count is exact: (3, 6) expands to 3**2 * 12 = 108
        sizes = []
        original = fano.esym_almost_top

        def spy(polys):
            out = original(polys)
            sizes.append(len(out.terms))
            return out

        monkeypatch.setattr(fano, "esym_almost_top", spy)
        monkeypatch.setattr(fano, "EXPANSION_BUDGET", 108)
        fano_chart_equations(3, 6)
        assert sizes == [108]
        monkeypatch.setattr(fano, "EXPANSION_BUDGET", 107)
        with pytest.raises(BudgetExceeded, match="108 terms exceeds the budget of 107"):
            fano_chart_equations(3, 6)
        assert sizes == [108]

    def test_budget_counts_equations(self, monkeypatch):
        # (4, 5) expands to 4**0 * 17 = 17 terms but has C(7, 3) = 35
        # equations, one per degree-4 monomial in 4 variables
        monkeypatch.setattr(fano, "EXPANSION_BUDGET", 35)
        assert len(fano_chart_equations(4, 5)) == 35
        monkeypatch.setattr(fano, "EXPANSION_BUDGET", 34)
        with pytest.raises(BudgetExceeded, match="35 chart equations exceed the budget of 34"):
            fano_chart_equations(4, 5)

    def test_d1_refused_on_exponent_cells(self, monkeypatch):
        # d = 1 passes the term and equation bounds at any m; 1732^2 =
        # 2,999,824 cells is the largest square within the budget
        build_no_column(monkeypatch)
        for m in (1733, 50000):
            with pytest.raises(BudgetExceeded, match=rf"\({m * m} exponent cells\) exceeds"):
                fano_chart_equations(1, m)

    @pytest.mark.parametrize(
        "d,m",
        # the sizes the tests expand, the benchmark's (tiny and full), and
        # the largest d = 1 size
        [(1, 2), (1, 3), (1, 200), (1, 1732), (2, 4), (2, 5), (3, 5), (3, 6),
         (4, 5), (4, 10), (5, 10), (6, 13)],
    )
    def test_sizes_in_use_stay_admitted(self, monkeypatch, d, m):
        build_no_column(monkeypatch)
        with pytest.raises(Admitted):
            fano_chart_equations(d, m)

    def test_expansion_releases_finished_slots(self):
        # E_k of a prefix is dropped once k falls below the band; kept, the
        # slots of (1, 200) peak at 10.8 MB, against about 1.1 MB dropped
        tracemalloc.start()
        try:
            fano_chart_equations(1, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6


class TestDimensions:
    @pytest.mark.parametrize(
        "d,m,expected", [(2, 4, 0), (3, 6, -12), (1, 3, 1)]
    )
    def test_expected_dimension(self, d, m, expected):
        assert expected_dimension(d, m) == expected

    def test_stratum_dimension(self):
        assert stratum_dimension([(0, 1), (2, 3)]) == 0
        assert stratum_dimension([(0, 1, 2)]) == 1
        assert stratum_dimension([(0, 1, 2), (3, 4)]) == 1
        with pytest.raises(ValueError):
            stratum_dimension([(0,), (1, 2)])


class TestMatchings:
    def test_small(self):
        assert matchings(2) == [((0, 1),)]
        assert matchings(4) == [
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        ]
        assert len(matchings(6)) == 15

    def test_double_factorial_counts(self):
        expected = 1
        for d in range(1, 7):
            expected *= 2 * d - 1
            assert len(matchings(2 * d)) == expected

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            matchings(5)


class TestIsolated:
    def test_d1(self):
        pts = enumerate_isolated(1)
        assert len(pts) == 1
        assert pts[0][1].rows == qm([[1, -1]])

    def test_d2(self):
        pts = enumerate_isolated(2)
        assert len(pts) == 3
        by_matching = {match: T for match, T in pts}
        assert by_matching[((0, 2), (1, 3))].rows == qm(MATCHING_PLANE)

    def test_all_members(self):
        for d in (1, 2, 3):
            for _, T in enumerate_isolated(d):
                assert is_member_direct(T)

    def test_budget(self, monkeypatch):
        # 5!! = 15 points for d = 3
        monkeypatch.setattr(fano, "ISOLATED_BUDGET", 15)
        assert len(enumerate_isolated(3)) == 15
        monkeypatch.setattr(fano, "ISOLATED_BUDGET", 14)
        with pytest.raises(BudgetExceeded, match="15 isolated points exceed the budget of 14"):
            enumerate_isolated(3)


class TestSampleMember:
    def test_single_class(self):
        T = sample_member([(0, 1, 2)], (Fraction(1), Fraction(1), Fraction(-1, 2)), 1)
        assert T.m == 3 and T.d == 1
        # the row is proportional to (1, 1, -1/2)
        r = T.rows[0]
        assert r[0] == r[1] and r[2] == -r[0] / 2
        assert is_member_direct(T)

    def test_matching_certificate(self):
        T = sample_member(
            [(0, 2), (1, 3)],
            (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)),
            2,
        )
        assert is_member_direct(T)

    def test_invalid_scalars_rejected(self):
        with pytest.raises(ValueError):
            sample_member([(0, 1)], (Fraction(1), Fraction(1)), 1)

    def test_random_draws(self, rng):
        for _ in range(100):
            k = rng.randint(1, 3)
            sizes = [rng.randint(2, 4) for _ in range(k)]
            classes, scalars = random_partition_certificate(sizes, rng)
            d = rng.randint(1, k)
            T = sample_member(classes, scalars, d, seed=rng.randint(0, 10**9))
            assert is_member_direct(T)

    @pytest.mark.parametrize("sizes", [[2, 1], [1], [0, 2]])
    def test_class_below_two_refused(self, sizes):
        # one nonzero reciprocal never sums to zero, so drawing would not end
        with pytest.raises(ValueError, match="at least 2"):
            random_partition_certificate(sizes, random.Random(0))


class TestBruteForce:
    def test_projective_line_f3(self):
        f3 = PrimeField(3)
        members = brute_force_members(1, 2, f3)
        assert [T.rows for T in members] == [((1, 2),)]

    def test_counts(self):
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(4, 2, 3) == 130
        f2 = PrimeField(2)
        assert sum(1 for _ in enumerate_subspaces(2, 4, f2)) == 35

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_subspaces(4, 9, PrimeField(5), budget=10**6))

    def test_enumeration_never_re_reduces(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumeration re-reduced an RREF matrix")

        f3 = PrimeField(3)
        with monkeypatch.context() as patch:
            patch.setattr(fano, "rank", refuse)
            patch.setattr(linalg, "rref", refuse)
            planes = list(enumerate_subspaces(2, 5, f3))
        assert len(planes) == gaussian_binomial(5, 2, 3)
        # the public constructor checks every plane again, and agrees
        assert all(T == PlaneMatrix(f3, T.rows) for T in planes)

    @pytest.mark.parametrize("d,m,p", [(2, 5, 3), (3, 5, 2)])
    def test_members_are_the_direct_filter(self, d, m, p):
        field = PrimeField(p)
        expected = [T for T in enumerate_subspaces(d, m, field) if is_member_direct(T)]
        assert expected
        assert brute_force_members(d, m, field) == expected

    def test_square_enumeration_builds_no_field_elements(self, monkeypatch):
        # d = m leaves no free entry; building the p elements anyway would
        # take minutes and gigabytes at p = 2^31 - 1
        field = PrimeField(2**31 - 1)
        calls = []
        original = field.from_int

        def counted(n):
            calls.append(n)
            if len(calls) > 1000:
                raise AssertionError("enumeration built the field's elements")
            return original(n)

        monkeypatch.setattr(field, "from_int", counted)
        planes = list(enumerate_subspaces(3, 3, field))
        assert [T.rows for T in planes] == [((1, 0, 0), (0, 1, 0), (0, 0, 1))]

    @pytest.mark.parametrize("d,m,p", [(1, 4, 5), (2, 4, 3), (3, 5, 2), (2, 2, 3), (4, 4, 2)])
    def test_enumeration_order(self, d, m, p):
        # every d x m matrix over F_p that is already in RREF, sorted by
        # pivot set, then by the entries right of each pivot outside the
        # pivot columns, read row by row
        def pivots(rows):
            return tuple(next(j for j, x in enumerate(row) if x) for row in rows if any(row))

        def in_rref(rows):
            piv = pivots(rows)
            return (
                len(piv) == d
                and list(piv) == sorted(set(piv))
                and all(rows[i][c] == 1 for i, c in enumerate(piv))
                and all(rows[k][c] == 0 for i, c in enumerate(piv) for k in range(d) if k != i)
            )

        def key(rows):
            piv = pivots(rows)
            free = tuple(
                rows[i][j] for i in range(d) for j in range(piv[i] + 1, m) if j not in piv
            )
            return piv, free

        flat = itertools.product(range(p), repeat=d * m)
        matrices = (tuple(tuple(e[i * m : (i + 1) * m]) for i in range(d)) for e in flat)
        expected = sorted(filter(in_rref, matrices), key=key)
        assert len(expected) == gaussian_binomial(m, d, p)
        assert [T.rows for T in enumerate_subspaces(d, m, PrimeField(p))] == expected

    def test_enumeration_holds_no_first_row_list(self):
        # (1, 11, 3) has 88,573 planes, 59,049 of them with pivot 0; as a list
        # of 11-tuples that first row alone would take about 8 MB
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_subspaces(1, 11, PrimeField(3)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 88573
        assert peak < 2 * 10**6

    def test_enumeration_unique_rref(self):
        f2 = PrimeField(2)
        seen = set()
        for T in enumerate_subspaces(2, 4, f2):
            assert T.rows not in seen
            seen.add(T.rows)
            from esymfano.linalg import rref

            red, _ = rref(T.rows, f2)
            assert tuple(red) == T.rows


class TestCrossCheck:
    def test_2_4_3(self):
        r = cross_check(2, 4, PrimeField(3))
        assert r["total"] == 130
        assert r["mismatches"] == 0

    def test_3_5_2_all_zero_pairs(self):
        r = cross_check(3, 5, PrimeField(2))
        assert r["mismatches"] == 0
        assert r["certificate_histogram"]["partition"] == 0
        assert r["members"] == r["certificate_histogram"]["zero_pair"]

    def test_1_3_5(self):
        r = cross_check(1, 3, PrimeField(5))
        assert r["total"] == 31
        assert r["mismatches"] == 0

    def test_one_expansion_per_column_multiset(self, monkeypatch):
        expanded = []
        original = fano.membership_expansion

        def counted(T):
            expanded.append(frozenset(Counter(zip(*T.rows)).items()))
            return original(T)

        monkeypatch.setattr(fano, "membership_expansion", counted)
        f3 = PrimeField(3)
        # 11,011 planes share 495 column multisets; a second call pays again
        assert cross_check(2, 6, f3)["total"] == 11011
        assert len(expanded) == len(set(expanded)) == 495
        assert cross_check(2, 6, f3)["mismatches"] == 0
        assert len(expanded) == 990
        assert set(expanded[:495]) == set(expanded[495:])

    @pytest.mark.parametrize("d,m,p", [(2, 5, 5), (3, 5, 3)])
    def test_memo_changes_no_verdict(self, d, m, p, monkeypatch):
        # every plane goes through fano.classify, with one memo for the whole
        # enumeration, and gets the verdict a memo-free call gives
        memos = []
        original = fano.classify

        def compared(T, *args):
            memos.extend(args)
            verdict = original(T, *args)
            assert verdict == original(T)
            return verdict

        monkeypatch.setattr(fano, "classify", compared)
        r = cross_check(d, m, PrimeField(p))
        assert r["mismatches"] == 0 and r["members"] > 0
        assert len(memos) == r["total"] == gaussian_binomial(m, d, p)
        assert all(memo is memos[0] for memo in memos)
        assert 0 < len(memos[0]) < p**d

    def test_certificate_soundness(self):
        f3 = PrimeField(3)
        for T in enumerate_subspaces(2, 4, f3):
            v = classify(T)
            if v.member:
                assert verify_certificate(T, v.certificate)


class TestReciprocalRelations:
    def lf(self, *coeffs):
        return LinearForm(QQ, tuple(Fraction(c) for c in coeffs))

    def test_independent_forms(self):
        basis = reciprocal_relation_space(
            [self.lf(1, 0), self.lf(0, 1), self.lf(1, 1)]
        )
        assert basis == []

    def test_proportional_pair(self):
        basis = reciprocal_relation_space([self.lf(1), self.lf(2)])
        assert len(basis) == 1
        lam = basis[0]
        # lambda_1 / s + lambda_2 / 2s = 0 forces lambda proportional to (1, -2)
        assert lam[0] != 0 and lam[1] == -2 * lam[0]

    def test_repeated_form(self):
        basis = reciprocal_relation_space([self.lf(1, 0), self.lf(1, 0), self.lf(0, 1)])
        assert len(basis) == 1

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_relation_space([])
        with pytest.raises(ValueError, match="zero form present"):
            reciprocal_relation_space([self.lf(0, 0)])
        with pytest.raises(ValueError):
            proportionality_class_count([self.lf(1, 0), self.lf(0, 0)])
        # a mix of fields or of variable counts is refused, not split into
        # directions of different lengths
        with pytest.raises(FieldError):
            reciprocal_relation_space([self.lf(1, 0), self.lf(1, 0, 0)])
        with pytest.raises(FieldError):
            reciprocal_relation_space([self.lf(1, 0), LinearForm(PrimeField(7), (1, 0))])

    def test_24_forms_without_expansion(self, monkeypatch, rng):
        def refuse(r, polys):
            raise AssertionError("reciprocal_relation_space expanded a product")

        monkeypatch.setattr(poly, "esym", refuse)
        monkeypatch.setattr(fano, "esym", refuse, raising=False)
        forms = [LinearForm(QQ, tuple(map(Fraction, row))) for row in REPEATED_ROWS]
        basis = reciprocal_relation_space(forms)
        assert proportionality_class_count(forms) == len(DISTINCT_ROWS)
        assert len(basis) == len(REPEATED_ROWS) - len(DISTINCT_ROWS)
        assert all(reciprocal_relation_holds(REPEATED_ROWS, vec, rng) for vec in basis)

    def test_dimension_law_random(self, rng):
        """Equal, value for value and in order, to the expansion oracle over
        Q and F_p; half the draws repeat an earlier form times a scalar, so
        classes of three and more columns occur."""
        big_classes = 0
        for field in [QQ] + [PrimeField(p) for p in (2, 3, 5, 7, 101)]:
            for _ in range(60):
                d, n = rng.randint(1, 4), rng.randint(1, 7)
                forms = []
                while len(forms) < n:
                    if forms and rng.random() < 0.5:
                        c = field.from_int(rng.randint(1, 50))
                        coeffs = [field.mul(c, x) for x in rng.choice(forms).coeffs]
                    else:
                        coeffs = [field.from_int(rng.randint(-3, 3)) for _ in range(d)]
                    if any(coeffs):
                        forms.append(LinearForm(field, coeffs))
                basis = reciprocal_relation_space(forms)
                assert basis == reciprocal_oracle(forms)
                assert len(basis) == n - proportionality_class_count(forms)
                # each vector is nonzero first at its class's first column
                firsts = Counter(next(i for i, x in enumerate(v) if x) for v in basis)
                big_classes += sum(k >= 2 for k in firsts.values())
        assert big_classes > 0
