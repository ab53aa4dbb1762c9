"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from esymfano.fano import (
    PlaneMatrix,
    classify,
    cross_check,
    enumerate_isolated,
    expected_dimension,
    is_member_direct,
    random_partition_certificate,
    reciprocal_relation_space,
    proportionality_class_count,
    sample_member,
)
from esymfano.fields import QQ, PrimeField
from esymfano.invariants import (
    close_group,
    generation_check,
    z2_counterexample_report,
)
from esymfano.poly import LinearForm

from conftest import qm, reciprocal_oracle


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_isolated_point_counts():
    t0 = time.time()
    expected = {1: 1, 2: 3, 3: 15, 4: 105}
    ok = True
    for d, count in expected.items():
        points = enumerate_isolated(d)
        ok = ok and len(points) == count
        ok = ok and all(is_member_direct(T) for _, T in points)
    elapsed = time.time() - t0
    report("1 (isolated counts 1,3,15,105; < 5 s)", ok and elapsed < 5.0)


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    runs = [(d, m, p) for (d, m) in [(1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)] for p in (2, 3)]
    runs += [(3, 6, 2), (3, 6, 3), (4, 7, 2)]
    ok = True
    for d, m, p in runs:
        result = cross_check(d, m, PrimeField(p))
        ok = ok and result["mismatches"] == 0
    elapsed = time.time() - t0
    report("2 (exhaustive classify == direct; < 60 s)", ok and elapsed < 60.0)


def test_criterion_3_large_d_exhaustion():
    ok = True
    for d, m in [(2, 3), (3, 4), (3, 5)]:
        for p in (2, 3):
            result = cross_check(d, m, PrimeField(p))
            ok = ok and result["certificate_histogram"]["partition"] == 0
            ok = ok and result["members"] == result["certificate_histogram"]["zero_pair"]
    report("3 (2d > m: every member certificate is a zero pair)", ok)


def test_criterion_4_member_generators():
    rng = random.Random(20260826)
    ok = True
    for _ in range(1000):
        k = rng.randint(1, 3)
        sizes = [rng.randint(2, 4) for _ in range(k)]
        classes, scalars = random_partition_certificate(sizes, rng)
        d = rng.randint(1, k)
        T = sample_member(classes, scalars, d, seed=rng.randint(0, 10**9))
        ok = ok and is_member_direct(T)
    report("4 (1000 sampled members all pass the direct check)", ok)


def test_criterion_5_expected_dimension():
    ok = (
        expected_dimension(2, 4) == 0
        and expected_dimension(3, 6) == -12
        and expected_dimension(1, 3) == 1
    )
    # negativity for d >= 3 with m = 2d
    ok = ok and all(expected_dimension(d, 2 * d) < 0 for d in (3, 4, 5))
    report("5 (expected-dimension formula, negative for d >= 3)", ok)


def test_criterion_6_reciprocal_relation_dimension():
    rng = random.Random(1)
    ok = True
    for _ in range(200):
        d = rng.randint(1, 3)
        n = rng.randint(1, 5)
        forms = []
        while len(forms) < n:
            c = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
            if any(x != 0 for x in c):
                forms.append(LinearForm(QQ, c))
        basis = reciprocal_relation_space(forms)
        n_classes = proportionality_class_count(forms)
        ok = ok and basis == reciprocal_oracle(forms)
        ok = ok and len(basis) == n - n_classes
        if n_classes == n:
            ok = ok and basis == []
    report("6 (relation space dimension = #forms - #classes, basis = expansion oracle)", ok)


def test_criterion_7_orbit_chern_generation():
    def lf(*coeffs):
        return LinearForm(QQ, tuple(Fraction(c) for c in coeffs))

    sign = close_group([qm([[-1, 0], [0, -1]])], QQ)
    swap = close_group([qm([[0, 1], [1, 0]])], QQ)
    s3 = close_group(
        [qm([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), qm([[0, 0, 1], [1, 0, 0], [0, 1, 0]])],
        QQ,
    )
    ok = generation_check(sign, [lf(1, 0), lf(0, 1), lf(1, 1)], 4)["generated"]
    ok = ok and generation_check(swap, [lf(1, 0)], 6)["generated"]
    ok = ok and generation_check(s3, [lf(1, 0, 0)], 6)["generated"]
    report("7 (orbit-derived generators span the invariants)", ok)


def test_criterion_8_z2_counterexample():
    rep = z2_counterexample_report(trials=50)
    ok = (
        rep["xy_invariant"]
        and rep["single_image_membership_hits"] == 0
        and rep["quadratic_pullbacks_in_single_span"]
        and rep["polarization_identity"]
        and rep["algebra_membership"]
    )
    report("8 (xy: invariant, outside every single image, polarization identity)", ok)


def test_criterion_9_three_class_member():
    T = PlaneMatrix(QQ, qm([[1, 0, 1, -1, 0, -1], [0, 1, 1, 0, -1, -1]]))
    v = classify(T)
    ok = (
        is_member_direct(T)
        and v.member
        and v.certificate.num_classes == 3
        and not v.spans_full_span_space
    )
    report("9 (three-class member with d = 2 accepted by both routes)", ok)
