import random

import pytest

from esymfano.fields import FieldError, PrimeField, _is_prime


def trial_division_is_prime(n):
    """Primality by trial division up to sqrt(n): the oracle for _is_prime."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_miller_rabin_matches_trial_division_below_100000():
    assert [n for n in range(100_000) if _is_prime(n) != trial_division_is_prime(n)] == []


def test_miller_rabin_matches_trial_division_near_the_modulus_bound():
    rng = random.Random(31)
    sample = [rng.randrange(2**30, 2**31) for _ in range(200)]
    # the largest admitted modulus, its neighbours, and three strong
    # pseudoprimes to base 2 (2047 = 23 * 89 the least); the least to all of
    # 2, 7 and 61, 4,759,123,141, lies past the admitted range
    sample += [2**31 - 1, 2**31 - 2, 2**31 - 3, 2047, 1_373_653, 25_326_001]
    assert [n for n in sample if _is_prime(n) != trial_division_is_prime(n)] == []
    assert _is_prime(2**31 - 1) and not _is_prime(2047)


def test_prime_field_checks_its_modulus():
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    for bad in (1, 4, 2047, 2**31 - 3, 2**31):
        with pytest.raises(FieldError):
            PrimeField(bad)
