"""Coefficient field arithmetic and multi-exponent combinatorics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylops import DomainError, FieldSpec, alternating_multinomial_sum
from weylops import exponents


def test_characteristic_must_be_prime_or_zero():
    FieldSpec(0)
    FieldSpec(7)
    for bad in (1, 4, 6, 9, 15):
        with pytest.raises(DomainError):
            FieldSpec(bad)


def _accepts(characteristic):
    try:
        FieldSpec(characteristic)
    except DomainError:
        return False
    return True


def test_primality_matches_trial_division():
    for n in range(3000):
        prime = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert _accepts(n) == (n == 0 or prime), n


def test_large_characteristics():
    # decided by Miller-Rabin, which trial division could not do in time
    assert FieldSpec(4294967311).characteristic == 4294967311
    assert FieldSpec(2**61 - 1).characteristic == 2**61 - 1
    # a Carmichael number, and a strong pseudoprime to bases 2, 3, 5 and 7
    for bad in (561, 3215031751):
        with pytest.raises(DomainError, match="must be 0 or a prime"):
            FieldSpec(bad)
    with pytest.raises(DomainError, match="primality-test limit"):
        FieldSpec(10**25)


def test_coerce_rational_string():
    Q = FieldSpec(0)
    assert Q.coerce("3/4") == Fraction(3, 4)
    F5 = FieldSpec(5)
    assert F5.coerce("3/4") == 3 * pow(4, 3, 5) % 5
    with pytest.raises(DomainError):
        FieldSpec(2).coerce("1/2")


def _factorial_multinomial(alpha, beta):
    gamma = tuple(a - b for a, b in zip(alpha, beta))
    num = math.prod(math.factorial(a) for a in alpha)
    den = math.prod(math.factorial(b) for b in beta) * math.prod(
        math.factorial(c) for c in gamma
    )
    assert num % den == 0
    return num // den


def test_multinomial_examples():
    assert exponents.multinomial((2, 1), (1, 0), 0) == 2
    assert _factorial_multinomial((2, 1), (1, 0)) == 2
    assert exponents.multinomial((3,), (0,), 0) == 1
    assert exponents.multinomial((3,), (0,), 5) == 1
    assert _factorial_multinomial((3,), (2,)) == 3
    assert exponents.multinomial((3,), (2,), 2) == 1


def test_multinomial_rejects_bad_beta():
    with pytest.raises(DomainError):
        exponents.multinomial((2, 1), (3, 0), 0)
    with pytest.raises(DomainError):
        exponents.multinomial((2,), (1, 1))


def test_multinomial_matches_factorial_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, 6) for _ in range(n))
        beta = tuple(rng.randint(0, a) for a in alpha)
        assert exponents.multinomial(alpha, beta) == _factorial_multinomial(alpha, beta)


def test_multinomial_through_the_binomial_kernel():
    # past the kernels' 2^14-bit guardrail characteristic p reduces by
    # Lucas' theorem: 10^8 and 5*10^7 end in the base-5 digits 1 and 3
    assert exponents.multinomial((10**8,), (5 * 10**7,), 5) == 0
    assert exponents.multinomial((20000, 3), (7, 1), 5) == math.comb(20000, 7) * 3 % 5
    with pytest.raises(DomainError, match="guardrail"):
        exponents.multinomial((10**8,), (5 * 10**7,), 0)
    with pytest.raises(DomainError, match="guardrail"):
        exponents.multinomial((10**8,), (5 * 10**7,))


def test_multinomial_symmetry_and_vandermonde():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, 5) for _ in range(n))
        total = 0
        for beta in exponents.iter_leq(alpha):
            gamma = exponents.subtract(alpha, beta)
            assert exponents.multinomial(alpha, beta) == exponents.multinomial(
                alpha, gamma
            )
            total += exponents.multinomial(alpha, beta)
        assert total == 2 ** exponents.degree(alpha)


def test_big_exponents_do_not_overflow():
    alpha = (64,)
    value = exponents.multinomial(alpha, (32,))
    assert value == math.comb(64, 32)
    assert value > 2**60


def test_alternating_sum_examples():
    assert alternating_multinomial_sum((1, 1)) == 0
    assert alternating_multinomial_sum((0, 0)) == 1
    assert alternating_multinomial_sum((3, 2)) == 0


def test_alternating_sum_exhaustive_small():
    for n in (1, 2, 3):
        for sigma in exponents.iter_up_to_degree(n, 6):
            expected = 1 if sum(sigma) == 0 else 0
            assert alternating_multinomial_sum(sigma) == expected


@st.composite
def field_and_elements(draw, count):
    char = draw(st.sampled_from([0, 2, 3, 5, 7]))
    spec = FieldSpec(char)
    elems = []
    for _ in range(count):
        if char:
            elems.append(draw(st.integers(0, char - 1)))
        else:
            num = draw(st.integers(-20, 20))
            den = draw(st.integers(1, 12))
            elems.append(Fraction(num, den))
    return (spec, *elems)


@settings(deadline=None)
@given(field_and_elements(3))
def test_field_axioms(data):
    spec, a, b, c = data
    assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
    assert spec.add(a, b) == spec.add(b, a)
    assert spec.mul(a, b) == spec.mul(b, a)
    assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
