"""The term kernels against naive references written here from the definitions.

The references apply d^[alpha] to x^beta as C(beta, alpha) x^(beta-alpha)
with ``math.comb`` and check operator products by composition: an operator
whose support has total degree at most m is determined by its values on the
monomials of total degree at most m (the system is triangular), so agreeing
there is agreeing everywhere.  Products of residues of the two large primes
overflow 64-bit integers.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

import weylops._kernels as K
from weylops import DomainError

PRIMES = (0, 2, 3, 5, 4294967311, 2**61 - 1)


def _rand_poly(rng, n, p, deg=3, terms=3):
    out = {}
    for _ in range(rng.randint(0, terms)):
        exp = tuple(rng.randint(0, deg) for _ in range(n))
        if p:
            c = rng.randrange(p)
        else:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if c:
            out[exp] = c
    return out


def _rand_op(rng, n, p):
    return {
        tuple(rng.randint(0, 2) for _ in range(n)): poly
        for _ in range(rng.randint(1, 3))
        if (poly := _rand_poly(rng, n, p))
    }


def _reduce(acc, p):
    """Drop zero coefficients after reducing mod p."""
    out = {}
    for exp, c in acc.items():
        if p:
            c %= p
        if c:
            out[exp] = c
    return out


def _ref_add(a, b, p):
    acc = dict(a)
    for exp, c in b.items():
        acc[exp] = acc.get(exp, 0) + c
    return _reduce(acc, p)


def _ref_mul(a, b, p):
    acc = {}
    for (ea, ca), (eb, cb) in product(a.items(), b.items()):
        exp = tuple(x + y for x, y in zip(ea, eb))
        acc[exp] = acc.get(exp, 0) + ca * cb
    return _reduce(acc, p)


def _ref_partial(alpha, f, p):
    acc = {}
    for beta, c in f.items():
        if all(a <= b for a, b in zip(alpha, beta)):
            co = math.prod(math.comb(b, a) for a, b in zip(alpha, beta))
            exp = tuple(b - a for a, b in zip(alpha, beta))
            acc[exp] = acc.get(exp, 0) + c * co
    return _reduce(acc, p)


def _ref_apply(xi, f, p):
    out = {}
    for alpha, coeff in xi.items():
        out = _ref_add(out, _ref_mul(coeff, _ref_partial(alpha, f, p), p), p)
    return out


def _monomials(n, max_degree):
    for exp in product(range(max_degree + 1), repeat=n):
        if sum(exp) <= max_degree:
            yield exp


@pytest.mark.parametrize("p", PRIMES)
def test_poly_kernels_match_reference(p):
    rng = random.Random(90 + p)
    for _ in range(60):
        n = rng.randint(1, 3)
        a, b = _rand_poly(rng, n, p), _rand_poly(rng, n, p)
        c = Fraction(-3, 2) if p == 0 else rng.randrange(p)
        assert K.poly_add(a, b, p) == _ref_add(a, b, p)
        assert K.poly_neg(a, p) == _reduce({e: -v for e, v in a.items()}, p)
        assert K.poly_scale(a, c, p) == _reduce({e: v * c for e, v in a.items()}, p)
        assert K.poly_mul(a, b, p) == _ref_mul(a, b, p)


@pytest.mark.parametrize("p", PRIMES)
def test_diffop_apply_matches_reference(p):
    rng = random.Random(190 + p)
    for _ in range(60):
        n = rng.randint(1, 3)
        xi, f = _rand_op(rng, n, p), _rand_poly(rng, n, p, deg=5, terms=4)
        for alpha in xi:
            assert K.partial_apply(alpha, f, p) == _ref_partial(alpha, f, p)
        assert K.diffop_apply(xi, f, p) == _ref_apply(xi, f, p)


def _assert_mul_by_composition(xi, eta, n, p):
    prod_op = K.diffop_mul(xi, eta, p)
    assert all(prod_op.values())
    bound = max(map(sum, xi), default=0) + max(map(sum, eta), default=0)
    for mu in _monomials(n, bound):
        x_mu = {mu: 1}
        assert K.diffop_apply(prod_op, x_mu, p) == _ref_apply(
            xi, _ref_apply(eta, x_mu, p), p
        )


@pytest.mark.parametrize("p", PRIMES)
def test_diffop_mul_matches_composition(p):
    rng = random.Random(290 + p)
    for _ in range(40):
        n = rng.randint(1, 3)
        _assert_mul_by_composition(_rand_op(rng, n, p), _rand_op(rng, n, p), n, p)


@pytest.mark.parametrize("p", PRIMES)
def test_diffop_mul_with_polynomial_left_terms(p):
    """Left terms f*d^[0], alone or beside terms of positive order, multiply
    the right factor's coefficients directly."""
    rng = random.Random(390 + p)
    for _ in range(25):
        n = rng.randint(1, 3)
        f = _rand_poly(rng, n, p, terms=4) or {(0,) * n: 1}
        mixed = {**_rand_op(rng, n, p), (0,) * n: f}
        eta = _rand_op(rng, n, p)
        for xi in ({(0,) * n: f}, mixed):
            _assert_mul_by_composition(xi, eta, n, p)


@pytest.mark.parametrize("p", PRIMES)
def test_diffop_mul_with_alpha_far_above_the_coefficient(p):
    """d^[alpha] * g*d^[beta] by the Leibniz rule: the sum runs over
    gamma <= alpha, but only gamma within the exponents of g give terms."""
    alpha, beta = (10**8, 3), (1, 0)
    half = Fraction(1, 2) if p == 0 else 1
    g = _reduce({(2, 1): half, (0, 3): 2, (1, 0): -1}, p)
    expected = {}
    for gamma in product(range(3), range(4)):
        delta = tuple(a - c for a, c in zip(alpha, gamma))
        target = tuple(d + b for d, b in zip(delta, beta))
        factor = math.prod(math.comb(t, d) for t, d in zip(target, delta))
        term = {e: v * factor for e, v in _ref_partial(gamma, g, p).items()}
        expected[target] = _ref_add(expected.get(target, {}), term, p)
    expected = {e: v for e, v in expected.items() if v}
    assert K.diffop_mul({alpha: {(0, 0): 1}}, {beta: g}, p) == expected


def test_binom_product_matches_comb():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 4)
        beta = tuple(rng.randint(0, 70) for _ in range(n))
        alpha = tuple(rng.randint(0, 80) for _ in range(n))
        expected = math.prod(math.comb(b, a) for a, b in zip(alpha, beta))
        for p in PRIMES:
            assert K.binom_product(beta, alpha, p) == (expected % p if p else expected)
    assert K.binom_product((3, 1), (2, 2), 0) == 0  # alpha not <= beta
    assert K.binom_product((5, 4), (2, 4), 0) == 10


def test_binom_product_past_the_guardrail():
    """Past BINOM_BITS_LIMIT, characteristic p goes by Lucas' theorem and
    characteristic 0 refuses the binomials that may be that large."""
    limit = K.BINOM_BITS_LIMIT
    rng = random.Random(5)
    for _ in range(40):
        b = rng.randint(limit + 1, limit + 4000)
        a = rng.choice([rng.randint(0, b), rng.randint(0, 40), b - rng.randint(0, 40)])
        exact = math.comb(b, a)
        for p in (2, 3, 5):
            assert K.binom_product((b, 3), (a, 1), p) == exact * 3 % p
        # a prime above b leaves one digit, C(b, a) itself: bounded as over Q
        if min(a, b - a) * b.bit_length() <= limit:
            for p in (0, 1000003, 4294967311):
                assert K.binom_product((b,), (a,), p) == (exact % p if p else exact)
        else:
            for p in (0, 1000003, 4294967311):
                with pytest.raises(DomainError):
                    K.binom_product((b,), (a,), p)
    big = 2 * 10**8
    assert K.binom_product((big,), (big // 2,), 5) == 4
    assert K.binom_product((big,), (3,), 0) == math.comb(big, 3)
    with pytest.raises(DomainError):
        K.binom_product((big,), (big // 2,), 0)
    assert K.binom_product((big,), (big // 2,), 1000003) == 0  # digit 999703 > 999403
    with pytest.raises(DomainError):
        K.binom_product((big,), (big // 2,), 2**61 - 1)


def test_pure_kernels_strip_zeros():
    p = 3
    a = {(1,): 1, (0,): 2}
    b = {(1,): 2, (0,): 1}
    assert K.poly_add(a, b, p) == {}
    assert K.poly_scale(a, 0, p) == {}
    # (x + 2)(2x + 1) = 2x^2 + 5x + 2 = 2x^2 + 2x + 2 mod 3
    assert K.poly_mul(a, b, p) == {(2,): 2, (1,): 2, (0,): 2}
    for result in (K.poly_mul(a, b, p), K.poly_neg(a, p)):
        assert all(v for v in result.values())
