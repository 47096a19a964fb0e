"""Operator normal form: application, products, brackets, order, level."""

import random
from math import factorial, prod

import pytest
import sympy

from weylops import (
    DiffOp,
    DomainError,
    bracket,
    level_by_commutation_oracle,
    order_by_bracket_oracle,
)
from weylops import exponents
from conftest import make_ring, random_diffop, random_poly


def test_apply_examples():
    R = make_ring(0, 1)
    x = R.variable(0)
    d2 = DiffOp.basis(R, (2,))
    assert d2.apply(x**4) == 6 * x**2

    R2 = make_ring(2, 1)
    assert DiffOp.basis(R2, (2,)).apply(R2.variable(0) ** 4) == R2.zero()

    f = x**3 + x - 1
    assert DiffOp.basis(R, (0,)).apply(f) == f


def _sympy_expr(f, gens):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * prod(g**e for g, e in zip(gens, exp)) for exp, c in f.terms.items()),
        sympy.Integer(0),
    )


def test_apply_matches_sympy_derivatives():
    """In characteristic 0, d[alpha] is the alpha-th derivative divided by
    alpha!; sympy differentiates, the kernel does not."""
    rng = random.Random(20261018)
    for nvars in (1, 2, 3):
        R = make_ring(0, nvars)
        gens = sympy.symbols(f"x0:{nvars}")
        for _ in range(10):
            xi = random_diffop(rng, R, max_order=4, max_terms=3)
            f = random_poly(rng, R, max_degree=6, max_terms=4)
            target = _sympy_expr(f, gens)
            expected = sympy.Integer(0)
            for alpha, coeff in xi.terms.items():
                specs = [(g, a) for g, a in zip(gens, alpha) if a]
                der = sympy.diff(target, *specs) if specs else target
                denom = prod(factorial(a) for a in alpha)
                expected += _sympy_expr(coeff, gens) * der / denom
            assert sympy.expand(expected - _sympy_expr(xi.apply(f), gens)) == 0


def test_apply_is_left_linear_over_coefficients(rng):
    R = make_ring(3, 2)
    for _ in range(30):
        xi = random_diffop(rng, R)
        f = random_poly(rng, R)
        g = random_poly(rng, R)
        assert (f * xi).apply(g) == f * xi.apply(g)
        assert xi.apply(f + g) == xi.apply(f) + xi.apply(g)


def test_weyl_relation():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert d * x == x * d + 1
    assert d * d == 2 * DiffOp.basis(R, (2,))


def test_char2_square_of_derivative_vanishes():
    R = make_ring(2, 1)
    d = DiffOp.partial(R, 0)
    assert (d * d).is_zero()


def test_d2_times_x():
    R = make_ring(0, 1)
    x = R.variable(0)
    d2 = DiffOp.basis(R, (2,))
    assert d2 * x == x * d2 + DiffOp.partial(R, 0)


def test_composition_rule_on_basis():
    R = make_ring(0, 2)
    a = DiffOp.basis(R, (2, 1))
    b = DiffOp.basis(R, (1, 1))
    coeff = exponents.multinomial((3, 2), (2, 1))
    assert a * b == coeff * DiffOp.basis(R, (3, 2))


def test_mul_matches_function_composition(rng):
    for char in (0, 2, 3, 5):
        n = rng.randint(1, 3)
        R = make_ring(char, n)
        for _ in range(25):
            xi = random_diffop(rng, R)
            eta = random_diffop(rng, R)
            prod = xi * eta
            for exp in exponents.iter_up_to_degree(n, 4):
                m = R.monomial(exp)
                assert prod.apply(m) == xi.apply(eta.apply(m))


def test_mul_associative(rng):
    for char in (0, 3):
        R = make_ring(char, 2)
        for _ in range(20):
            a = random_diffop(rng, R, max_order=2, coeff_degree=2)
            b = random_diffop(rng, R, max_order=2, coeff_degree=2)
            c = random_diffop(rng, R, max_order=2, coeff_degree=2)
            assert (a * b) * c == a * (b * c)


def test_bracket_examples():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert bracket(d, DiffOp.from_poly(x)) == DiffOp.constant(R, 1)
    assert bracket(DiffOp.from_poly(x), DiffOp.from_poly(x**2)).is_zero()
    assert bracket(x * d, DiffOp.from_poly(x)) == DiffOp.from_poly(x)


def test_bracket_antisymmetric_and_jacobi(rng):
    R = make_ring(5, 2)
    for _ in range(15):
        a = random_diffop(rng, R, max_order=2)
        b = random_diffop(rng, R, max_order=2)
        c = random_diffop(rng, R, max_order=2)
        assert bracket(a, b) == -bracket(b, a)
        jacobi = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert jacobi.is_zero()


def test_order_examples():
    R = make_ring(0, 1)
    x = R.variable(0)
    assert DiffOp.from_poly(x**3).order() == 0
    xi = x * DiffOp.partial(R, 0) + DiffOp.basis(R, (3,))
    assert xi.order() == 3
    assert DiffOp.zero(R).order() == -1


def test_order_subadditive_and_char0_equality(rng):
    R = make_ring(0, 2)
    for _ in range(40):
        xi = random_diffop(rng, R, allow_zero=False)
        eta = random_diffop(rng, R, allow_zero=False)
        prod = xi * eta
        assert prod.order() <= xi.order() + eta.order()
        assert prod.order() == xi.order() + eta.order()
    Rp = make_ring(2, 1)
    d = DiffOp.partial(Rp, 0)
    assert (d * d).order() == -1  # strict drop happens mod p


def test_order_bracket_oracle_examples():
    R = make_ring(0, 1)
    assert order_by_bracket_oracle(DiffOp.partial(R, 0)) == 1
    assert order_by_bracket_oracle(DiffOp.from_poly(R.variable(0))) == 0
    assert order_by_bracket_oracle(DiffOp.basis(R, (2,))) == 2
    with pytest.raises(DomainError):
        order_by_bracket_oracle(DiffOp.zero(R))


def test_order_agrees_with_bracket_oracle(rng):
    for char in (0, 2, 5):
        R = make_ring(char, 2)
        for _ in range(12):
            xi = random_diffop(rng, R, max_order=3, allow_zero=False)
            assert order_by_bracket_oracle(xi, degree_bound=2) == xi.order()


def test_level_examples():
    R = make_ring(2, 1)
    x = R.variable(0)
    assert DiffOp.from_poly(x**5).level() == 0
    assert DiffOp.partial(R, 0).level() == 1
    assert DiffOp.basis(R, (2,)).level() == 2
    assert DiffOp.zero(R).level() == 0  # convention, like order -1
    with pytest.raises(DomainError):
        DiffOp.partial(make_ring(0, 1), 0).level()


def test_level_commutation_oracle_examples():
    R = make_ring(2, 1)
    d = DiffOp.partial(R, 0)
    assert level_by_commutation_oracle(d, 1)
    assert not level_by_commutation_oracle(d, 0)
    assert level_by_commutation_oracle(DiffOp.from_poly(R.variable(0)), 0)


def test_level_agrees_with_commutation_oracle(rng):
    for p in (2, 3):
        R = make_ring(p, 2)
        for _ in range(12):
            xi = random_diffop(rng, R, max_order=p**2 - 1, allow_zero=False)
            lv = xi.level()
            for e in (0, 1, 2):
                assert level_by_commutation_oracle(xi, e, degree_bound=3) == (
                    lv <= e
                )


def test_level_monotone_under_product(rng):
    R = make_ring(2, 1)
    for _ in range(25):
        xi = random_diffop(rng, R, max_order=3, allow_zero=False)
        eta = random_diffop(rng, R, max_order=3, allow_zero=False)
        prod = xi * eta
        if not prod.is_zero():
            assert prod.level() <= max(xi.level(), eta.level())


def test_order_one_splits_into_ring_and_derivation(rng):
    for char in (0, 3):
        R = make_ring(char, 2)
        for _ in range(20):
            xi = random_diffop(rng, R, max_order=1, coeff_degree=2)
            f0 = xi.constant_term()
            theta = xi - DiffOp.from_poly(f0)
            assert theta == xi.derivation_part()
            assert theta.is_derivation()
            f = random_poly(rng, R)
            g = random_poly(rng, R)
            assert theta.apply(f * g) == f * theta.apply(g) + g * theta.apply(f)
            assert theta.apply(R.one()).is_zero()


def test_ring_mismatch_rejected():
    a = DiffOp.partial(make_ring(0, 1), 0)
    b = DiffOp.partial(make_ring(2, 1), 0)
    with pytest.raises(DomainError):
        a * b
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a.apply(make_ring(2, 1).one())
