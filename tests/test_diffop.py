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
from weylops import _kernels as K, exponents
from weylops.opparser import parse_operator
from conftest import (
    derivation_part,
    make_ring,
    random_diffop,
    random_level_bounded_op,
    random_poly,
    reference_bracket,
)


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


def _outcome(run):
    """A call's core, or the type and message of its refusal."""
    try:
        op = run()
    except DomainError as exc:
        return type(exc), str(exc)
    return op.den, op.num


# pairings whose leading binomial C(alpha+beta, alpha) vanishes mod p
LUCAS_ZEROS = {
    2: [("x1*d1", "x1^3*d1 + x1"), ("d1", "x1^2*d1"), ("x1*d[3]", "x1^4*d[1]")],
    3: [("x1^2*d1", "x1^4*d[2] + 2"), ("x1*d[2]", "x1^3*d[1]")],
    5: [("x1^3*d[2]", "x1^5*d[3] + x1"), ("x1*d[4]", "x1^2*d[1]")],
}


@pytest.mark.parametrize("char", (0, 2, 3, 5, 1000003))
def test_bracket_matches_two_products(char):
    """The fused commutator against a*b - b*a, core for core, in one to
    three variables: random operators with pure-polynomial terms on either
    side (order 0 included), exponents at and past p, Polynomial and scalar
    right arguments, and pairings whose leading binomial vanishes mod p.
    The order bound m+n-1 holds throughout."""
    rng = random.Random(3100 + char)
    for n in (1, 2, 3):
        R = make_ring(char, n)
        ops = [DiffOp.zero(R), DiffOp.constant(R, 3)]
        for _ in range(10):
            ops.append(random_diffop(rng, R, max_order=rng.randint(0, 4),
                                     max_terms=4, coeff_terms=3))
            if char and char < 10:
                ops.append(random_level_bounded_op(rng, R, 1, max_terms=4))
        if n == 1:
            for pair in LUCAS_ZEROS.get(char, ()):
                ops.extend(parse_operator(text, R) for text in pair)
        for a in ops:
            for b in rng.sample(ops, 6):
                got = bracket(a, b)
                expected = reference_bracket(a, b)
                assert (got.den, got.num) == (expected.den, expected.num)
                assert got.is_zero() or got.order() <= a.order() + b.order() - 1
            f = random_poly(rng, R)
            assert bracket(a, f) == reference_bracket(a, f)
            assert bracket(a, 2).is_zero()


def test_bracket_keeps_the_argument_errors():
    R, S = make_ring(0, 2), make_ring(0, 3)
    xi = parse_operator("x1*d2 + d1", R)
    for other in (DiffOp.partial(S, 0), S.variable(0)):
        with pytest.raises(DomainError, match="operator ring mismatch"):
            bracket(xi, other)
        with pytest.raises(DomainError, match="operator ring mismatch"):
            reference_bracket(xi, other)
    for run in (lambda: bracket(xi, "d1"), lambda: reference_bracket(xi, "d1")):
        with pytest.raises(TypeError):
            run()


BRACKET_REFUSALS = (
    # (characteristic, nvars, left, right)
    (0, 2, "x1^3*d[4,1] + x2 + 3*x1*d2", "x1^2*x2^3*d[3,2] - x1^3 + d[0,2]"),
    (0, 2, "x1^3 - x2^4*d[0,3]", "x1^2*x2*d[3,4] + 2*x1*d1 + x2^2"),
    (5, 3, "x1^4*d[3,0,1] + x2*x3", "x3^4*d[0,2,4] + x1^2*x2 + d[1,1,0]"),
)


@pytest.mark.parametrize("char, nvars, left, right", BRACKET_REFUSALS)
def test_bracket_refuses_where_the_two_products_do(monkeypatch, char, nvars,
                                                    left, right):
    """For every WORK_LIMIT up to past the work of both products (at most
    18 here), and binomial limits small enough to refuse some rows, the
    fused bracket answers or refuses (type and message) exactly as
    a*b - b*a, in both argument orders.  Each call starts from an empty
    row table, so no row built under another limit is reused."""
    R = make_ring(char, nvars)
    a, b = parse_operator(left, R), parse_operator(right, R)
    default = K.BINOM_BITS_LIMIT
    for bits in (3, 5, 8, default):
        monkeypatch.setattr(K, "BINOM_BITS_LIMIT", bits)
        seen = set()
        for limit in range(24):
            monkeypatch.setattr(K, "WORK_LIMIT", limit)
            for x, y in ((a, b), (b, a)):
                outcomes = []
                for run in (bracket, reference_bracket):
                    monkeypatch.setattr(K, "_ROWS", {})
                    outcomes.append(_outcome(lambda: run(x, y)))
                assert outcomes[0] == outcomes[1]
                kind = outcomes[0][0]
                seen.add(outcomes[0][1].split(" ")[0] if kind is DomainError
                         else "answer")
        if bits == default:
            assert seen == {"an", "answer"}  # the sweep passes both products
        elif char == 0 and bits < 8:
            assert {"an", "binomial"} <= seen  # both guardrails were met


def test_bracket_refuses_large_binomials_in_either_product():
    """C(M, 2) for M = 2^8200 passes the binomial guardrail over Q: x1^M
    brackets with d[2] through the product that commutes d[2] past x1^M,
    which is the first one or the second one depending on the order."""
    R = make_ring(0, 1)
    power = DiffOp._core(R, ({(0,): {(2**8200,): 1}}, 1))
    d = DiffOp.basis(R, (2,))
    for x, y in ((power, d), (d, power)):
        got = _outcome(lambda: bracket(x, y))
        assert got[0] is DomainError and "guardrail" in got[1]
        assert got == _outcome(lambda: reference_bracket(x, y))


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
            assert theta == derivation_part(xi)
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
