"""The integer core of operators and polynomials over Q against a
Fraction-valued oracle.

Over Q an operator or a polynomial is stored as integer numerators over one
denominator (``num``, ``den``).  The oracle here is the arithmetic the
package used before that: the same term kernels run on ``Fraction``
coefficients, which they accept unchanged.  Every result is also checked
for the canonical form: int numerators, den > 0, gcd(den, numerators) == 1,
and den == 1 for zero.
"""

import copy
import random
from fractions import Fraction
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import weylops._kernels as K
from weylops import diffop, invariants, opparser, transpose
from weylops import (
    DiffOp,
    DomainError,
    FiniteGroup,
    GroupElement,
    Matrix,
    RingMap,
    act_on_poly,
    apply_ring_map,
    bracket,
    parse_operator,
    reynolds,
    standard_transpose,
    twisted_transpose,
)
from weylops.diffop import canonical, core_mul, core_pow, core_sum
from weylops.levelmatrix import SIZE_LIMIT, LevelMatrix, to_matrix
from weylops.poly import Polynomial
from weylops.render import render_op
from conftest import (
    derivation_part,
    make_ring,
    random_diffop,
    random_level_bounded_op,
    random_poly,
    ref_add,
    ref_core_add,
    ref_core_neg,
    ref_poly_add,
    ref_poly_scale,
    ref_scale,
)

RINGS = {n: make_ring(0, n) for n in (1, 2, 3)}


def _fractions(max_den=12):
    return st.builds(Fraction, st.integers(-12, 12).filter(bool),
                     st.integers(1, max_den))


def _polys(ring, max_degree=3, max_terms=3):
    exps = st.tuples(*[st.integers(0, max_degree)] * ring.nvars)
    return st.dictionaries(exps, _fractions(), max_size=max_terms).map(ring.from_terms)


def _ops(ring, max_order=2):
    alphas = st.tuples(*[st.integers(0, max_order)] * ring.nvars)
    return st.dictionaries(alphas, _polys(ring), max_size=3).map(
        lambda terms: DiffOp.from_terms(ring, terms))


@st.composite
def _op_pairs(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    return draw(_ops(ring)), draw(_ops(ring))


# -- the Fraction-valued oracle ----------------------------------------------


def _view(op) -> dict:
    """An operator as {alpha: {mu: Fraction}}."""
    return {alpha: dict(f.terms) for alpha, f in op.terms.items()}


def _fraction_mul(a: dict, b: dict) -> dict:
    return K.diffop_mul(a, b, 0)


def _fraction_add(a: dict, b: dict) -> dict:
    return ref_add(a, b, 0)


def _fraction_scale(a: dict, c) -> dict:
    return ref_scale(a, Fraction(c), 0) if c else {}


def _fraction_twisted(twist, xi: dict, n: int) -> dict:
    """Sum over the terms f*d^[alpha] of prod_i (-d_i + f_i)^alpha_i * f
    over alpha!, all on Fraction dicts."""
    zero = (0,) * n
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    images = [_fraction_add({units[i]: {zero: Fraction(-1)}}, {zero: dict(f.terms)}
                            if f.terms else {}) for i, f in enumerate(twist)]
    out = {}
    for alpha, f in xi.items():
        image = {zero: {zero: Fraction(1)}}
        for i, a in enumerate(alpha):
            for _ in range(a):
                image = _fraction_mul(image, images[i])
        term = _fraction_mul(image, {zero: f})
        out = _fraction_add(out, _fraction_scale(
            term, Fraction(1, prod(factorial(a) for a in alpha))))
    return out


def _assert_canonical(op):
    nums = [c for f in op.num.values() for c in f.values()]
    assert all(type(c) is int and c for c in nums)
    assert all(op.num.values())
    assert type(op.den) is int and op.den > 0
    assert gcd(op.den, *nums) == 1
    if op.is_zero():
        assert op.den == 1


def _check(op, expected: dict):
    _assert_canonical(op)
    assert _view(op) == expected


def _check_poly(f, expected: dict):
    assert all(type(c) is int and c for c in f.num.values())
    assert type(f.den) is int and f.den > 0
    assert gcd(f.den, *f.num.values()) == 1
    if f.is_zero():
        assert f.den == 1
    assert f.terms == expected
    assert f == f.ring.from_terms(expected)


# -- properties ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(_op_pairs())
def test_arithmetic_matches_fraction_oracle(pair):
    xi, eta = pair
    a, b = _view(xi), _view(eta)
    _assert_canonical(xi)
    _check(xi * eta, _fraction_mul(a, b))
    _check(bracket(xi, eta), _fraction_add(
        _fraction_mul(a, b), _fraction_scale(_fraction_mul(b, a), -1)))
    _check(xi + eta, _fraction_add(a, b))
    _check(xi - eta, _fraction_add(a, _fraction_scale(b, -1)))
    _check(-xi, _fraction_scale(a, -1))
    _check(xi - xi, {})
    _check(xi * 0, {})


@settings(max_examples=25, deadline=None)
@given(_op_pairs(), st.data())
def test_transposes_and_apply_match_fraction_oracle(pair, data):
    xi, _ = pair
    ring = xi.ring
    a = _view(xi)
    _check(standard_transpose(xi), K.diffop_transpose(a, 0))
    twist = [data.draw(_polys(make_ring(0, 1), max_degree=2)) for _ in range(ring.nvars)]
    # each twist polynomial involves only its own variable
    twist = [ring.from_terms({tuple(e[0] if j == i else 0 for j in range(ring.nvars)): c
                              for e, c in f.terms.items()})
             for i, f in enumerate(twist)]
    _check(twisted_transpose(twist, xi), _fraction_twisted(twist, a, ring.nvars))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_polynomial_arithmetic_and_apply_match_fraction_oracle(data):
    ring = RINGS[data.draw(st.sampled_from(sorted(RINGS)))]
    xi = data.draw(_ops(ring))
    f, g = (data.draw(_polys(ring)) for _ in range(2))
    a, b = f.terms, g.terms
    _check_poly(f, a)
    _check_poly(f + g, ref_poly_add(a, b, 0))
    _check_poly(f - g, ref_poly_add(a, ref_poly_scale(b, -1, 0), 0))
    _check_poly(f * g, K.poly_mul(a, b, 0))
    _check_poly(f * Fraction(-4, 3), ref_poly_scale(a, Fraction(-4, 3), 0))
    n = data.draw(st.integers(0, 3))
    one = {(0,) * ring.nvars: Fraction(1)}
    _check_poly(f**n, K.poly_pow(a, n, 0) if n else one)
    _check_poly(xi.apply(f), K.diffop_apply(_view(xi), a, 0))


@settings(max_examples=25, deadline=None)
@given(_op_pairs())
def test_parser_matches_fraction_oracle(pair):
    xi, eta = pair
    ring = xi.ring
    a, b = _view(xi), _view(eta)
    _check(parse_operator(render_op(xi), ring), a)
    text = f"({render_op(xi)})*({render_op(eta)}) - 2/6*({render_op(eta)})"
    _check(parse_operator(text, ring), _fraction_add(
        _fraction_mul(a, b), _fraction_scale(b, Fraction(-1, 3))))
    _check(parse_operator(f"({render_op(xi)}) - ({render_op(xi)})", ring), {})


def _sign_oracle(a: dict) -> dict:
    """Reynolds average under {I, -I}: the terms x^mu d^[alpha] with
    |mu| + |alpha| even."""
    out = {}
    for alpha, f in a.items():
        kept = {mu: c for mu, c in f.items() if (sum(mu) + sum(alpha)) % 2 == 0}
        if kept:
            out[alpha] = kept
    return out


def _swap_oracle(a: dict) -> dict:
    """Reynolds average under {I, M}, M = [[0, 2], [1/2, 0]]: conjugation
    sends c x^mu d^[alpha] to c 2^(mu_1 - mu_0 + alpha_0 - alpha_1)
    x^(mu_1, mu_0) d^[(alpha_1, alpha_0)]."""
    moved = {}
    for (a0, a1), f in a.items():
        moved[a1, a0] = {(m1, m0): c * Fraction(2) ** (m1 - m0 + a0 - a1)
                         for (m0, m1), c in f.items()}
    return _fraction_scale(_fraction_add(a, moved), Fraction(1, 2))


@settings(max_examples=25, deadline=None)
@given(_ops(RINGS[2], max_order=3))
def test_reynolds_matches_closed_forms(xi):
    F = xi.ring.field
    ident = GroupElement(Matrix.identity(F, 2))
    sign = FiniteGroup([ident, GroupElement(Matrix(F, [[-1, 0], [0, -1]]))])
    swap = FiniteGroup([ident, GroupElement(Matrix(F, [[0, 2], ["1/2", 0]]))])
    a = _view(xi)
    _check(reynolds(sign, xi), _sign_oracle(a))
    _check(reynolds(swap, xi), _swap_oracle(a))


def test_cancellation_resets_the_denominator():
    R = RINGS[2]
    half_x = parse_operator("1/2*x1*d1 + 1/3", R)
    assert (half_x.num, half_x.den) == ({(1, 0): {(1, 0): 3}, (0, 0): {(0, 0): 2}}, 6)
    zero = half_x - parse_operator("3/6*x1*d1 + 2/6", R)
    assert (zero.num, zero.den) == ({}, 1)
    # a sum whose surviving numerators share a factor with the denominator
    half = parse_operator("1/6*d1 + 1/6*d2", R) + parse_operator("-1/6*d1 + 1/3*d2", R)
    assert (half.num, half.den) == ({(0, 1): {(0, 0): 1}}, 2)
    # terms kept by derivation_part may share a factor with the denominator
    part = derivation_part(parse_operator("1/2*d1 + 1/3", R))
    assert (part.num, part.den) == ({(1, 0): {(0, 0): 1}}, 2)
    # polynomials keep the same form
    x1 = R.variable(0)
    third = (x1 * Fraction(1, 3) + Fraction(1, 3)) - x1 * Fraction(1, 3)
    assert (third.num, third.den) == ({(0, 0): 1}, 3)
    whole = x1 * Fraction(1, 2) * 2
    assert (whole.num, whole.den) == ({(1, 0): 1}, 1)
    assert ((x1 * Fraction(1, 2)) - (x1 * Fraction(1, 2))).den == 1


def _chain_sum(parts, p):
    """The sum of the parts by a chain of binary sums, ``ref_core_add``
    and ``ref_core_neg``, as ``core_add`` and ``core_neg`` added them."""
    acc = {}, 1
    for num, den, c in parts:
        if c == -1:
            term = ref_core_neg(canonical(num, den), p)
        else:
            term = canonical(ref_scale(num, c, p), den)
        acc = ref_core_add(acc, term, p)
    return acc


def _key_order(core):
    return list(core[0]), [list(f) for f in core[0].values()]


def test_core_sum_matches_a_chain_of_core_add():
    """One accumulator gives the value, the outer and inner key order and
    the untouched inputs of adding the parts one at a time."""
    rng = random.Random(20261019)
    for char in (0, 5):
        ring = make_ring(char, 2)
        for _ in range(60):
            ops = [random_diffop(rng, ring, max_order=2, coeff_degree=2)
                   for _ in range(rng.randint(1, 4))]
            parts = [(op.num, op.den, rng.choice((-1, 1, 3))) for op in ops]
            # a part over a denominator that is not in lowest terms, and
            # parts that cancel a key and bring it back at the end
            if char == 0:
                op = ops[0]
                parts.append((ref_scale(op.num, 2, 0), 2 * op.den, 1))
            first = parts[0]
            parts += [(first[0], first[1], -first[2]), first]
            before = copy.deepcopy(parts)
            got, expected = core_sum(parts, char), _chain_sum(parts, char)
            assert got == expected
            assert _key_order(got) == _key_order(expected)
            assert parts == before
        op = random_diffop(rng, ring, allow_zero=False)
        cancelled = [(op.num, op.den, 1), (op.num, op.den, -1)]
        assert core_sum(cancelled, char) == ({}, 1)
        assert core_sum([], char) == ({}, 1)


def test_difference_matches_adding_the_negation():
    rng = random.Random(20261020)
    for char in (0, 5):
        ring = make_ring(char, 2)
        for _ in range(40):
            a, b = (random_diffop(rng, ring, max_order=2, coeff_degree=2)
                    for _ in range(2))
            got, expected = a - b, a + (-b)
            assert (got.num, got.den) == (expected.num, expected.den)
            assert _key_order((got.num, 1)) == _key_order((expected.num, 1))
            _assert_canonical(got)


def _assert_core(core, p):
    """The canonical form of a core (num, den): nonzero ints (residues
    below p over F_p), no empty coefficient, den > 0 in lowest terms, and
    den == 1 over F_p and for zero."""
    num, den = core
    values = [c for f in num.values() for c in f.values()]
    assert all(num.values())
    assert all(type(c) is int and c and (0 < c < p if p else True) for c in values)
    assert type(den) is int and den > 0 and gcd(den, *values) == 1
    if p or not num:
        assert den == 1


def _cancelling(rng, core, other, p):
    """other plus some of core's terms negated, so that a sum with core
    cancels whole keys and single coefficients."""
    num, den = core
    part = {a: ref_poly_scale(f, -1, p) for a, f in num.items() if rng.random() < 0.5}
    return ref_core_add(canonical(part, den), other, p)


def _same_sum(got, expected, p):
    _assert_core(got, p)
    assert got == expected
    assert _key_order(got) == _key_order(expected)


@pytest.mark.parametrize("p", (0, 2, 3, 5, 1000003))
def test_every_sum_matches_the_binary_sum_oracles(p):
    """Polynomial ``+``/``-``, DiffOp ``+``/``-``/unary ``-``, DiffOp(ring,
    terms) and LevelMatrix ``+`` all add through ``core_sum``; each gives
    the value, the canonical form and the key order at both levels of the
    binary sums in ``conftest``, which add one key at a time."""
    rng = random.Random(20261021 + p)
    for _ in range(30):
        ring = make_ring(p, rng.randint(1, 2))
        zero = (0,) * ring.nvars

        def poly_core(f):
            return ({zero: f.num} if f.num else {}, f.den)

        f = random_poly(rng, ring)
        num, den = _cancelling(rng, poly_core(f), poly_core(random_poly(rng, ring)), p)
        g = Polynomial._core(ring, (num.get(zero, {}), den))
        # a g whose denominator differs from f's
        if not p and rng.random() < 0.5:
            g = g * Fraction(rng.randint(1, 5), rng.randint(1, 7))
        x, y = poly_core(f), poly_core(g)
        _same_sum(poly_core(f + g), ref_core_add(x, y, p), p)
        _same_sum(poly_core(f - g), ref_core_add(x, ref_core_neg(y, p), p), p)

        xi = random_diffop(rng, ring, max_order=2, coeff_degree=2)
        x = xi.num, xi.den
        eta = DiffOp._core(ring, _cancelling(
            rng, x, (lambda op: (op.num, op.den))(random_diffop(rng, ring)), p))
        y = eta.num, eta.den
        for got, expected in (
            (xi + eta, ref_core_add(x, y, p)),
            (xi - eta, ref_core_add(x, ref_core_neg(y, p), p)),
            (-xi, ref_core_neg(x, p)),
        ):
            _same_sum((got.num, got.den), expected, p)
        # the field view back, in a shuffled term order
        terms = list(eta.terms.items())
        rng.shuffle(terms)
        den = lcm(*(c.den for _, c in terms))
        expected = {a: ref_poly_scale(c.num, den // c.den, p) for a, c in terms}, den
        built = DiffOp(ring, dict(terms))
        _same_sum((built.num, built.den), expected, p)

        if p:
            e = 1 if p**ring.nvars <= SIZE_LIMIT else 0
            a = to_matrix(random_level_bounded_op(rng, ring, e), e)
            cells = _cancelling(
                rng, (a.cells, 1), (to_matrix(random_level_bounded_op(rng, ring, e), e).cells, 1),
                p)[0]
            b = LevelMatrix._from_cells(a.basis, cells)
            _same_sum(((a + b).cells, 1), (ref_add(a.cells, b.cells, p), 1), p)
    # a zero coefficient leaves no term behind
    built = DiffOp(ring, {zero: ring.zero(), (1,) * ring.nvars: ring.one()})
    assert (built.num, built.den) == ({(1,) * ring.nvars: {zero: 1}}, 1)


# -- the kernels only ever see ints over Q --------------------------------------


def test_operator_kernels_receive_only_ints_over_q(spy):
    """Operator products, powers, brackets, both transposes, the parser and
    the transport, and operator and polynomial sums, products, powers,
    values of operators and substitutions hand the kernels integer
    numerators only.  Each kernel is watched under every name it is
    imported by, ``core_sum``'s parts (num, den, c) and the accumulator of
    ``mul_add`` included."""
    names = ("diffop_mul", "diffop_bracket", "diffop_transpose", "diffop_apply",
             "core_sum", "poly_mul", "poly_pow", "poly_substitute", "mul_add")

    def ints_only(*values):
        for value in values:
            if isinstance(value, dict):
                ints_only(*value.values())
            elif isinstance(value, (list, tuple)):
                ints_only(*value)
            else:
                assert type(value) is int

    seen = {name: spy(name, K, diffop, opparser, transpose, invariants, check=ints_only)
            for name in names}
    R = RINGS[2]
    F = R.field
    xi = parse_operator("1/2*x1*d1 + 2/3*x2^2*d[0,2] - 5/4", R)
    eta = parse_operator("(3/5*x1 + d2)^3", R)
    twist = [R.from_terms({(1, 0): Fraction(1, 3)}), R.from_terms({(0, 2): 7})]
    standard_transpose(xi * eta)
    bracket(xi, eta)
    twisted_transpose(twist, xi)
    swap = GroupElement(Matrix(F, [[0, 2], ["1/2", 0]]))
    reynolds(FiniteGroup([GroupElement(Matrix.identity(F, 2)), swap]), xi)
    f = R.from_terms({(1, 0): Fraction(1, 2), (0, 2): Fraction(2, 3), (0, 0): 5})
    g = (f * f + f - twist[0]) ** 3
    xi.apply(g)
    apply_ring_map(RingMap.from_matrix(R, [[1, Fraction(1, 3)], [0, 1]]), g)
    act_on_poly(swap, g)
    assert all(seen.values()), {name: len(calls) for name, calls in seen.items()}


def test_powers_start_from_the_base(monkeypatch):
    """x^n by squaring does no product with the constant 1: the cube is
    two products, the square one, the first power none."""
    calls = []
    kernel = K.diffop_mul

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(K, "diffop_mul", counted)
    c = parse_operator("x1*d2 + 1/2*d1", RINGS[2])
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        calls.clear()
        power = c ** n
        assert len(calls) == products
        assert power == _power_oracle(c, n)



def test_one_term_powers_match_a_chain_of_products(monkeypatch):
    """A base c*x^m over den of one term and order 0 takes its closed
    form: the value, den and key order of e products with core_mul, in
    every characteristic, and no kernel product."""
    zero = (0, 0)
    one = {zero: {zero: 1}}, 1
    for p in (0, 2, 3, 5, 1000003):
        bases = []
        for c in (Fraction(1), Fraction(-1), Fraction(-3, 4), Fraction(5, 7),
                  Fraction(10**30 + 7), Fraction(-(10**30 + 7), 3**40)):
            num, den = c.numerator, c.denominator
            if p:
                if not num % p or not den % p:
                    continue
                num, den = num * pow(den, -1, p) % p, 1
            bases += [({zero: {m: num}}, den) for m in (zero, (1, 0), (2, 3))]
        for base in bases:
            chain = [one]
            for _ in range(6):
                chain.append(core_mul(chain[-1], base, p))
            with monkeypatch.context() as m:
                m.setattr(K, "diffop_mul", None)
                for e, want in enumerate(chain):
                    got = core_pow(base, e, p, 2)
                    assert got == want and _key_order(got) == _key_order(want)


def test_one_term_powers_refuse_long_coefficients():
    """Over Q a one-term power whose coefficient or denominator passes
    BINOM_BITS_LIMIT bits is refused before it is built; over F_p, and for
    coefficients +-1, the exponent alone may be as large as it likes."""
    limit = K.BINOM_BITS_LIMIT
    x1 = {(0,): {(1,): 1}}
    for c, den in ((2, 1), (3, 1), (1, 2), (-3, 4)):
        base = {(0,): {(0,): c}}, den
        with pytest.raises(DomainError, match="guardrail"):
            core_pow(base, 10**10, 0, 1)
        for e in (10000, 10400, limit - 1, limit):
            bits = max(abs(c) ** e, den ** e).bit_length()
            if bits > limit:
                with pytest.raises(DomainError, match="guardrail"):
                    core_pow(base, e, 0, 1)
            else:
                assert core_pow(base, e, 0, 1) == ({(0,): {(0,): c ** e}}, den ** e)
    assert core_pow(({(0,): {(0,): 2}}, 1), 10**10, 5, 1) == ({(0,): {(0,): 1}}, 1)
    assert core_pow((x1, 1), 10**4000, 0, 1) == ({(0,): {(10**4000,): 1}}, 1)
    assert core_pow(({(0,): {(1,): -1}}, 1), 10**40 + 1, 0, 1) == (
        {(0,): {(10**40 + 1,): -1}}, 1)
    x = DiffOp.from_poly(RINGS[1].variable(0))
    assert (x * Fraction(3, 2)) ** 1000 == x ** 1000 * Fraction(3**1000, 2**1000)
    with pytest.raises(DomainError, match="guardrail"):
        (x * 2) ** limit

def _power_oracle(c, n):
    out = {(0,) * c.ring.nvars: {(0,) * c.ring.nvars: Fraction(1)}}
    for _ in range(n):
        out = _fraction_mul(out, _view(c))
    return DiffOp(c.ring, {a: c.ring.from_terms(f) for a, f in out.items()})
