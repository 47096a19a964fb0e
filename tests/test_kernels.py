"""The term kernels against naive references written here from the definitions.

The references apply d^[alpha] to x^beta as C(beta, alpha) x^(beta-alpha)
with ``math.comb`` and check operator products by composition: an operator
whose support has total degree at most m is determined by its values on the
monomials of total degree at most m (the system is triangular), so agreeing
there is agreeing everywhere.  Products of residues of the two largest
primes overflow 64-bit integers; 1000003 is the largest prime the benchmark
runs.

The row kernels ``diffop_mul`` and ``diffop_transpose`` are also checked for
exact equality against the per-gamma loops they replaced, kept here as
references: one ``partial_apply`` of the coefficient per gamma in the box,
reduced after every product and sum.  The process-wide row table they
share is checked for its bounds and for never keeping a refusal.  The
callers of the one product loop ``mul_add`` and of the one-part
``core_sum`` are checked, key order included, against the loops they
replaced, kept here.
"""

import math
import operator
import random
from fractions import Fraction
from itertools import product

import pytest

import weylops._kernels as K
from weylops import DiffOp, DomainError
from weylops.levelmatrix import SIZE_LIMIT, to_matrix
from weylops.poly import canonical as poly_canonical
from conftest import make_ring, random_diffop, random_level_bounded_op, random_poly
from conftest import ref_poly_neg, ref_poly_scale

PRIMES = (0, 2, 3, 5, 1000003, 4294967311, 2**61 - 1)


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


def _per_gamma_mul(xi, eta, p):
    """diffop_mul as one partial_apply, poly_mul and scaling per gamma in
    the box, each added into its term as ``_ref_add`` adds (the work bound
    left out)."""
    out = {}
    terms = [(beta, g, [max(c) + 1 for c in zip(*g)]) for beta, g in eta.items()]
    for alpha, f in xi.items():
        for beta, g, g_ends in terms:
            ends = [min(a + 1, e) for a, e in zip(alpha, g_ends)]
            for gamma in product(*map(range, ends)):
                dg = K.partial_apply(gamma, g, p)
                if not dg:
                    continue
                delta = tuple(a - c for a, c in zip(alpha, gamma))
                target = tuple(d + b for d, b in zip(delta, beta))
                factor = K.binom_product(target, delta, p)
                if not factor:
                    continue
                contrib = ref_poly_scale(K.poly_mul(f, dg, p), factor, p)
                out[target] = _ref_add(out.get(target, {}), contrib, p)
    return {exp: coeff for exp, coeff in out.items() if coeff}


def _per_gamma_transpose(xi, p):
    """diffop_transpose as one partial_apply and negation per gamma in the
    box, each added into its term as ``_ref_add`` adds (the work bound left
    out)."""
    out = {}
    for alpha, f in xi.items():
        ends = [min(a + 1, max(c) + 1) for a, c in zip(alpha, zip(*f))]
        for gamma in product(*map(range, ends)):
            df = K.partial_apply(gamma, f, p)
            if sum(alpha) % 2:
                df = ref_poly_neg(df, p)
            target = tuple(a - c for a, c in zip(alpha, gamma))
            out[target] = _ref_add(out.get(target, {}), df, p)
    return {exp: coeff for exp, coeff in out.items() if coeff}


def _wide_exponent(rng, p, wide):
    """An exponent below 4, or for wide=True possibly one of p-1, p, p+1, p+2,
    2p+1, whose base-p digits make Lucas zeros (char 0 takes 7 or 12)."""
    if not wide or rng.random() < 0.5:
        return rng.randint(0, 3)
    return rng.choice([7, 12] if p == 0 else [p - 1, p, p + 1, p + 2, 2 * p + 1])


def _wide_op(rng, n, p, wide_orders, wide_coeffs):
    out = {}
    for _ in range(rng.randint(1, 3)):
        alpha = tuple(_wide_exponent(rng, p, wide_orders) for _ in range(n))
        poly = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(_wide_exponent(rng, p, wide_coeffs) for _ in range(n))
            c = rng.randrange(1, p) if p else rng.choice([-3, -1, 1, 2, 5])
            poly[exp] = (poly.get(exp, 0) + c) % p if p else poly.get(exp, 0) + c
        out[alpha] = {e: c for e, c in poly.items() if c} or {(0,) * n: 1}
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_row_kernels_match_per_gamma_loops(p):
    """Exponents at and past p give binomials that vanish by Lucas' theorem,
    in the coefficient's rows and in the composition factor.  The box is
    min(alpha_i, top_i(g)) + 1 per variable, so for the large primes the
    wide exponents go either into the left orders or into the right
    coefficients, never both."""
    rng = random.Random(490 + p)
    small_p = p <= 5
    for i in range(30):
        n = rng.randint(1, 2 if small_p else 3)
        wide_left = small_p or i % 2 == 0
        xi = _wide_op(rng, n, p, wide_orders=wide_left, wide_coeffs=True)
        eta = _wide_op(rng, n, p, wide_orders=True,
                       wide_coeffs=small_p or not wide_left)
        assert K.diffop_mul(xi, eta, p) == _per_gamma_mul(xi, eta, p)
        one_sided = _wide_op(rng, n, p, wide_orders=wide_left,
                             wide_coeffs=small_p or not wide_left)
        assert K.diffop_transpose(one_sided, p) == _per_gamma_transpose(one_sided, p)


def test_row_kernels_past_the_binomial_guardrail():
    """Exponents past BINOM_BITS_LIMIT: characteristic 5 answers by Lucas'
    theorem as the per-gamma loops do, and characteristic 0 refuses."""
    big = 10**8
    square = ({(big,): {(0,): 1}}, {(big,): {(0,): 1}})  # C(2*big, big) d^[2*big]
    coeff = {(2000,): {(20000,): 1, (3,): 2}}  # C(20000, k) for k <= 2000
    assert K.diffop_mul(*square, 5) == _per_gamma_mul(*square, 5) == {(2 * big,): {(0,): 4}}
    assert K.diffop_transpose(coeff, 5) == _per_gamma_transpose(coeff, 5)
    for run in (lambda: K.diffop_mul(*square, 0), lambda: K.diffop_transpose(coeff, 0)):
        with pytest.raises(DomainError, match="may exceed the guardrail"):
            run()
    # C(1200000, 600000) = 0 mod 1000003, so the first row is empty and the
    # monomial ends before C(20000, k) for k up to 2000 (refused past 1092)
    lucas_zero = ({(600000, 2000): {(0, 0): 1}}, {(600000, 0): {(0, 20000): 1}})
    assert K.diffop_mul(*lucas_zero, 1000003) == {}


def test_row_table_keeps_short_rows_as_tuples(monkeypatch):
    """Rows are tuples of (exponent, exponent, factor) tuples, shared by
    later calls; long rows and rows of large exponents are built for each
    use and never kept, and the table never holds more than its size."""
    monkeypatch.setattr(K, "_ROWS", {})
    xi = {(2, 1): {(3, 0): 1, (0, 2): 2}, (0, 0): {(1, 1): 3}}
    eta = {(1, 3): {(2, 2): 4}, (2, 0): {(0, 0): 1}}
    first = K.diffop_mul(xi, eta, 0)
    assert K._ROWS
    for key, row in K._ROWS.items():
        m, a, b, _ = key
        assert type(row) is tuple and all(type(e) is tuple for e in row)
        assert row == K._mul_row(*key)
        assert len(row) <= K.ROW_KEEP_LEN and m + a + b < K.ROW_KEEP_EXPONENT
    kept = dict(K._ROWS)
    assert K.diffop_mul(xi, eta, 0) == first and K._ROWS == kept
    # a row of 21 entries, and one of large exponents, are not kept
    long = {(20,): {(20,): 1}}
    assert K.diffop_transpose(long, 0) == _per_gamma_transpose(long, 0)
    assert (20, 20, 0, 0) not in K._ROWS
    assert K.diffop_mul({(1,): {(0,): 1}}, {(70,): {(3,): 1}}, 7) == {
        (71,): {(3,): 1}, (70,): {(2,): 3}}
    assert (3, 1, 70, 7) not in K._ROWS
    # a full table is emptied before the next row goes in
    monkeypatch.setattr(K, "ROW_TABLE_SIZE", 3)
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice((0, 2, 5))
        a, b = _rand_op(rng, 2, p), _rand_op(rng, 2, p)
        assert K.diffop_mul(a, b, p) == _per_gamma_mul(a, b, p)
        assert len(K._ROWS) <= 3


def test_row_table_keeps_no_refusal():
    """A row whose binomial is refused is not stored, so the next call
    refuses again, in the product, the commutator and the transposition."""
    big, huge = 10**8, 2**8200
    square = {(big,): {(0,): 1}}
    coeff = {(2,): {(huge,): 1}}  # C(huge, 2) is refused, C(huge, 1) is not
    runs = (lambda: K.diffop_mul(square, square, 0),
            lambda: K.diffop_bracket(square, {(0,): {(1,): 1}, **square}, 0),
            lambda: K.diffop_transpose(coeff, 0))
    for run in runs:
        for _ in range(2):
            with pytest.raises(DomainError, match="may exceed the guardrail"):
                run()
    assert not any(big in key or huge in key for key in K._ROWS)


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
    assert K.core_sum([({(0,): a}, 1, 1), ({(0,): b}, 1, 1)], p) == ({}, 1)
    # (x + 2)(2x + 1) = 2x^2 + 5x + 2 = 2x^2 + 2x + 2 mod 3
    assert K.poly_mul(a, b, p) == {(2,): 2, (1,): 2, (0,): 2}
    assert all(K.poly_mul(a, b, p).values())
    negated, _ = K.core_sum([({(0,): a}, 1, -1)], p)
    assert negated == {(0,): {(1,): 2, (0,): 1}}


def test_work_bound_counts_before_the_work(monkeypatch):
    """Each kernel refuses once its count of coefficient products passes
    WORK_LIMIT, and answers at the limit itself."""
    f = {(0,): 1, (1,): 2}
    g = {(0,): 1, (1,): 1, (2,): 1}
    cases = (
        # |f|*|g|*min(3+1, 2+1) for the pair at alpha = 3, |f|*|g| at alpha = 0
        (lambda: K.diffop_mul({(3,): f, (0,): f}, {(1,): g}, 5), 2 * 3 * 3 + 2 * 3),
        # |g|*min(3+1, 2+1) for the one term
        (lambda: K.diffop_transpose({(3,): g}, 5), 3 * 3),
        # (x+1)^4: the squarings (x+1)*(x+1) and (x+1)^2*(x+1)^2
        (lambda: K.poly_pow({(1,): 1, (0,): 1}, 4, 0), 3 * 3),
        # x*y under x -> x + y, y -> x + 1 + y: the product of the two images
        (lambda: K.poly_substitute({(1, 1): 1}, [{(1, 0): 1, (0, 1): 1},
                                                 {(1, 0): 1, (0, 0): 1, (0, 1): 1}],
                                   0, {}), 2 * 3),
    )
    for run, work in cases:
        expected = run()
        monkeypatch.setattr(K, "WORK_LIMIT", work)
        assert run() == expected
        monkeypatch.setattr(K, "WORK_LIMIT", work - 1)
        with pytest.raises(DomainError, match="guardrail"):
            run()
        monkeypatch.undo()


def test_one_term_powers_in_closed_form():
    """A one-term base c*x^m goes to c^e*x^(e*m) with no product, as e - 1
    products give it; over Q an int c^e past BINOM_BITS_LIMIT bits is
    refused before it is built (a Fraction, from the oracle, is not sized),
    and a substitution through such an image is refused with it."""
    rng = random.Random(7)
    for p in PRIMES:
        for _ in range(20):
            n = rng.randint(1, 3)
            a = _rand_poly(rng, n, p, terms=1) or {(0,) * n: 1}
            a = dict([next(iter(a.items()))])
            chain = a
            for e in range(1, 7):
                assert K.poly_pow(a, e, p) == chain
                chain = _ref_mul(chain, a, p)
    limit = K.BINOM_BITS_LIMIT
    assert K.poly_pow({(1,): 2}, limit - 1, 0) == {(limit - 1,): 2 ** (limit - 1)}
    assert K.poly_pow({(1,): Fraction(1, 2)}, limit, 0) == {(limit,): Fraction(1, 2**limit)}
    assert K.poly_pow({(1,): 2}, 10**12, 5) == {(10**12,): pow(2, 10**12, 5)}
    for e in (limit, 10**12):
        with pytest.raises(DomainError, match="guardrail"):
            K.poly_pow({(1,): -2}, e, 0)
        with pytest.raises(DomainError, match="guardrail"):
            K.poly_substitute({(e, 0): 1}, [{(0, 1): 4}, {(1, 0): 1}], 0, {})


def _old_pair_into(acc, a, b):
    """The unreduced product loop as ``poly_mul`` and the level-matrix
    product wrote it inline."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(map(operator.add, ea, eb))
            acc[exp] = acc.get(exp, 0) + ca * cb


def _old_poly_mul(a, b, p):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    _old_pair_into(out, a, b)
    return K._reduced_poly(out, p)


def _old_poly_neg(a, p):
    if p:
        return {exp: (-c) % p for exp, c in a.items()}
    return {exp: -c for exp, c in a.items()}


def _old_poly_scale(a, c, p):
    if p:
        return K._reduced_poly({exp: v * c for exp, v in a.items()}, p)
    return {exp: v * c for exp, v in a.items()} if c else {}


def _old_diffop_apply(xi, f, p):
    out = {}
    for alpha, coeff in xi.items():
        for d, c in K.partial_apply(alpha, f, p).items():
            for e, cf in coeff.items():
                e = tuple(map(operator.add, e, d))
                out[e] = out.get(e, 0) + cf * c
    return K._reduced_poly(out, p)


def _old_order0_mul(f, eta, p):
    """f*d^[0] times eta, as ``_mul_into``'s alpha = 0 branch looped."""
    out = {}
    for beta, g in eta.items():
        acc = out.setdefault(beta, {})
        for m, c in g.items():
            for e, cf in f.items():
                e = tuple(map(operator.add, e, m))
                acc[e] = acc.get(e, 0) + cf * c
    return K._reduced(out, p)


def _old_bracket(xi, eta, p):
    out = {}
    K._mul_into(out, xi, eta, p, True)
    K._mul_into(out, eta, {a: _old_poly_neg(f, p) for a, f in xi.items()}, p, True)
    return K._reduced(out, p)


def _old_level_mul(x, y, p):
    right = {}
    for (k, c), b in y.cells.items():
        right.setdefault(k, []).append((c, b))
    out = {}
    for (i, k), a in x.cells.items():
        for c, b in right.get(k, ()):
            acc = out.get((i, c))
            if acc is None:
                acc = out[i, c] = {}
            _old_pair_into(acc, a, b)
    return K._reduced(out, p)


def _layout(d):
    """A dict with its key order, nested coefficient dicts included."""
    return [(k, _layout(v) if isinstance(v, dict) else v) for k, v in d.items()]


@pytest.mark.parametrize("p", (0, 2, 3, 5, 1000003))
def test_one_product_loop_and_one_sum_keep_every_key_order(p):
    """``mul_add`` and the one-part ``core_sum`` give what the loops they
    replaced gave, value, denominator and key order: polynomial negation
    and scalar products, ``poly_mul``, ``diffop_apply``, a left factor of
    order 0, ``diffop_bracket`` and the level-matrix product."""
    rng = random.Random(2500 + p)
    scalars = (0, 1, -1, 7, 12, p or 9, Fraction(-4, 7), 10**30 + 1)
    for _ in range(30):
        R = make_ring(p, rng.randint(1, 3))
        zero = (0,) * R.nvars
        f, g = (random_poly(rng, R, max_degree=4, max_terms=5) for _ in range(2))
        xi, eta = (random_diffop(rng, R, max_order=3) for _ in range(2))
        neg = -f
        assert (_layout(neg.num), neg.den) == (_layout(_old_poly_neg(f.num, p)), f.den)
        for c in scalars:
            c = R.field.coerce(c)
            scaled = f * c
            if p:
                old = _old_poly_scale(f.num, c, p), 1
            else:
                old = poly_canonical(_old_poly_scale(f.num, c.numerator, 0),
                                     f.den * c.denominator)
            assert (_layout(scaled.num), scaled.den) == (_layout(old[0]), old[1])
            assert _layout((c * f).num) == _layout(old[0])
        for a, b in ((f.num, g.num), (g.num, f.num), (f.num, f.num)):
            assert _layout(K.poly_mul(a, b, p)) == _layout(_old_poly_mul(a, b, p))
        assert _layout(K.diffop_apply(xi.num, f.num, p)) == _layout(
            _old_diffop_apply(xi.num, f.num, p))
        if f.num:
            assert _layout(K.diffop_mul({zero: f.num}, eta.num, p)) == _layout(
                _old_order0_mul(f.num, eta.num, p))
        assert _layout(K.diffop_bracket(xi.num, eta.num, p)) == _layout(
            _old_bracket(xi.num, eta.num, p))
    if not p:
        return
    for e, n in ((0, 2), (1, 1), (1, 2), (2, 1)):
        R = make_ring(p, n)
        if p ** (e * n) > SIZE_LIMIT:
            continue
        for _ in range(5):
            x, y = (to_matrix(random_level_bounded_op(rng, R, e, max_terms=4), e)
                    for _ in range(2))
            assert _layout((x * y).cells) == _layout(_old_level_mul(x, y, p))


def test_every_unreduced_polynomial_product_goes_through_mul_add(spy):
    """``poly_mul``, ``diffop_apply``, a left term of order 0 in
    ``diffop_mul`` and the level-matrix product each add their products
    through ``mul_add``, the general Leibniz terms do not."""
    p = 3
    f, g = {(1, 0): 1, (0, 2): 2}, {(0, 1): 1, (0, 0): 2}
    calls = spy("mul_add", K)
    for run, count in (
            (lambda: K.poly_mul(f, g, p), 1),
            (lambda: K.diffop_apply({(0, 0): g, (1, 0): f}, f, p), 2),
            (lambda: K.diffop_mul({(0, 0): f}, {(0, 0): g, (1, 1): f}, p), 2),
            (lambda: K.diffop_mul({(1, 0): f}, {(0, 0): g}, p), 0),
            (lambda: K.diffop_bracket({(0, 0): f}, {(1, 0): g}, p), 0)):
        calls.clear()
        run()
        assert len(calls) == count
    x = to_matrix(DiffOp.basis(make_ring(p, 2), (1, 2)), 1)
    calls.clear()
    x * x
    assert len(calls) == sum(1 for (_, k) in x.cells for (k2, _) in x.cells if k == k2)
