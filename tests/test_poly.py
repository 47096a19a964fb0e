"""Polynomial ring arithmetic, substitution maps, frobenius splitting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylops import DomainError, FieldSpec, PolyRing, RingMap, apply_ring_map
from weylops.linalg import Matrix
from conftest import frobenius_decompose, frobenius_reassemble, make_ring, random_poly


def _naive_mul(f, g):
    """Term-by-term product oracle, independent of the kernels."""
    ring = f.ring
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            exp = tuple(a + b for a, b in zip(ea, eb))
            out[exp] = ring.field.add(out.get(exp, ring.field.zero()),
                                      ring.field.mul(ca, cb))
    return ring.from_terms(out)


def test_ring_construction_validation():
    with pytest.raises(DomainError):
        PolyRing(FieldSpec(0), 0)
    with pytest.raises(DomainError):
        PolyRing(FieldSpec(0), 2, ("x", "x"))


def test_freshman_dream_char2():
    R = make_ring(2, 2)
    x, y = R.gens()
    assert (x + y) ** 2 == x**2 + y**2
    expansion = _naive_mul(x + y, x + y)
    assert expansion == x**2 + y**2


def test_difference_of_squares_char0():
    R = make_ring(0, 1)
    x = R.variable(0)
    assert (x + 1) * (x - 1) == x**2 - 1


def test_multiplicative_identity():
    R = make_ring(0, 2)
    f = R.from_terms({(1, 0): Fraction(2, 3), (0, 2): -1})
    assert f * R.one() == f
    assert f * 1 == f


def test_arithmetic_matches_naive_oracle(rng):
    for char in (0, 2, 3, 5):
        R = make_ring(char, 2)
        for _ in range(60):
            f = random_poly(rng, R)
            g = random_poly(rng, R)
            assert f * g == _naive_mul(f, g)
            assert f + g == R.from_terms(
                {
                    e: R.field.add(f.terms.get(e, R.field.zero()),
                                   g.terms.get(e, R.field.zero()))
                    for e in set(f.terms) | set(g.terms)
                }
            )


def test_ring_mismatch_rejected():
    f = make_ring(0, 1).one()
    g = make_ring(2, 1).one()
    with pytest.raises(DomainError):
        f + g


def test_scalar_mul_and_power():
    R = make_ring(5, 1)
    x = R.variable(0)
    assert (x * 3) + (x * 2) == R.zero()
    assert x**0 == R.one()
    with pytest.raises(DomainError):
        x ** (-1)


def test_ring_map_identity_and_signs():
    R = make_ring(0, 1)
    x = R.variable(0)
    ident = RingMap.identity(R)
    assert apply_ring_map(ident, x**3 + x) == x**3 + x
    flip = RingMap.from_matrix(R, [[-1]])
    assert apply_ring_map(flip, x**2) == x**2
    assert apply_ring_map(flip, x**3) == -(x**3)


def test_ring_map_swap():
    R = make_ring(0, 2)
    x, y = R.gens()
    swap = RingMap.from_matrix(R, [[0, 1], [1, 0]])
    assert apply_ring_map(swap, x * y**2) == x**2 * y


def test_ring_map_is_homomorphism(rng):
    R = make_ring(3, 2)
    x, y = R.gens()
    m = RingMap.from_matrix(R, [[1, 1], [1, 2]])  # x -> x + y, y -> x + 2y
    for _ in range(40):
        f = random_poly(rng, R)
        g = random_poly(rng, R)
        assert m(f * g) == m(f) * m(g)
        assert m(f + g) == m(f) + m(g)
    assert m(R.constant(2)) == R.constant(2)


def test_ring_map_inverse_verified():
    R = make_ring(0, 1)
    x = R.variable(0)
    good = RingMap.from_matrix(R, [[2]], inverse_rows=[[Fraction(1, 2)]])
    assert [good.inverse(v) for v in R.gens()] == [x * Fraction(1, 2)]
    with pytest.raises(DomainError, match="does not invert"):
        RingMap.from_matrix(R, [[2]], inverse_rows=[[1]])
    # without inverse_rows, from_matrix finds the inverse itself
    assert RingMap.from_matrix(R, [[2]]).inverse.rows == [[Fraction(1, 2)]]
    # the transport reads inverse_rows, so they are verified
    R2 = make_ring(3, 2)
    rows = [[1, 1], [0, 1]]
    assert RingMap.from_matrix(R2, rows, inverse_rows=[[1, 2], [0, 1]]).inverse
    for wrong in ([[1, 1], [0, 1]], [[1, 0], [0, 1]], [[2, 2], [0, 2]]):
        with pytest.raises(DomainError, match="does not invert"):
            RingMap.from_matrix(R2, rows, inverse_rows=wrong)


def test_ring_map_from_matrix_images():
    """Column j of the matrix holds the coefficients of the image of x_j,
    as the sum of variables times entries."""
    rng = random.Random(12)
    for char in (0, 2, 5):
        for n in (1, 2, 3):
            R = make_ring(char, n)
            rows = None
            while rows is None or Matrix(R.field, rows).rank() < n:  # invertible
                rows = [[rng.choice((0, 0, 1, -1, 2, Fraction(1, 3)))
                         for _ in range(n)] for _ in range(n)]
            expected = [sum((R.variable(i) * R.field.coerce(rows[i][j]) for i in range(n)),
                            R.zero()) for j in range(n)]
            m = RingMap.from_matrix(R, rows)
            assert [m(v) for v in R.gens()] == expected
    with pytest.raises(DomainError, match="3x3"):
        RingMap.from_matrix(make_ring(0, 3), [[1, 0], [0, 1]])


def test_ring_map_arity_mismatch():
    R = make_ring(0, 2)
    for rows in ([[1], [0]], [[1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(DomainError, match="2x2"):
            RingMap.from_matrix(R, rows)
    # a supplied inverse of another shape is refused with the same message
    for inverse_rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1], [0, 0]],
                         [[1], [0]], [[1, 0], [0]]):
        with pytest.raises(DomainError, match="matrix must be 2x2"):
            RingMap.from_matrix(R, [[1, 0], [0, 1]], inverse_rows=inverse_rows)


def test_ring_map_refuses_a_singular_matrix():
    """A map is an invertible substitution: a singular matrix is refused
    when it is built, in every characteristic."""
    for char, rows in ((0, [[0]]), (0, [[1, 2], [2, 4]]), (2, [[1, 1], [1, 1]]),
                       (3, [[1, 2], [2, 1]])):
        R = make_ring(char, len(rows))
        with pytest.raises(DomainError, match="singular"):
            RingMap.from_matrix(R, rows)


def test_frobenius_decompose_examples():
    R = make_ring(2, 1)
    x = R.variable(0)
    pieces = frobenius_decompose(x**3, 1)
    assert set(pieces) == {(1,)}
    assert pieces[(1,)] == x

    assert frobenius_decompose(R.one(), 1) == {(0,): R.one()}

    R3 = make_ring(3, 2)
    x, y = R3.gens()
    pieces = frobenius_decompose(x**2 * y + y**3, 1)
    assert pieces == {(2, 1): R3.one(), (0, 0): y}


def test_frobenius_requires_char_p():
    R = make_ring(0, 1)
    with pytest.raises(DomainError):
        frobenius_decompose(R.one(), 1)


@st.composite
def ring_with_polys(draw, count=3):
    char = draw(st.sampled_from([0, 2, 5]))
    nvars = draw(st.integers(1, 2))
    ring = make_ring(char, nvars)
    polys = []
    for _ in range(count):
        terms = draw(
            st.dictionaries(
                st.tuples(*(st.integers(0, 3) for _ in range(nvars))),
                st.integers(-4, 4),
                max_size=3,
            )
        )
        polys.append(ring.from_terms(terms))
    return (ring, *polys)


@settings(max_examples=60, deadline=None)
@given(ring_with_polys())
def test_commutative_ring_axioms(data):
    ring, f, g, h = data
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + ring.zero() == f
    assert f * ring.one() == f
    assert (f - f).is_zero()


def test_bad_coefficient_string_rejected():
    R = make_ring(0, 1)
    with pytest.raises(DomainError):
        R.constant("not-a-number")


def test_frobenius_round_trip(rng):
    count = 0
    for p in (2, 3, 5):
        for e in (1, 2):
            R = make_ring(p, rng.randint(1, 2))
            for _ in range(84):
                f = random_poly(rng, R, max_degree=p**e + 3)
                pieces = frobenius_decompose(f, e)
                assert frobenius_reassemble(R, pieces, e) == f
                q = p**e
                for lam in pieces:
                    assert all(0 <= v < q for v in lam)
                count += 1
    assert count >= 500
