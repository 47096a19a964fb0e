"""Exact elimination against sympy's DomainMatrix over QQ and GF(p)."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import GF, QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from weylops import DomainError, FieldSpec, Matrix
from weylops.linalg import rref

CHARS = (0, 2, 3, 5, 1000003)


def _domain(p):
    return GF(p) if p else QQ


def _from_sympy(p, rows):
    if p:
        return [[GF(p).to_int(v) % p for v in r] for r in rows]
    return [[Fraction(int(v.numerator), int(v.denominator)) for v in r] for r in rows]


def _matrices(rng, p):
    """Seeded small matrices: random, rank-deficient products, and square
    ones made singular by a repeated combination of rows."""
    def entry():
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def rand(r, c):
        return [[entry() for _ in range(c)] for _ in range(r)]

    F = FieldSpec(p)
    out = []
    for _ in range(3):
        out.append(rand(rng.randint(1, 4), rng.randint(1, 5)))
        u, v = rand(1, rng.randint(2, 5))[0], rand(1, rng.randint(2, 5))[0]
        out.append([[F.mul(a, b) for b in v] for a in u])  # rank <= 1
        n = rng.randint(1, 4)
        out.append(rand(n, n))
        square = rand(n + 1, n + 1)
        square[-1] = [F.add(F.mul(2, a), b) for a, b in zip(square[0], square[-2])]
        out.append(square)
    out.append([[0] * 3 for _ in range(2)])
    return out


def _row_space(F, vectors):
    if not vectors:
        return []
    red, pivots = Matrix(F, vectors).rref()
    return red.rows[: len(pivots)]


@pytest.mark.parametrize("p", CHARS)
def test_elimination_matches_sympy(p):
    F, K = FieldSpec(p), _domain(p)
    rng = random.Random(6000 + p)
    for rows in _matrices(rng, p):
        ours = Matrix(F, rows)
        theirs = DomainMatrix([[K.convert(v) for v in r] for r in rows],
                              (ours.nrows, ours.ncols), K)
        red, pivots = ours.rref()
        sred, spivots = theirs.rref()
        assert (red.rows, pivots) == (_from_sympy(p, sred.to_list()), list(spivots))
        assert ours.rank() == theirs.rank()
        kernel = ours.nullspace()
        assert len(kernel) == ours.ncols - theirs.rank()
        assert _row_space(F, kernel) == _row_space(F, _from_sympy(p, theirs.nullspace().to_list()))
        if ours.nrows != ours.ncols:
            continue
        try:
            expected = _from_sympy(p, theirs.inv().to_list())
        except DMNonInvertibleMatrixError:
            with pytest.raises(DomainError):
                ours.inverse()
        else:
            assert ours.inverse().rows == expected


def _assert_int_rref_matches_sympy(p, rows):
    """``rref(p, rows)`` on int rows leaves them unchanged, has den in
    every pivot entry, and rows/den is sympy's reduced form."""
    before = [list(r) for r in rows]
    red, pivots, den = rref(p, rows)
    assert rows == before  # the filtration reuses its input rows
    assert all(row[c] == (den if i == r else 0)
               for r, c in enumerate(pivots) for i, row in enumerate(red))
    K = _domain(p)
    sred, spivots = DomainMatrix([[K.convert(v) for v in r] for r in rows],
                                 (len(rows), len(rows[0])), K).rref()
    ours = [[v % p for v in r] for r in red] if p else [[Fraction(v, den) for v in r] for r in red]
    assert (ours, pivots) == (_from_sympy(p, sred.to_list()), list(spivots))


@pytest.mark.parametrize("p", CHARS)
def test_row_list_elimination_matches_sympy(p):
    """The seeded matrices as int rows: residues, or over Q each row times
    the lcm of its denominators."""
    rng = random.Random(6000 + p)
    for rows in _matrices(rng, p):
        if not p:
            rows = [[v.numerator * (lcm(*(w.denominator for w in r)) // v.denominator)
                     for v in r] for r in rows]
        _assert_int_rref_matches_sympy(p, rows)


def _dense(rng, nrows, ncols):
    """Entries in -3..3 at density 1/2."""
    return [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("p", CHARS)
def test_dense_integer_elimination_matches_sympy(p):
    """Dense n x n matrices at n = 16 and 32, as given and with their last
    row the sum of two others, so the fraction-free divisions run on long
    rows; unreduced and negative ints are read mod p."""
    rng = random.Random(7000 + p)
    for n in (16, 32):
        rows = _dense(rng, n, n)
        _assert_int_rref_matches_sympy(p, rows)
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        _assert_int_rref_matches_sympy(p, rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHARS), st.integers(1, 6), st.integers(1, 6), st.data())
def test_integer_elimination_property(p, nrows, ncols, data):
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    _assert_int_rref_matches_sympy(p, rows)


@pytest.mark.parametrize("p", (0, 5))
def test_arithmetic_results_are_not_coerced_again(p, monkeypatch):
    """Sums, scalings, transposes, column builds, identities, inverses and
    echelon forms wrap rows already in the field; only a scale factor and
    the single reducing pass of a product go through ``coerce``."""
    F = FieldSpec(p)
    a = Matrix(F, [[1, 2], [3, 4]])
    b = Matrix(F, [[0, "1/3"], [-1, 2]])
    calls = []
    coerce = FieldSpec.coerce

    def counted(self, value):
        calls.append(value)
        return coerce(self, value)

    monkeypatch.setattr(FieldSpec, "coerce", counted)
    results = [a + b, a - b, a.transpose(), Matrix.from_columns(F, a.rows),
               Matrix.identity(F, 2), a.inverse(), a.rref()[0]]
    assert calls == [-1]  # the factor of the scaling inside a - b
    results.append(a * b)
    assert len(calls) == 1 + 4  # one reducing pass over the product's cells
    kind = int if p else Fraction
    assert all(type(v) is kind for m in results for row in m.rows for v in row)
    assert a.inverse() * a == Matrix.identity(F, 2)
