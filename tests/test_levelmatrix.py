"""Matrix form of level-bounded operators: round trips, multiplicativity."""

import pytest

import weylops._kernels as K
from weylops import (
    DiffOp,
    DomainError,
    FrobeniusBasis,
    LevelMatrix,
    matrix_mul_consistency,
    standard_transpose,
    to_matrix,
    to_operator,
)
from weylops.artinian import ArtinianAlgebra, socle_adjoint
from weylops.diffop import operator_from_monomial_values
from weylops.linalg import Matrix
from conftest import frobenius_decompose, frobenius_reassemble, make_ring
from conftest import random_diffop, random_level_bounded_op, random_poly


def test_matrix_of_multiplication_by_x():
    R = make_ring(2, 1)
    x = R.variable(0)
    m = to_matrix(DiffOp.from_poly(x), 1)
    assert m.basis.monomials == ((0,), (1,))
    assert m.entries[0][0] == R.zero()
    assert m.entries[0][1] == x  # root x, meaning x squared
    assert m.entries[1][0] == R.one()
    assert m.entries[1][1] == R.zero()


def test_matrix_of_identity_and_derivative():
    R = make_ring(2, 1)
    basis = FrobeniusBasis(R, 1)
    assert to_matrix(DiffOp.constant(R, 1), 1) == LevelMatrix.identity(basis)
    md = to_matrix(DiffOp.partial(R, 0), 1)
    assert md.entries[0][1] == R.one()
    assert sum(1 for row in md.entries for v in row if not v.is_zero()) == 1


def test_round_trip_examples():
    R = make_ring(2, 1)
    x = R.variable(0)
    for op in (DiffOp.from_poly(x), DiffOp.constant(R, 1), DiffOp.partial(R, 0)):
        assert to_operator(to_matrix(op, 1)) == op


def test_level_overflow_rejected():
    R = make_ring(2, 1)
    with pytest.raises(DomainError):
        to_matrix(DiffOp.basis(R, (2,)), 1)
    with pytest.raises(DomainError):
        to_matrix(DiffOp.partial(make_ring(0, 1), 0), 1)


def test_size_guardrail():
    R = make_ring(5, 2)
    with pytest.raises(DomainError):
        FrobeniusBasis(R, 2)  # 5^4 = 625 > 256


def test_round_trip_random(rng):
    count = 0
    for p in (2, 3):
        for e in (1, 2):
            for n in (1, 2):
                if p**(e * n) > 64:
                    continue
                R = make_ring(p, n)
                for _ in range(43):
                    xi = random_level_bounded_op(rng, R, e)
                    m = to_matrix(xi, e)
                    assert to_operator(m) == xi
                    assert to_matrix(to_operator(m), e) == m
                    count += 1
    assert count >= 300


def test_matrix_additive_and_multiplicative(rng):
    for p, e, n in ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2)):
        R = make_ring(p, n)
        for _ in range(8):
            xi = random_level_bounded_op(rng, R, e)
            eta = random_level_bounded_op(rng, R, e)
            assert to_matrix(xi, e) + to_matrix(eta, e) == to_matrix(xi + eta, e)
            assert matrix_mul_consistency(xi, eta, e)


def test_mul_consistency_examples(rng):
    R = make_ring(2, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert matrix_mul_consistency(d, DiffOp.from_poly(x), 1)
    xi = random_level_bounded_op(rng, R, 1)
    assert matrix_mul_consistency(DiffOp.constant(R, 1), xi, 1)
    R9 = make_ring(3, 2)
    a = random_level_bounded_op(rng, R9, 1)
    b = random_level_bounded_op(rng, R9, 1)
    assert matrix_mul_consistency(a, b, 1)


def test_transposition_induces_matrix_antiautomorphism(rng):
    """Mapping a matrix to the matrix of the transposed operator reverses
    products at the matrix level."""
    for p, e, n in ((2, 1, 1), (2, 2, 1), (3, 1, 2)):
        R = make_ring(p, n)
        for _ in range(6):
            xi = random_level_bounded_op(rng, R, e)
            eta = random_level_bounded_op(rng, R, e)

            def image(op):
                return to_matrix(standard_transpose(op), e)

            assert image(xi * eta) == image(eta) * image(xi)
            assert to_operator(image(xi)) == standard_transpose(xi)


def _trace_pairing_shapes(bound):
    """Every (p, n, e) with p in {2, 3, 5}, n <= 3, e >= 1 and p^(e*n) <= bound."""
    return [(p, n, e) for p in (2, 3, 5) for n in (1, 2, 3)
            for e in range(1, 9) if p ** (e * n) <= bound]


def test_transpose_is_the_anti_transpose_of_level_matrices(rng):
    """The trace Phi, the coefficient of x^(q-1) over S^q, pairs x^lam with
    x^(q-1-lam) only, so its Gram matrix on the basis is the anti-diagonal,
    and the standard transposition is the adjoint for Phi(f*g): cell
    (N-1-c, N-1-r) of its level matrix is cell (r, c) of xi's, root entry
    unchanged.  ``to_matrix`` builds its rows apart from
    ``_kernels.diffop_transpose``, so this is an oracle for the Leibniz
    rows in characteristic p."""
    for p, n, e in _trace_pairing_shapes(256):
        R = make_ring(p, n)
        N = p ** (e * n)
        for _ in range(4):
            xi = random_level_bounded_op(rng, R, e)
            cells = to_matrix(xi, e).cells
            assert to_matrix(standard_transpose(xi), e).cells == {
                (N - 1 - c, N - 1 - r): v for (r, c), v in cells.items()}


def test_socle_adjoint_is_the_transpose_on_constant_level_matrices(rng):
    """A constant-coefficient operator of level <= e has a constant level
    matrix, an endomorphism of A = k[x]/(x_1^q, ..., x_n^q) on the same lex
    basis; the socle adjoint on A sends it to the level matrix of the
    standard transposition."""
    for p, n, e in _trace_pairing_shapes(64):
        R = make_ring(p, n)
        q = p ** e
        A = ArtinianAlgebra((q,) * n, R.field)
        zero = (0,) * n

        def constant_matrix(op):
            cells, size = to_matrix(op, e).cells, q ** n
            return Matrix(R.field, [[cells.get((r, c), {}).get(zero, 0) for c in range(size)]
                                    for r in range(size)])

        for _ in range(4):
            xi = DiffOp.from_terms(R, {
                tuple(rng.randrange(q) for _ in range(n)): R.constant(rng.randrange(1, p))
                for _ in range(rng.randint(1, 3))})
            assert socle_adjoint(A, constant_matrix(xi)) == constant_matrix(
                standard_transpose(xi))


def test_round_trip_from_arbitrary_matrix(rng):
    """Any well-formed matrix is the representation of some operator, and
    converting back reproduces it entry for entry."""
    for p, e, n in ((2, 1, 1), (2, 1, 2), (3, 1, 1)):
        R = make_ring(p, n)
        basis = FrobeniusBasis(R, e)
        from conftest import random_poly

        for _ in range(10):
            entries = [
                [random_poly(rng, R, max_degree=2) for _ in range(basis.size)]
                for _ in range(basis.size)
            ]
            m = LevelMatrix(basis, entries)
            xi = to_operator(m)
            assert xi.level() <= e
            assert to_matrix(xi, e) == m


def test_malformed_matrix_rejected():
    R = make_ring(2, 1)
    basis = FrobeniusBasis(R, 1)
    with pytest.raises(DomainError):
        LevelMatrix(basis, [[R.one()]])
    with pytest.raises(DomainError):
        LevelMatrix(basis, [[R.one(), 1], [R.zero(), R.zero()]])


# -- closed forms against the previous generic paths --------------------------

# the (p, e, n) shapes of the benchmark's level-matrix jobs
LEVEL_SHAPES = ((2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 2), (3, 1, 3))


def _dense_to_matrix(xi, e):
    """The previous ``to_matrix``: apply the operator to each basis
    monomial and split the value into its p^e-th-power digits."""
    basis = FrobeniusBasis(xi.ring, e)
    zero, monomials = xi.ring.zero(), basis.monomials
    cols = [frobenius_decompose(xi.apply(xi.ring.monomial(lam)), e)
            for lam in monomials]
    return LevelMatrix(basis, [[col.get(lam_r, zero) for col in cols]
                               for lam_r in monomials])


def _dense_mul(self, other):
    """The previous ``LevelMatrix.__mul__``: every entry product, zeros too."""
    self._check(other)
    zero = self.ring.zero()
    cols = list(zip(*other.entries))
    out = []
    for row in self.entries:
        out_row = []
        for col in cols:
            acc = zero
            for a, b in zip(row, col):
                acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return LevelMatrix(self.basis, out)


def _to_operator_by_solving(m):
    """The previous ``to_operator``: reassemble by powers, then solve the
    triangular system of monomial values."""
    ring, entries = m.ring, m.entries
    q = ring.characteristic**m.e
    values = {}
    for c, lam in enumerate(m.basis.monomials):
        acc = ring.zero()
        for r, lam_r in enumerate(m.basis.monomials):
            g = entries[r][c]
            if not g.is_zero():
                acc = acc + (g**q) * ring.monomial(lam_r)
        values[lam] = acc
    return operator_from_monomial_values(ring, values)


def _random_matrix(rng, basis, density):
    zero = basis.ring.zero()
    return LevelMatrix(basis, [
        [random_poly(rng, basis.ring, max_degree=2, max_terms=1)
         if rng.random() < density else zero for _ in range(basis.size)]
        for _ in range(basis.size)
    ])


@pytest.mark.parametrize("shape", LEVEL_SHAPES)
def test_to_matrix_matches_per_column_values(rng, shape):
    p, e, n = shape
    R = make_ring(p, n)
    ops = [DiffOp.zero(R), DiffOp.constant(R, 1),
           DiffOp.basis(R, (p**e - 1,) * n)]
    ops += [random_level_bounded_op(rng, R, e, max_terms=4) for _ in range(12)]
    # level below e: the digits of the lower level sit inside the box
    ops += [random_level_bounded_op(rng, R, e - 1) for _ in range(4)]
    for xi in ops:
        m = to_matrix(xi, e)
        assert m == _dense_to_matrix(xi, e)
        assert all(m.cells.values())  # zero cells are not stored


def test_entries_round_trip(rng):
    for p, e, n in LEVEL_SHAPES:
        basis = FrobeniusBasis(make_ring(p, n), e)
        for m in (_random_matrix(rng, basis, 0.3),
                  to_matrix(random_level_bounded_op(rng, basis.ring, e), e),
                  LevelMatrix.identity(basis)):
            entries = m.entries
            assert len(entries) == basis.size
            assert all(v.ring == basis.ring for row in entries for v in row)
            assert LevelMatrix(basis, entries) == m
            assert LevelMatrix(basis, entries).entries == entries


def test_sparse_product_matches_dense_product(rng, spy):
    products = []
    for p, e, n in LEVEL_SHAPES:
        basis = FrobeniusBasis(make_ring(p, n), e)
        for density in (0.1, 1.0):
            a = _random_matrix(rng, basis, density)
            b = _random_matrix(rng, basis, density)
            # the pairs of nonzero entries a[i][k], b[k][c], read densely
            size = range(basis.size)
            ea, eb = a.entries, b.entries
            pairs = sum(1 for i in size for k in size for c in size
                        if ea[i][k] and eb[k][c])
            products.append((a, b, _dense_mul(a, b), pairs))

    def nonzero_factors_only(acc, f, g):
        assert f and g, "level matrix product formed a zero factor"

    formed = spy("mul_add", K, check=nonzero_factors_only)
    for a, b, expected, pairs in products:
        formed.clear()
        assert a * b == expected
        assert len(formed) == pairs


@pytest.mark.parametrize("p", (2, 3, 5))
def test_to_operator_matches_solving(rng, p):
    for e, n in ((1, 1), (1, 2), (2, 1)):
        basis = FrobeniusBasis(make_ring(p, n), e)
        if basis.size > 25:
            continue
        for density in (0.2, 0.6):
            m = _random_matrix(rng, basis, density)
            assert to_operator(m) == _to_operator_by_solving(m)


def test_reassembly_matches_powers(rng):
    for p, e, n in ((2, 1, 2), (2, 2, 1), (3, 1, 2), (5, 1, 1)):
        R = make_ring(p, n)
        q = p**e
        for _ in range(10):
            # keys inside the digit box and beyond it, where pieces meet
            pieces = {tuple(rng.randrange(2 * q) for _ in range(n)):
                      random_poly(rng, R, max_degree=3) for _ in range(4)}
            expected = R.zero()
            for lam, g in pieces.items():
                expected = expected + (g**q) * R.monomial(lam)
            assert frobenius_reassemble(R, pieces, e) == expected
