"""Order filtration and socle adjoint on monomial quotients."""

import io
import json
import random
from contextlib import redirect_stdout
from functools import cache
from hashlib import sha256
from itertools import product
from math import prod

import pytest

from weylops import (
    ArtinianAlgebra,
    DomainError,
    FieldSpec,
    Matrix,
    order_filtration,
    socle_adjoint,
)
from weylops.artinian import (
    SIZE_LIMIT,
    _one_variable_levels,
    adjoint_table,
    order,
    unvectorize,
    vectorize,
)
from weylops.cli import main
from conftest import (
    graded_piece,
    reference_rref,
    reference_rref_kernel,
    variable_operator,
    verify_order_preservation,
)


def _random_endo(rng, A):
    return Matrix(
        A.field,
        [
            [A.field.coerce(rng.randint(-3, 3)) for _ in range(A.dim)]
            for _ in range(A.dim)
        ],
    )


def _derivative_operator(A, var=0):
    """Truncated formal derivative as a matrix on the basis.

    A perfectly good k-linear endomorphism, but not a differential
    operator of order 1 on the quotient (it does not preserve the ideal).
    """
    F = A.field
    rows = [[F.zero()] * A.dim for _ in range(A.dim)]
    for j, mu in enumerate(A.basis):
        if mu[var] >= 1:
            target = tuple(m - 1 if i == var else m for i, m in enumerate(mu))
            rows[A.index(target)][j] = F.from_int(mu[var])
    return Matrix(F, rows)


def _euler_operator(A, var=0):
    """The operator x*d/dx in one variable; descends to the quotient."""
    F = A.field
    rows = [[F.zero()] * A.dim for _ in range(A.dim)]
    for j, mu in enumerate(A.basis):
        rows[j][j] = F.from_int(mu[var])
    return Matrix(F, rows)


def test_filtration_dims_dual_numbers():
    A = ArtinianAlgebra((2,), FieldSpec(0))
    filt = order_filtration(A)
    assert filt.dims == [2, 3, 4]
    assert filt.stabilized_at == 2


def test_filtration_trivial_algebra():
    A = ArtinianAlgebra((1,), FieldSpec(0))
    filt = order_filtration(A)
    assert filt.dims[0] == 1
    assert all(d == 1 for d in filt.dims)


def test_filtration_starts_at_ring():
    A = ArtinianAlgebra((3,), FieldSpec(0))
    filt = order_filtration(A)
    assert filt.dims[0] == 3


def test_filtration_char2():
    A = ArtinianAlgebra((2, 2), FieldSpec(2))
    filt = order_filtration(A)
    assert filt.dims[0] == 4
    assert filt.dims[-1] == 16
    assert filt.stabilized_at is not None


def test_bracket_is_derivation_in_ring_argument(rng):
    """Commutators against products expand by the product rule, which is
    what justifies bracketing against the variable generators only."""
    A = ArtinianAlgebra((2, 3), FieldSpec(0))
    for _ in range(15):
        xi = _random_endo(rng, A)
        f = A.multiplication_operator(
            {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2)}
        )
        g = A.multiplication_operator(
            {(0, 2): rng.randint(-2, 2), (1, 1): 1}
        )
        lhs = xi * (f * g) - (f * g) * xi
        rhs = (xi * f - f * xi) * g + f * (xi * g - g * xi)
        assert lhs == rhs


def _socle_gram(A, unit):
    """Gram matrix of (f, g) -> socle coefficient of u*f*g, from products
    of basis monomials."""
    socle = tuple(a - 1 for a in A.exponents)
    rows = []
    for mu in A.basis:
        row = []
        for nu in A.basis:
            prod_exp = A.monomial_product(mu, nu)
            row.append(sum(c for lam, c in unit.items() if prod_exp is not None
                           and A.monomial_product(lam, prod_exp) == socle))
        rows.append(row)
    return Matrix(A.field, rows)


def _random_unit(rng, A):
    unit = {mu: rng.randint(-3, 3) for mu in rng.sample(A.basis, min(3, A.dim))}
    F = A.field
    unit[(0,) * A.nvars] = rng.choice(
        [c for c in (1, -1, 2, 4) if not F.is_zero(F.coerce(c))]
    )
    return unit


def test_gorenstein_pairing_is_permutation():
    for exps in ((2,), (4,), (2, 3), (2, 2, 2)):
        A = ArtinianAlgebra(exps, FieldSpec(0))
        assert A.pairing_is_permutation()


def test_gram_is_the_socle_coefficient_pairing():
    for exps in ((1,), (2,), (4,), (2, 3), (3, 2), (2, 2, 2)):
        for char in (0, 2):
            A = ArtinianAlgebra(exps, FieldSpec(char))
            assert A.gram() == _socle_gram(A, {(0,) * A.nvars: 1})


def test_socle_adjoint_is_the_gram_twisted_transpose(rng):
    """The anti-transpose (conjugated by M_u for a unit u) against the
    definition (G xi G^-1)^T with G the Gram matrix of the rescaled pairing."""
    for exps, char in (((4,), 0), ((2, 3), 0), ((2, 3), 5), ((2, 2), 3), ((3, 2), 2)):
        A = ArtinianAlgebra(exps, FieldSpec(char))
        for _ in range(6):
            xi = _random_endo(rng, A)
            for unit in (None, _random_unit(rng, A)):
                g = _socle_gram(A, unit or {(0,) * A.nvars: 1})
                expected = (g * xi * g.inverse()).transpose()
                assert socle_adjoint(A, xi, unit=unit) == expected


def test_socle_adjoint_fixes_multiplications():
    A = ArtinianAlgebra((3,), FieldSpec(0))
    mult_x = variable_operator(A, 0)
    assert socle_adjoint(A, mult_x) == mult_x


def test_socle_adjoint_of_derivative():
    A = ArtinianAlgebra((3,), FieldSpec(0))
    D = _derivative_operator(A)
    adj = socle_adjoint(A, D)
    # determined entrywise by the pairing equations on basis monomials
    F = A.field
    gram = A.gram()
    for i in range(A.dim):
        for j in range(A.dim):
            f = [F.one() if k == i else F.zero() for k in range(A.dim)]
            g = [F.one() if k == j else F.zero() for k in range(A.dim)]
            lhs = _pair(A, gram, _matvec(adj, f), g)
            rhs = _pair(A, gram, f, _matvec(D, g))
            assert lhs == rhs
    expected = Matrix(F, [[0, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert adj == expected


def _matvec(M, vec):
    """The matrix M times the column vector vec, in M's field."""
    F = M.field
    out = []
    for row in M.rows:
        acc = F.zero()
        for a, b in zip(row, vec):
            acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


def _pair(A, gram, u, v):
    F = A.field
    acc = F.zero()
    for i, ui in enumerate(u):
        if F.is_zero(ui):
            continue
        for j, vj in enumerate(v):
            acc = F.add(acc, F.mul(F.mul(ui, gram.rows[i][j]), vj))
    return acc


def test_socle_adjoint_involutive_and_antimultiplicative(rng):
    for char in (0, 2):
        A = ArtinianAlgebra((2, 3), FieldSpec(char))
        for _ in range(10):
            xi = _random_endo(rng, A)
            eta = _random_endo(rng, A)
            assert socle_adjoint(A, socle_adjoint(A, xi)) == xi
            assert socle_adjoint(A, xi * eta) == socle_adjoint(A, eta) * socle_adjoint(A, xi)


def test_socle_adjoint_with_unit_rescaling(rng):
    A = ArtinianAlgebra((4,), FieldSpec(0))
    unit = {(0,): 1, (1,): 2}  # invertible constant term
    for _ in range(8):
        xi = _random_endo(rng, A)
        adj = socle_adjoint(A, xi, unit=unit)
        assert socle_adjoint(A, adj, unit=unit) == xi
        mult_x = variable_operator(A, 0)
        assert socle_adjoint(A, mult_x, unit=unit) == mult_x
    with pytest.raises(DomainError, match="nondegenerate"):
        socle_adjoint(A, xi, unit={(1,): 1})  # no constant term, not a unit


def test_adjoint_depends_on_unit():
    A = ArtinianAlgebra((3,), FieldSpec(0))
    D = _derivative_operator(A)
    assert socle_adjoint(A, D) != socle_adjoint(A, D, unit={(0,): 1, (1,): 1})


def test_socle_adjoint_refuses_a_foreign_endomorphism():
    # a matrix over Q was read as residues mod 5
    A = ArtinianAlgebra((2,), FieldSpec(5))
    with pytest.raises(DomainError) as exc:
        socle_adjoint(A, Matrix(FieldSpec(0), [["1/2", 0], [3, "7/3"]]))
    assert str(exc.value) == "endomorphism field mismatch"
    with pytest.raises(DomainError, match="wrong size"):
        socle_adjoint(A, Matrix.identity(A.field, 3))


def test_order_preservation():
    A = ArtinianAlgebra((4,), FieldSpec(0))
    mult = variable_operator(A, 0)
    assert verify_order_preservation(A, mult, 0)
    assert verify_order_preservation(A, _euler_operator(A), 1)

    A2 = ArtinianAlgebra((2, 2), FieldSpec(0))
    filt = order_filtration(A2)
    rng = random.Random(3)
    piece = graded_piece(filt, 2)
    for vec in piece[:4]:
        xi = unvectorize(A2.field, vec, A2.dim)
        assert verify_order_preservation(A2, xi, 2)
    with pytest.raises(DomainError):
        verify_order_preservation(A, _derivative_operator(A), 0)


def test_filtration_membership_and_products():
    A = ArtinianAlgebra((4,), FieldSpec(0))
    filt = order_filtration(A)
    euler = _euler_operator(A)
    assert filt.contains(euler, 1)
    assert not filt.contains(euler, 0)
    # the truncated formal derivative is not an operator of low order
    assert not filt.contains(_derivative_operator(A), 1)
    # composing graded pieces lands within the summed level
    for n in range(len(filt.dims) - 1):
        for m in range(len(filt.dims) - 1 - n):
            for u in graded_piece(filt, n)[:3]:
                for v in graded_piece(filt, m)[:3]:
                    xi = unvectorize(A.field, u, A.dim)
                    eta = unvectorize(A.field, v, A.dim)
                    assert filt.contains(xi * eta, n + m)


def test_check_on_one_for_socle_adjoint(rng):
    A = ArtinianAlgebra((2, 3), FieldSpec(0))
    one_index = A.index((0, 0))
    for _ in range(8):
        xi = _random_endo(rng, A)
        twice = socle_adjoint(A, socle_adjoint(A, xi))
        assert twice.column(one_index) == xi.column(one_index)
        assert twice == xi


def test_graded_sign_on_graded_pieces():
    for exps in ((4,), (2, 3)):
        A = ArtinianAlgebra(exps, FieldSpec(0))
        filt = order_filtration(A)
        top = len(filt.dims) - 1
        for n in range(top + 1):
            sign = 1 if (n + 1) % 2 == 0 else -1
            for vec in graded_piece(filt, n):
                xi = unvectorize(A.field, vec, A.dim)
                combo = socle_adjoint(A, xi) + xi.scale(sign)
                assert filt.contains(combo, n - 1)


def test_vectorize_round_trip():
    A = ArtinianAlgebra((2, 2), FieldSpec(0))
    m = Matrix(A.field, [[1, 2, 3, 4]] * 4)
    assert unvectorize(A.field, vectorize(m), 4) == m


def _annihilator_of_columns(m):
    """Rows spanning the functionals vanishing on the column span of m, or
    None when the columns span the whole space."""
    left_kernel = m.transpose().nullspace()
    if not left_kernel:
        return None
    return Matrix(m.field, left_kernel)


def _dense_order_filtration(A):
    """The filtration by dense linear algebra: the bracket with each x_i as a
    d^2 x d^2 matrix B, and each level the kernel of ann * B over all B.  B
    is kept as the nonzero entries of each column: the column of the matrix
    unit E_jk is E_jk X - X E_jk, row k of X placed in row j minus column j
    of X placed in column k."""
    F, d = A.field, A.dim
    brackets = []
    for i in range(A.nvars):
        X = variable_operator(A, i).rows
        B = []
        for j in range(d):
            for k in range(d):
                col = {}
                for b in range(d):
                    col[j * d + b] = F.add(col.get(j * d + b, F.zero()), X[k][b])
                for a in range(d):
                    col[a * d + k] = F.add(col.get(a * d + k, F.zero()), -X[a][j])
                B.append([(c, v) for c, v in col.items() if not F.is_zero(v)])
        brackets.append(B)

    def times(row, column):
        acc = F.zero()
        for c, v in column:
            acc = F.add(acc, F.mul(row[c], v))
        return acc

    basis = Matrix.from_columns(
        F, [vectorize(A.multiplication_operator({mu: 1})) for mu in A.basis]
    )
    bases, anns = [basis], [_annihilator_of_columns(basis)]
    for _ in range(2 * d):
        if anns[-1] is None:
            break
        rows = [[times(row, column) for column in B]
                for B in brackets for row in anns[-1].rows]
        bases.append(Matrix.from_columns(F, Matrix(F, rows).nullspace()))
        anns.append(_annihilator_of_columns(bases[-1]))
        if bases[-1].ncols == bases[-2].ncols:
            break
    return bases, anns


@pytest.mark.parametrize(
    "exps, char",
    [((2,), 0), ((2,), 2), ((2,), 5), ((4,), 0), ((4,), 2), ((4,), 5),
     ((2, 3), 0), ((2, 3), 2), ((2, 3), 5), ((2, 2), 3)],
)
def test_filtration_matches_dense_oracle(exps, char):
    A = ArtinianAlgebra(exps, FieldSpec(char))
    filt = order_filtration(A)
    bases, anns = _dense_order_filtration(A)
    assert _spans(filt.bases) == _spans(bases)
    assert filt.dims == [b.ncols for b in bases]
    # membership by brackets agrees with the dense annihilator of each level
    F, rng = A.field, random.Random(f"{exps}:{char}")
    vecs = [v for n in range(len(bases)) for v in graded_piece(filt, n)]
    vecs += [vectorize(_random_endo(rng, A)) for _ in range(6)]
    for vec in vecs:
        xi, support = unvectorize(F, vec, A.dim), [c for c, v in enumerate(vec) if v]
        dense = [ann is None or all(F.is_zero(sum(row[c] * vec[c] for c in support))
                                    for row in ann.rows) for ann in anns]
        assert [filt.contains(xi, n) for n in range(len(anns))] == dense
        assert order(A, xi) == (dense.index(True) if support else -1)


def _bracket_pairs(A: ArtinianAlgebra, i: int):
    """Per vectorized E_{mu,nu}, the coordinates of the two terms of
    E_{mu,nu} x_i - x_i E_{mu,nu} = E_{mu,nu-e_i} - E_{mu+e_i,nu}; a term
    outside the box is absent and gets the padding coordinate d*d.  In the
    lex-ordered box, adding e_i moves a basis index by the stride of x_i."""
    d, top, stride = A.dim, A.exponents[i] - 1, prod(A.exponents[i + 1 :])
    return [
        (j * d + k - stride if nu[i] else d * d,
         (j + stride) * d + k if mu[i] < top else d * d)
        for j, mu in enumerate(A.basis)
        for k, nu in enumerate(A.basis)
    ]


def _eliminated_order_filtration(A):
    """The filtration by one elimination per level on (nvars * rank) x d*d
    rows: the annihilator of level n-1 applied to the brackets with every
    x_i; the free columns of the reduced form give level n and its nonzero
    rows the next annihilator, up to level 2d.  Returns (bases, dims,
    stabilized_at)."""
    F = A.field
    d, p = A.dim, F.characteristic

    columns = [vectorize(A.multiplication_operator({mu: 1})) for mu in A.basis]
    bases = [Matrix.from_columns(F, columns)]
    dims = [d]  # x^mu sends 1 to x^mu, so these operators are independent
    ann = reference_rref_kernel(F, *reference_rref(F, columns))
    zero = F.zero()
    bracket_pairs = [_bracket_pairs(A, i) for i in range(A.nvars)]

    stabilized_at = None
    for n in range(1, 2 * d + 1):
        if not ann:
            stabilized_at = n - 1
            break
        # ann applied to the brackets, one block of rows per variable; the
        # nonzero rows of its reduced form span the next annihilator
        padded = [row + [zero] for row in ann]
        red, pivots = reference_rref(F, [[(r[a] - r[b]) % p if p else r[a] - r[b]
                                          for a, b in pairs]
                                         for pairs in bracket_pairs for r in padded])
        kernel = reference_rref_kernel(F, red, pivots)
        if not kernel:
            raise DomainError("order filtration lost the ring itself")
        bases.append(Matrix.from_columns(F, kernel))
        ann = red[: len(pivots)]
        dims.append(len(kernel))
        if dims[-1] == dims[-2]:
            stabilized_at = n - 1
            break
    return bases, dims, stabilized_at


@cache
def _eliminated(exps, char):
    """``_eliminated_order_filtration`` once per algebra."""
    return _eliminated_order_filtration(ArtinianAlgebra(exps, FieldSpec(char)))


def _spans(bases):
    """Each level's span as the nonzero rows of its reduced row form."""
    out = []
    for b in bases:
        red, pivots = reference_rref(b.field, b.transpose().rows)
        out.append(red[: len(pivots)])
    return out


def _kernel_span_contains(F, kernel):
    """Membership of a vector, given as its nonzero entries {c: v}, in the
    span of a ``reference_rref_kernel`` basis.  Such a basis is reduced in
    reversed column order: each vector's last nonzero entry is a 1 in its
    free column, where every other vector is 0.  So a vector lies in the
    span exactly when it is the sum of its free-column entries times the
    basis vectors (and a yes is a proof either way)."""
    by_free = {}
    for k in kernel:
        entries = [(c, v) for c, v in enumerate(k) if not F.is_zero(v)]
        by_free[entries[-1][0]] = entries

    def contains(vec):
        total = {}
        for fc, a in vec.items():
            for c, v in by_free.get(fc, ()):
                total[c] = F.add(total.get(c, F.zero()), F.mul(a, v))
        return {c: v for c, v in total.items() if not F.is_zero(v)} == vec

    return contains


def _assert_matches_elimination(A):
    """Same levels as the per-level elimination: equal dims, and each
    level's vectors lie in the eliminated level (so the spans are equal);
    every vector of graded piece n has order exactly n."""
    F = A.field
    filt = order_filtration(A)
    bases, dims, stabilized_at = _eliminated(A.exponents, F.characteristic)
    assert (filt.dims, filt.stabilized_at) == (dims, stabilized_at)
    # level 0 is the multiplication operators, in basis order
    assert graded_piece(filt, 0) == [bases[0].column(j) for j in range(A.dim)]
    below = []
    for n in range(len(dims)):
        for vec in graded_piece(filt, n):
            assert order(A, unvectorize(F, vec, A.dim)) == n
            below.append({c: v for c, v in enumerate(vec) if not F.is_zero(v)})
        if n:
            contains = _kernel_span_contains(
                F, [bases[n].column(j) for j in range(bases[n].ncols)])
            assert all(contains(vec) for vec in below)


@pytest.mark.parametrize(
    "exps, char",
    [((3, 3), 0), ((3, 3), 2), ((3, 3), 3), ((3, 3), 5), ((2, 2, 2), 0),
     ((2, 2, 2), 2), ((2, 2, 2), 5), ((2, 4), 2), ((2, 4), 5)],
)
def test_tensor_filtration_matches_elimination(exps, char):
    _assert_matches_elimination(ArtinianAlgebra(exps, FieldSpec(char)))


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_one_variable_blocks_match_elimination(char):
    F = FieldSpec(char)
    for a in range(1, 9):
        _assert_matches_elimination(ArtinianAlgebra((a,), F))
        levels = _one_variable_levels(char, a)
        assert [n for n, _ in levels] == sorted(n for n, _ in levels)
        # each vector lies in one degree block mu - nu
        assert all(len({mu - nu for mu, nu in vec}) == 1 for _, vec in levels)


def test_one_elimination_per_distinct_exponent(spy):
    """A filtration build eliminates each distinct exponent's one-variable
    blocks once, however many variables share it."""
    from weylops import artinian

    calls = spy("_one_variable_levels", artinian)
    for exps, count in (((3, 3), 1), ((2, 2, 2), 1), ((2, 3), 2)):
        for char in (0, 5):
            del calls[:]
            order_filtration(ArtinianAlgebra(exps, FieldSpec(char)))
            assert len(calls) == count


def _greedy_graded_piece(filt, n):
    """Candidates of level n kept when they raise the rank over level n-1
    and the candidates kept before them."""
    lower, upper = filt.bases[n - 1], filt.bases[n]
    F = filt.algebra.field
    current = [lower.column(j) for j in range(lower.ncols)]
    rank, chosen = lower.rank(), []
    for j in range(upper.ncols):
        cand = upper.column(j)
        if Matrix.from_columns(F, current + chosen + [cand]).rank() > rank + len(chosen):
            chosen.append(cand)
    return chosen


def test_graded_piece_matches_greedy_rank_loop():
    for exps, char in (((4,), 0), ((2, 3), 2), ((2, 2), 3)):
        filt = order_filtration(ArtinianAlgebra(exps, FieldSpec(char)))
        for n in range(1, len(filt.bases)):
            assert graded_piece(filt, n) == _greedy_graded_piece(filt, n)


@pytest.mark.parametrize(
    "exps, char, dims",
    [
        ((3, 3), 0, [9, 21, 37, 51, 65, 73, 78, 80, 81]),
        ((3, 3), 5, [9, 21, 37, 51, 65, 73, 78, 80, 81]),
        ((3, 3), 2, [9, 21, 37, 57, 69, 77, 81]),
        ((2, 2, 2), 0, [8, 20, 38, 51, 60, 63, 64]),
        ((2, 2, 2), 5, [8, 20, 38, 51, 60, 63, 64]),
        ((2, 2, 2), 2, [8, 32, 56, 64]),
    ],
)
def test_filtration_dims_pinned_by_the_dense_path(exps, char, dims):
    assert order_filtration(ArtinianAlgebra(exps, FieldSpec(char))).dims == dims


@pytest.mark.parametrize(
    "exps, char, dims, stabilized_at",
    [
        ((4, 4), 0, [16, 40, 73, 107, 144, 176, 206, 226, 240, 248, 253, 255, 256], 12),
        ((4, 4), 2, [16, 48, 96, 160, 208, 240, 256], 6),
        ((2, 2, 2, 2), 0, [16, 48, 104, 160, 209, 237, 251, 255, 256], 8),
        ((2, 2, 2, 2), 2, [16, 80, 176, 240, 256], 4),
    ],
)
def test_largest_filtrations_pinned_by_elimination(exps, char, dims, stabilized_at):
    filt = order_filtration(ArtinianAlgebra(exps, FieldSpec(char)))
    assert (filt.dims, filt.stabilized_at) == (dims, stabilized_at)


def _kron(F, *factors):
    rows = [[F.one()]]
    for m in factors:
        rows = [[F.mul(a, b) for a in ra for b in rb] for ra in rows for rb in m.rows]
    return Matrix(F, rows)


def test_socle_adjoint_of_a_kronecker_product_factorizes(rng):
    """The lex reversal of a product basis reverses each factor, so the
    adjoint of a tensor product is the tensor product of the one-variable
    anti-transposes."""
    for exps, char in (((2, 3), 0), ((3, 2), 5), ((2, 2, 2), 2)):
        F = FieldSpec(char)
        A = ArtinianAlgebra(exps, F)
        factors = [ArtinianAlgebra((a,), F) for a in exps]
        for _ in range(4):
            ms = [_random_endo(rng, B) for B in factors]
            assert socle_adjoint(A, _kron(F, *ms)) == _kron(
                F, *(socle_adjoint(B, m) for B, m in zip(factors, ms)))


def test_size_limit_checked_before_work():
    with pytest.raises(DomainError, match="guardrail"):
        order_filtration(ArtinianAlgebra((17,), FieldSpec(0)))
    with pytest.raises(DomainError, match="guardrail"):
        ArtinianAlgebra((10**9,), FieldSpec(5))
    # d = 16 is the largest accepted size
    assert ArtinianAlgebra((4, 4), FieldSpec(5)).dim == 16


def test_membership_past_a_truncated_chain():
    """The truncated derivative on k[x]/(x^4) has order 4; membership in
    the full chain, whose top is level 6, answers at and around it."""
    A = ArtinianAlgebra((4,), FieldSpec(0))
    D = _derivative_operator(A)
    filt = order_filtration(A)
    assert len(filt.bases) == 7 and filt.stabilized_at == 6
    assert order(A, D) == 4
    assert filt.contains(D, 4)
    assert filt.contains(D, 5)
    assert not filt.contains(D, 3)


def test_order_reads_fractions_at_their_value():
    """Over Q the walk scales xi by one lcm of its denominators: half the
    Euler operator x*d/dx on k[x]/(x^3), diag(0, 1/2, 1), has order 1, and
    its numerators alone, diag(0, 1, 1), order 2."""
    A = ArtinianAlgebra((3,), FieldSpec(0))
    half_euler = Matrix(A.field, [[0, 0, 0], [0, "1/2", 0], [0, 0, 1]])
    assert half_euler.scale(2) == _euler_operator(A)
    assert order(A, half_euler) == 1
    assert order(A, Matrix(A.field, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])) == 2
    assert order_filtration(A).contains(half_euler, 1)


def test_membership_edge_cases():
    A = ArtinianAlgebra((2, 2), FieldSpec(0))
    filt = order_filtration(A)
    zero = A.multiplication_operator({})
    assert filt.contains(zero, -1) and filt.contains(zero, -5)
    assert not filt.contains(variable_operator(A, 1), -1)
    assert filt.contains(variable_operator(A, 1), 0)
    assert order(A, zero) == -1 and order(A, variable_operator(A, 1)) == 0
    with pytest.raises(DomainError, match="wrong size"):
        filt.contains(Matrix(A.field, [[1, 0], [0, 1]]), 2)
    with pytest.raises(DomainError, match="wrong size"):
        filt.contains(Matrix(A.field, [[0] * 5] * 5), -1)
    with pytest.raises(DomainError, match="wrong size"):
        order(A, Matrix(A.field, [[1]]))
    with pytest.raises(DomainError, match="field mismatch"):
        filt.contains(Matrix(FieldSpec(5), [[1] * 4] * 4), 1)


def test_order_preservation_size_limit_checked_before_work():
    A = ArtinianAlgebra((17,), FieldSpec(0))
    with pytest.raises(DomainError, match="guardrail"):
        verify_order_preservation(A, Matrix.identity(A.field, A.dim), 1)
    with pytest.raises(DomainError, match="guardrail"):
        order(A, Matrix.identity(A.field, A.dim))


def test_graded_piece_outside_the_chain():
    """No piece below level 0 or past the top."""
    filt = order_filtration(ArtinianAlgebra((2,), FieldSpec(0)))
    assert (filt.dims, filt.stabilized_at) == ([2, 3, 4], 2)
    assert len(graded_piece(filt, 2)) == 1
    assert graded_piece(filt, 3) == graded_piece(filt, 5) == []
    assert graded_piece(filt, -1) == graded_piece(filt, -3) == []


def _unit_by_unit_adjoint_table(A):
    """The adjoint table column by column: the socle adjoint of each matrix
    unit, vectorized."""
    F, d = A.field, A.dim
    columns = []
    for c in range(d * d):
        vec = [F.zero()] * (d * d)
        vec[c] = F.one()
        columns.append(vectorize(socle_adjoint(A, unvectorize(F, vec, d))))
    return Matrix.from_columns(F, columns)


def test_adjoint_table_matches_unit_by_unit_adjoints():
    # every shape of dimension <= 8 with exponents >= 2, and three with a 1
    shapes = [exps for m in (1, 2, 3) for exps in product(range(2, 9), repeat=m)
              if prod(exps) <= 8]
    for exps in shapes + [(1,), (1, 4), (2, 1, 3)]:
        for char in (0, 5):
            A = ArtinianAlgebra(exps, FieldSpec(char))
            assert adjoint_table(A) == _unit_by_unit_adjoint_table(A), (exps, char)
    A = ArtinianAlgebra((4, 4), FieldSpec(0))
    assert adjoint_table(A) == _unit_by_unit_adjoint_table(A)


def test_adjoint_table_size_limit_checked_before_work():
    A = ArtinianAlgebra((17,), FieldSpec(0))
    assert A.dim**2 > SIZE_LIMIT
    with pytest.raises(DomainError, match="guardrail"):
        adjoint_table(A)


def test_cli_json_prints_the_adjoint_table():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--json", "--char", "5", "artinian", "--exponents", "2,3"])
    assert code == 0
    table = _unit_by_unit_adjoint_table(ArtinianAlgebra((2, 3), FieldSpec(5)))
    assert json.loads(out.getvalue())["adjoint"] == [[str(v) for v in row]
                                                     for row in table.rows]


@pytest.mark.parametrize("exps, char", [((3, 3), 5), ((2, 2, 2), 0), ((2, 2, 2, 2), 2)])
def test_order_is_the_first_eliminated_level_containing(exps, char):
    """order(A, xi) against the per-level elimination, on seeded sparse
    matrices and on combinations of a few of each eliminated level's basis
    vectors."""
    A = ArtinianAlgebra(exps, FieldSpec(char))
    F, d = A.field, A.dim
    bases, dims, _ = _eliminated(exps, char)
    contains = [None] + [
        _kernel_span_contains(F, [b.column(j) for j in range(b.ncols)]) for b in bases[1:]]
    rng = random.Random(f"order:{exps}:{char}")
    vecs = []
    for density in (1.5 / d, 3.0 / d, 0.3):
        vecs += [[F.coerce(rng.randint(-3, 3)) if rng.random() < density else F.zero()
                  for _ in range(d * d)] for _ in range(2)]
    for b in bases:
        for _ in range(2):
            picks = rng.sample(range(b.ncols), min(3, b.ncols))
            weights = [rng.randint(1, 3) for _ in picks]
            vecs.append([sum(w * row[j] for w, j in zip(weights, picks)) for row in b.rows])
    for vec in vecs:
        xi = unvectorize(F, [F.coerce(v) for v in vec], d)
        entries = {c: v for c, v in enumerate(vectorize(xi)) if not F.is_zero(v)}
        if not entries:
            expected = -1
        elif xi == A.multiplication_operator(
                {mu: xi.rows[A.index(mu)][0] for mu in A.basis}):
            expected = 0  # level 0: multiplication by the image of 1
        else:
            expected = next(n for n in range(1, len(dims)) if contains[n](entries))
        assert order(A, xi) == expected


def test_filtration_answers_pinned():
    """The graded pieces, ``bases`` and one-variable vectors, as the str of
    each value, hash to what the elimination on field values gave before
    it moved onto ints."""
    digest = sha256()
    for exps in ((1,), (4,), (5,), (2, 3), (3, 2), (3, 3), (2, 2, 2)):
        for p in (0, 2, 3, 5):
            F = FieldSpec(p)
            filt = order_filtration(ArtinianAlgebra(exps, F))
            digest.update(repr([[[str(v) for v in vec] for vec in piece]
                                for piece in filt._pieces]).encode())
            digest.update(repr([[[str(v) for v in row] for row in b.rows]
                                for b in filt.bases]).encode())
            for a in exps:
                digest.update(repr([(n, [(k, str(v)) for k, v in vec.items()])
                                    for n, vec in _one_variable_levels(p, a)]).encode())
    assert digest.hexdigest() == (
        "753bba11205ebb61937f1aeb1d66fd5c2569ea19ab024d7f89cdc264ffc92c81")


@pytest.mark.parametrize("char", [0, 2, 5])
def test_build_and_membership_do_no_field_arithmetic(char, monkeypatch):
    """The filtration, membership and the order run on ints: no call of
    ``FieldSpec.add``, ``mul``, ``is_zero``, ``from_int`` or ``coerce``."""
    A = ArtinianAlgebra((2, 3), FieldSpec(char))
    xis = [_random_endo(random.Random(char), A) for _ in range(4)]
    xis.append(Matrix(A.field, [["1/3" if j == k + 1 else 0 for j in range(A.dim)]
                                for k in range(A.dim)]))
    expected = [(order(A, xi), order_filtration(A).contains(xi, 2)) for xi in xis]
    calls = []
    for name in ("add", "mul", "is_zero", "from_int", "coerce"):
        monkeypatch.setattr(FieldSpec, name, lambda self, *args, name=name: calls.append(name))
    filt = order_filtration(A)
    assert [(order(A, xi), filt.contains(xi, 2)) for xi in xis] == expected
    assert calls == []
