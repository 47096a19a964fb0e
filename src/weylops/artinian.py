"""Differential operators on monomial complete intersection quotients.

For R = k[x]/(x_1^a_1, ..., x_n^a_n) every k-linear endomorphism is a
matrix on the monomial basis, so the order filtration can be computed
directly from its inductive commutator definition, and the socle pairing
(the coefficient of the top monomial x^(a-1) in a product) is a
nondegenerate symmetric form whose adjoint is an involutive
anti-automorphism fixing the multiplication operators.

Bracketing against the variable generators suffices for the filtration
because the commutator is a derivation in the ring argument; that identity
is itself unit-tested rather than assumed silently.  On matrix units the
bracket is an index shift and the socle adjoint an anti-transpose.

The order of one endomorphism needs no filtration: xi has order <= n
exactly when ad_x^beta(xi) = 0 for every |beta| = n+1, and the ad_{x_i}
commute, so :func:`order` and membership shift xi's coordinates one
bracket at a time and visit each beta once.  The filtration itself does
one elimination per level: the annihilator of level 0 is the kernel of
the multiplication operators' coordinate rows, and the nonzero rows of
each level's reduced form are the annihilator carried to the next.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .errors import DomainError
from .field import FieldSpec
from .linalg import Matrix, rref, rref_kernel

# largest algebra dimension d, and largest d*d for the order filtration
SIZE_LIMIT = 256


class ArtinianAlgebra:
    """Monomial complete intersection quotient with its monomial basis.

    The basis is all exponents below the defining powers, in lex order;
    the socle monomial is the componentwise top exponent and the socle
    functional reads off its coefficient.
    """

    __slots__ = ("exponents", "field", "basis", "_index", "dim")

    def __init__(self, exponents, field: FieldSpec):
        exponents = tuple(int(a) for a in exponents)
        if not exponents or any(a < 1 for a in exponents):
            raise DomainError("defining exponents must be naturals >= 1")
        if prod(exponents) > SIZE_LIMIT:
            raise DomainError(f"algebra dimension {prod(exponents)} exceeds "
                              f"the guardrail of {SIZE_LIMIT}")
        self.exponents = exponents
        self.field = field
        self.basis = sorted(product(*(range(a) for a in exponents)))
        self._index = {mu: i for i, mu in enumerate(self.basis)}
        self.dim = len(self.basis)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def index(self, mu) -> int:
        return self._index[tuple(mu)]

    def monomial_product(self, mu, nu):
        """Exponent of the product monomial, or None when it dies."""
        out = tuple(m + n for m, n in zip(mu, nu))
        if all(o < a for o, a in zip(out, self.exponents)):
            return out
        return None

    def multiplication_operator(self, coeffs_by_exponent) -> Matrix:
        """Matrix of multiplication by sum of c * x^mu on the basis."""
        F = self.field
        rows = [[F.zero()] * self.dim for _ in range(self.dim)]
        for mu, c in coeffs_by_exponent.items():
            c = F.coerce(c)
            if F.is_zero(c):
                continue
            for j, nu in enumerate(self.basis):
                target = self.monomial_product(tuple(mu), nu)
                if target is not None:
                    i = self.index(target)
                    rows[i][j] = F.add(rows[i][j], c)
        return Matrix(F, rows)

    def variable_operator(self, i: int) -> Matrix:
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.multiplication_operator({exp: 1})

    def gram(self) -> Matrix:
        """Matrix of the pairing (f, g) -> socle coefficient of f*g.

        mu + nu is the socle exponent s exactly when nu = s - mu, and
        mu -> s - mu reverses the lex order of the basis, so this is the
        anti-diagonal permutation matrix: nondegenerate by construction.
        """
        d = self.dim
        return Matrix(
            self.field,
            [[1 if i + j == d - 1 else 0 for j in range(d)] for i in range(d)],
        )

    def pairing_is_permutation(self) -> bool:
        """Each row and column of the Gram matrix has exactly one nonzero
        (unit) entry; true for every algebra here, by the closed form of
        ``gram``."""
        F = self.field
        g = self.gram()
        return all(sum(not F.is_zero(v) for v in row) == 1
                   for rows in (g.rows, g.transpose().rows) for row in rows)


class OrderFiltration:
    """Computed chain of order-filtration subspaces of the endomorphisms.

    ``bases[n]`` is a matrix whose columns span the n-th space in the
    vectorized (row-major, see :func:`vectorize`) coordinates; ``dims`` are
    their dimensions and ``stabilized_at`` the first n with no growth.
    """

    __slots__ = ("algebra", "bases", "dims", "stabilized_at")

    def __init__(self, algebra, bases, dims, stabilized_at):
        self.algebra = algebra
        self.bases = bases
        self.dims = dims
        self.stabilized_at = stabilized_at

    def contains(self, xi: Matrix, n: int) -> bool:
        """Membership of an endomorphism in the order <= n subspace, for
        any n (below 0 only 0 is contained); brackets stop at depth n+1."""
        return all(m <= n for m in _nonzero_depths(self.algebra, xi, max(n + 1, 0)))

    def graded_piece(self, n: int):
        """Vectors spanning a complement of level n-1 inside level n."""
        if n == 0:
            return [self.bases[0].column(j) for j in range(self.bases[0].ncols)]
        n = min(n, len(self.bases) - 1)
        lower, upper = self.bases[n - 1], self.bases[n]
        # the pivots of [lower | upper] in the upper block are the columns
        # outside the span of all columns before them
        _, pivots = rref(self.algebra.field,
                         [lo + up for lo, up in zip(lower.rows, upper.rows)])
        return [upper.column(c - lower.ncols) for c in pivots if c >= lower.ncols]


def vectorize(m: Matrix):
    """Flatten a matrix row-major into a coordinate vector."""
    return [v for row in m.rows for v in row]


def unvectorize(field: FieldSpec, vec, dim: int) -> Matrix:
    return Matrix(field, [vec[i * dim : (i + 1) * dim] for i in range(dim)])


def _refuse_large(A: ArtinianAlgebra):
    if A.dim**2 > SIZE_LIMIT:
        raise DomainError(f"endomorphism space of dimension {A.dim**2} exceeds "
                          f"the guardrail of {SIZE_LIMIT}")


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


def _nonzero_depths(A: ArtinianAlgebra, xi: Matrix, limit: int):
    """Yield |beta| for each nonzero ad_x^beta(xi) with |beta| <= limit,
    depth first, so a caller that stops at the first depth above n does
    no more brackets than the path there.

    The ad_{x_i} commute, so beta is reached only from beta - e_i with i
    its last variable: a vector bracketed last by x_i is bracketed next by
    x_i and the later variables only, and each beta is visited once.  A
    zero bracket is dropped, since everything above it is zero too.
    """
    d, F = A.dim, A.field
    _refuse_large(A)
    if xi.nrows != d or xi.ncols != d:
        raise DomainError("endomorphism has the wrong size")
    if xi.field != F:
        raise DomainError("endomorphism field mismatch")
    add, sub, zero = F.add, F.sub, F.zero()
    pairs = [_bracket_pairs(A, i) for i in range(A.nvars)]
    vec = {c: v for c, v in enumerate(vectorize(xi)) if v}
    stack = [(0, 0, vec)] if vec else []
    while stack:
        depth, last, vec = stack.pop()
        yield depth
        if depth == limit:
            continue
        for i in range(last, A.nvars):
            out = {}
            for c, v in vec.items():
                a, b = pairs[i][c]
                out[a] = add(out.get(a, zero), v)
                out[b] = sub(out.get(b, zero), v)
            out.pop(d * d, None)
            out = {c: v for c, v in out.items() if v}
            if out:
                stack.append((depth + 1, i, out))


def order(A: ArtinianAlgebra, xi: Matrix) -> int:
    """Order of an endomorphism: the largest |beta| with ad_x^beta(xi) != 0,
    or -1 for xi = 0.  Refuses d*d above the guardrail before any work."""
    # every level of the filtration adds a dimension, so orders are below d*d
    return max(_nonzero_depths(A, xi, A.dim**2), default=-1)


def order_filtration(A: ArtinianAlgebra, n_max: int | None = None) -> OrderFiltration:
    """The increasing chain of order subspaces inside the endomorphisms.

    Level 0 is spanned by the multiplication operators; each further level
    collects the endomorphisms whose commutators with every variable lie
    one level down.  Stops at stabilization or at ``n_max`` (default twice
    the algebra dimension).  Refuses algebras whose d*d endomorphism
    coordinates exceed the guardrail, before building anything.
    """
    F = A.field
    d = A.dim
    _refuse_large(A)
    if n_max is None:
        n_max = 2 * d

    columns = [vectorize(A.multiplication_operator({mu: 1})) for mu in A.basis]
    bases = [Matrix.from_columns(F, columns)]
    dims = [d]  # x^mu sends 1 to x^mu, so these operators are independent
    ann = rref_kernel(F, *rref(F, columns))
    zero = F.zero()
    bracket_pairs = [_bracket_pairs(A, i) for i in range(A.nvars)]

    stabilized_at = None
    for n in range(1, n_max + 1):
        if not ann:
            stabilized_at = n - 1
            break
        # ann applied to the brackets, one block of rows per variable; the
        # nonzero rows of its reduced form span the next annihilator
        padded = [row + [zero] for row in ann]
        red, pivots = rref(F, [[F.sub(r[a], r[b]) for a, b in pairs]
                               for pairs in bracket_pairs for r in padded])
        kernel = rref_kernel(F, red, pivots)
        if not kernel:
            raise DomainError("order filtration lost the ring itself")
        bases.append(Matrix.from_columns(F, kernel))
        ann = red[: len(pivots)]
        dims.append(len(kernel))
        if dims[-1] == dims[-2]:
            stabilized_at = n - 1
            break
    return OrderFiltration(A, bases, dims, stabilized_at)


def socle_adjoint(A: ArtinianAlgebra, xi: Matrix, unit=None) -> Matrix:
    """Adjoint of an endomorphism under the socle pairing.

    Defined by: pairing(adjoint(xi)(f), g) = pairing(f, xi(g)) for all f
    and g, which in matrix form is (G xi G^-1)^T for the Gram matrix G.
    G is the anti-diagonal permutation, so the adjoint is the
    anti-transpose; rescaling the socle functional by a unit u makes
    G = gram * M_u, which conjugates xi by M_u first.  Additive,
    anti-multiplicative, involutive, fixes multiplication operators, and
    preserves every order level.
    """
    d = A.dim
    if xi.nrows != d or xi.ncols != d:
        raise DomainError("endomorphism has the wrong size")
    if unit is not None:
        mult_u = A.multiplication_operator(dict(unit))
        try:
            inv_u = mult_u.inverse()
        except DomainError:
            raise DomainError("unit does not give a nondegenerate pairing") from None
        xi = mult_u * xi * inv_u
    rows, last = xi.rows, d - 1
    return Matrix(A.field, [[rows[last - j][last - i] for j in range(d)]
                            for i in range(d)])


def verify_order_preservation(A: ArtinianAlgebra, xi: Matrix, n: int) -> bool:
    """Check the adjoint of an order <= n operator again has order <= n."""
    if order(A, xi) > n:
        raise DomainError(f"operator is not in the order <= {n} subspace")
    return order(A, socle_adjoint(A, xi)) <= n
