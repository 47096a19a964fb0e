"""Differential operators on monomial complete intersection quotients.

For R = k[x]/(x_1^a_1, ..., x_n^a_n) every k-linear endomorphism is a
matrix on the monomial basis, so the order filtration can be computed
directly from its inductive commutator definition, and the socle pairing
(the coefficient of the top monomial x^(a-1) in a product) is a
nondegenerate symmetric form whose adjoint is an involutive
anti-automorphism fixing the multiplication operators.

Bracketing against the variable generators suffices for the filtration
because the commutator is a derivation in the ring argument; that identity
is itself unit-tested rather than assumed silently.
"""

from __future__ import annotations

from itertools import product

from .errors import DomainError
from .field import FieldSpec
from .linalg import Matrix, annihilator_of_columns


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
        self.exponents = exponents
        self.field = field
        self.basis = sorted(product(*(range(a) for a in exponents)))
        self._index = {mu: i for i, mu in enumerate(self.basis)}
        self.dim = len(self.basis)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    @property
    def socle_exponent(self):
        return tuple(a - 1 for a in self.exponents)

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

    def gram(self, unit=None) -> Matrix:
        """Matrix of the pairing (f, g) -> socle coefficient of u*f*g.

        With the default unit this is a permutation matrix (exponents
        pairing to the top one), which certifies nondegeneracy; a general
        unit rescales the socle functional and must keep the form
        invertible.
        """
        F = self.field
        if unit is None:
            rows = [
                [
                    F.one()
                    if tuple(m + n for m, n in zip(mu, nu)) == self.socle_exponent
                    else F.zero()
                    for nu in self.basis
                ]
                for mu in self.basis
            ]
            return Matrix(F, rows)
        mult_u = self.multiplication_operator(dict(unit))
        g = self.gram() * mult_u
        if g.rank() != self.dim:
            raise DomainError("unit does not give a nondegenerate pairing")
        return g

    def pairing_is_permutation(self) -> bool:
        """Each row and column of the default Gram matrix has exactly one
        nonzero (unit) entry."""
        g = self.gram()
        F = self.field
        for rows in (g.rows, g.transpose().rows):
            for row in rows:
                nonzero = [v for v in row if not F.is_zero(v)]
                if len(nonzero) != 1:
                    return False
        return True


class OrderFiltration:
    """Computed chain of order-filtration subspaces of the endomorphisms.

    ``bases[n]`` is a matrix whose columns span the n-th space in the
    vectorized (column-major by matrix column) coordinates; ``dims`` are
    their dimensions and ``stabilized_at`` the first n with no growth.
    """

    __slots__ = ("algebra", "bases", "annihilators", "dims", "stabilized_at")

    def __init__(self, algebra, bases, annihilators, dims, stabilized_at):
        self.algebra = algebra
        self.bases = bases
        self.annihilators = annihilators
        self.dims = dims
        self.stabilized_at = stabilized_at

    def contains(self, xi: Matrix, n: int) -> bool:
        """Membership of an endomorphism in the order <= n subspace."""
        if n < 0:
            return vectorize(xi) == [self.algebra.field.zero()] * (
                self.algebra.dim**2
            )
        n = min(n, len(self.bases) - 1)
        ann = self.annihilators[n]
        if ann is None:
            return True
        F = self.algebra.field
        return all(F.is_zero(v) for v in ann.matvec(vectorize(xi)))

    def graded_piece(self, n: int):
        """Vectors spanning a complement of level n-1 inside level n."""
        if n == 0:
            return [self.bases[0].column(j) for j in range(self.bases[0].ncols)]
        n = min(n, len(self.bases) - 1)
        lower = self.bases[n - 1]
        chosen = []
        rank = lower.rank()
        current = [lower.column(j) for j in range(lower.ncols)]
        for j in range(self.bases[n].ncols):
            cand = self.bases[n].column(j)
            stacked = Matrix.from_columns(
                self.algebra.field, current + chosen + [cand]
            )
            if stacked.rank() > rank + len(chosen):
                chosen.append(cand)
        return chosen


def vectorize(m: Matrix):
    """Flatten a matrix row-major into a coordinate vector."""
    return [v for row in m.rows for v in row]


def unvectorize(field: FieldSpec, vec, dim: int) -> Matrix:
    return Matrix(field, [vec[i * dim : (i + 1) * dim] for i in range(dim)])


def _bracket_map_matrix(A: ArtinianAlgebra, gen: Matrix) -> Matrix:
    """Matrix of xi -> xi*gen - gen*xi on vectorized endomorphisms."""
    F = A.field
    d = A.dim
    cols = []
    for k in range(d * d):
        basis_vec = [F.zero()] * (d * d)
        basis_vec[k] = F.one()
        e = unvectorize(F, basis_vec, d)
        cols.append(vectorize(e * gen - gen * e))
    return Matrix.from_columns(F, cols)


def order_filtration(A: ArtinianAlgebra, n_max: int | None = None) -> OrderFiltration:
    """The increasing chain of order subspaces inside the endomorphisms.

    Level 0 is spanned by the multiplication operators; each further level
    collects the endomorphisms whose commutators with every variable lie
    one level down.  Stops at stabilization or at ``n_max`` (default twice
    the algebra dimension).
    """
    F = A.field
    d = A.dim
    if n_max is None:
        n_max = 2 * d

    mult_basis = Matrix.from_columns(
        F,
        [
            vectorize(A.multiplication_operator({mu: 1}))
            for mu in A.basis
        ],
    )
    bases = [mult_basis]
    annihilators = [annihilator_of_columns(mult_basis)]
    dims = [len(mult_basis.rref()[1])]
    bracket_maps = [
        _bracket_map_matrix(A, A.variable_operator(i)) for i in range(A.nvars)
    ]

    stabilized_at = None
    for n in range(1, n_max + 1):
        ann = annihilators[-1]
        if ann is None:
            stabilized_at = n - 1 if stabilized_at is None else stabilized_at
            break
        constraint_rows = []
        for B in bracket_maps:
            constraint_rows.extend((ann * B).rows)
        kernel = Matrix(F, constraint_rows).nullspace()
        if not kernel:
            raise DomainError("order filtration lost the ring itself")
        basis = Matrix.from_columns(F, kernel)
        bases.append(basis)
        annihilators.append(annihilator_of_columns(basis))
        dims.append(len(kernel))
        if dims[-1] == dims[-2]:
            stabilized_at = n - 1
            break
    return OrderFiltration(A, bases, annihilators, dims, stabilized_at)


def socle_adjoint(A: ArtinianAlgebra, xi: Matrix, unit=None) -> Matrix:
    """Adjoint of an endomorphism under the socle pairing.

    Defined by: pairing(adjoint(xi)(f), g) = pairing(f, xi(g)) for all f
    and g, which in matrix form is the Gram-twisted transpose.  Additive,
    anti-multiplicative, involutive, fixes multiplication operators, and
    preserves every order level.
    """
    if xi.nrows != A.dim or xi.ncols != A.dim:
        raise DomainError("endomorphism has the wrong size")
    if not A.pairing_is_permutation():
        raise DomainError("socle pairing is degenerate")
    g = A.gram(unit=unit)
    return (g * xi * g.inverse()).transpose()


def verify_order_preservation(A: ArtinianAlgebra, xi: Matrix, n: int) -> bool:
    """Check the adjoint of an order <= n operator again has order <= n."""
    filt = order_filtration(A, n_max=max(n, 0))
    if not filt.contains(xi, n):
        raise DomainError(f"operator is not in the order <= {n} subspace")
    return filt.contains(socle_adjoint(A, xi), n)
