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
bracket is an index shift and the socle adjoint an anti-transpose, both
stride arithmetic on the row-major coordinate index(mu)*d + index(nu), so
the bracket walk and :func:`adjoint_table` build no lookup tables.

The order of one endomorphism needs no filtration: xi has order <= n
exactly when ad_x^beta(xi) = 0 for every |beta| = n+1, and the ad_{x_i}
commute, so :func:`order` and membership shift xi's nonzero coordinates
one bracket at a time and visit each beta once.  The filtration itself is
a tensor product: R is the tensor product of the k[x_i]/(x_i^a_i), and
level n of End_k(R) is the sum over i_1+...+i_m = n of the tensor products
of the one-variable levels i_1, ..., i_m.  Each one-variable filtration
splits into the 2a-1 degree blocks mu - nu of its matrix units (ad_x raises
the degree by one and level 0 is graded), so each of its levels is one small
elimination per block.  Ordering each factor's basis by level, the
Kronecker products of one vector per variable, with level the sum of
their levels, are a basis adapted to the whole filtration.

The filtration, the order and membership compute on ints alone: residues
mod p, or over Q integer vectors, eliminated fraction-free by
:func:`linalg.rref`; a vector's scale changes neither the level it spans
nor the order of an endomorphism.  Only ``bases`` turns the integer
pieces into field values, when read.
"""

from __future__ import annotations

from itertools import accumulate, product
from math import gcd, lcm, prod

from .errors import DomainError
from .exponents import check as check_exponent
from .field import FieldSpec
from .linalg import Matrix, rref

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
        exponents = check_exponent(exponents)
        if not exponents or 0 in exponents:
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
        """Position of the monomial x^mu in the basis, mu through
        ``exponents.check``."""
        i = self._index.get(check_exponent(mu, self.nvars))
        if i is None:
            raise DomainError("monomial is not in the basis")
        return i

    def monomial_product(self, mu, nu):
        """Exponent of the product monomial, or None when it dies."""
        out = tuple(m + n for m, n in zip(mu, nu))
        if all(o < a for o, a in zip(out, self.exponents)):
            return out
        return None

    def multiplication_operator(self, coeffs_by_exponent) -> Matrix:
        """Matrix of multiplication by sum of c * x^mu on the basis, each mu
        through ``exponents.check``."""
        F = self.field
        rows = [[F.zero()] * self.dim for _ in range(self.dim)]
        for mu, c in coeffs_by_exponent.items():
            mu, c = check_exponent(mu, self.nvars), F.coerce(c)
            if F.is_zero(c):
                continue
            for j, nu in enumerate(self.basis):
                target = self.monomial_product(mu, nu)
                if target is not None:
                    i = self._index[target]
                    rows[i][j] = F.add(rows[i][j], c)
        return Matrix(F, rows)

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

    The chain is stored as its graded pieces: integer vectors (residues
    over F_p) in the vectorized (row-major, see :func:`vectorize`)
    coordinates, those of piece n spanning a complement of level n-1 in
    level n.  ``dims`` are the level dimensions and ``stabilized_at`` the
    top level, past which the chain does not grow.  ``bases`` builds, when
    read, a matrix per level whose columns span it.
    """

    __slots__ = ("algebra", "_pieces", "dims", "stabilized_at")

    def __init__(self, algebra, pieces):
        self.algebra = algebra
        self._pieces = pieces
        self.dims = list(accumulate(len(piece) for piece in pieces))
        self.stabilized_at = len(pieces) - 1

    @property
    def bases(self):
        """Each level as a matrix whose columns span it, built when read;
        the constructor brings each integer piece into the field."""
        F, columns, out = self.algebra.field, [], []
        for piece in self._pieces:
            columns += Matrix(F, piece).rows
            out.append(Matrix.from_columns(F, columns))
        return out

    def contains(self, xi: Matrix, n: int) -> bool:
        """Membership of an endomorphism in the order <= n subspace, for
        any n (below 0 only 0 is contained); brackets stop at depth n+1."""
        return all(m <= n for m in _nonzero_depths(self.algebra, xi, max(n + 1, 0)))


def vectorize(m: Matrix):
    """Flatten a matrix row-major into a coordinate vector."""
    return [v for row in m.rows for v in row]


def unvectorize(field: FieldSpec, vec, dim: int) -> Matrix:
    return Matrix(field, [vec[i * dim : (i + 1) * dim] for i in range(dim)])


def _refuse_large(A: ArtinianAlgebra):
    if A.dim**2 > SIZE_LIMIT:
        raise DomainError(f"endomorphism space of dimension {A.dim**2} exceeds "
                          f"the guardrail of {SIZE_LIMIT}")


def _check_endomorphism(A: ArtinianAlgebra, xi: Matrix):
    """Refuse a matrix that is not a d x d matrix over the algebra's field."""
    if xi.nrows != A.dim or xi.ncols != A.dim:
        raise DomainError("endomorphism has the wrong size")
    if xi.field != A.field:
        raise DomainError("endomorphism field mismatch")


def _nonzero_depths(A: ArtinianAlgebra, xi: Matrix, limit: int):
    """Yield |beta| for each nonzero ad_x^beta(xi) with |beta| <= limit,
    depth first, so a caller that stops at the first depth above n does
    no more brackets than the path there.

    The ad_{x_i} commute, so beta is reached only from beta - e_i with i
    its last variable: a vector bracketed last by x_i is bracketed next by
    x_i and the later variables only, and each beta is visited once.  A
    zero bracket is dropped, since everything above it is zero too.

    E_{mu,nu} x_i - x_i E_{mu,nu} = E_{mu,nu-e_i} - E_{mu+e_i,nu}, and e_i
    moves a lex index by the stride s of x_i: from c = index(mu)*d +
    index(nu) the terms sit at c - s when nu_i > 0 and at c + s*d when
    mu_i < a_i - 1, reading mu_i and nu_i as base-a_i digits at s.

    The walk runs on ints: residues over F_p, reduced once per bracket,
    and over Q xi times the lcm of its denominators, since a nonzero scale
    changes no depth.
    """
    d, p = A.dim, A.field.characteristic
    _refuse_large(A)
    _check_endomorphism(A, xi)
    shifts = [(prod(A.exponents[i + 1 :]), a) for i, a in enumerate(A.exponents)]
    if p:
        vec = {j * d + k: v for j, row in enumerate(xi.rows) for k, v in enumerate(row) if v}
    else:
        scale = lcm(*(v.denominator for row in xi.rows for v in row))
        vec = {j * d + k: v.numerator * (scale // v.denominator)
               for j, row in enumerate(xi.rows) for k, v in enumerate(row) if v}
    stack = [(0, 0, vec)] if vec else []
    while stack:
        depth, last, vec = stack.pop()
        yield depth
        if depth == limit:
            continue
        for i in range(last, A.nvars):
            s, a = shifts[i]
            out = {}
            for c, v in vec.items():
                j, k = divmod(c, d)
                if k // s % a:
                    out[c - s] = out.get(c - s, 0) + v
                if j // s % a < a - 1:
                    out[c + s * d] = out.get(c + s * d, 0) - v
            if p:
                out = {c: r for c, v in out.items() if (r := v % p)}
            else:
                out = {c: v for c, v in out.items() if v}
            if out:
                stack.append((depth + 1, i, out))


def order(A: ArtinianAlgebra, xi: Matrix) -> int:
    """Order of an endomorphism: the largest |beta| with ad_x^beta(xi) != 0,
    or -1 for xi = 0.  Refuses d*d above the guardrail before any work."""
    # every level of the filtration adds a dimension, so orders are below d*d
    return max(_nonzero_depths(A, xi, A.dim**2), default=-1)


def _one_variable_levels(p: int, a: int):
    """A basis of End_k(k[x]/(x^a)) adapted to its order filtration, as
    pairs (level, {(mu, nu): c}) of the entries of each vector on the
    matrix units E_{mu,nu}, in increasing level: residues over F_p, and
    over Q primitive integer vectors.

    Level n is the kernel of ad_x^(n+1), and ad_x sends the degree block
    mu - nu = delta to block delta+1, so each block's annihilator at level
    n is block delta+1's at level n-1 composed with ad_x.  Level -1 is 0,
    so every annihilator starts as the identity.  The pivot columns of a
    block's annihilator only shrink from one level to the next, and the
    kernel vectors of the columns that turn free span a complement of the
    lower level.  Each annihilator is kept as the integer rows of
    :func:`rref`, whose scale changes no kernel; a kernel vector is den in
    its free column and minus that column of the rows in the pivot
    columns, over Q divided by its content, with the free entry positive.
    """
    # the columns nu of block delta, whose entries are E_{nu+delta,nu}
    cols = {delta: range(max(0, -delta), min(a, a - delta)) for delta in range(1 - a, a)}
    ann = {delta: ([[int(i == j) for j in range(len(c))] for i in range(len(c))],
                   range(len(c)))
           for delta, c in cols.items()}
    out, n = [], 0
    while any(pivots for _, pivots in ann.values()):
        reduced = {}
        for delta, c in cols.items():
            above = ann[delta + 1][0] if delta + 1 < a else []
            if above:
                # [E_{mu,nu}, x] = E_{mu,nu-1} - E_{mu+1,nu}, both in block delta+1
                lo = cols[delta + 1].start
                red, pivots, den = rref(p, [
                    [(r[nu - 1 - lo] if nu else 0) - (r[nu - lo] if nu + delta + 1 < a else 0)
                     for nu in c]
                    for r in above])
                red = red[: len(pivots)]
            else:
                red, pivots, den = [], [], 1
            reduced[delta] = red, pivots
            for fc in ann[delta][1]:
                if fc in pivots:
                    continue
                vec = {(c[fc] + delta, c[fc]): den}
                for row, pc in zip(red, pivots):
                    if row[fc]:
                        vec[c[pc] + delta, c[pc]] = -row[fc]
                if p:
                    vec = {k: v % p for k, v in vec.items()}
                else:
                    g = gcd(*vec.values()) if den > 0 else -gcd(*vec.values())
                    vec = {k: v // g for k, v in vec.items()}
                out.append((n, vec))
        ann = reduced
        n += 1
    return out


def order_filtration(A: ArtinianAlgebra) -> OrderFiltration:
    """The increasing chain of order subspaces inside the endomorphisms.

    Level 0 is spanned by the multiplication operators; each further level
    collects the endomorphisms whose commutators with every variable lie
    one level down, up to the top level, where the chain stabilizes.
    Refuses algebras whose d*d endomorphism coordinates exceed the
    guardrail, before building anything.

    The graded pieces are the Kronecker products of one-variable adapted
    basis vectors (:func:`_one_variable_levels`), by the sum of their
    levels.  E_{mu,nu} has coordinate index(mu)*d + index(nu), and the lex
    index is a sum of per-variable shares, so a product's coordinates are
    sums of one share per factor.
    """
    p, d = A.field.characteristic, A.dim
    _refuse_large(A)
    factors = []
    for i, a in enumerate(A.exponents):
        stride = prod(A.exponents[i + 1 :])
        factors.append([(level, [((mu * d + nu) * stride, c) for (mu, nu), c in vec.items()])
                        for level, vec in _one_variable_levels(p, a)])
    top = sum(levels[-1][0] for levels in factors)
    pieces = [[] for _ in range(top + 1)]
    for combo in product(*factors):
        level = sum(lv for lv, _ in combo)
        terms = [(0, 1)]
        for _, entries in combo:
            terms = [(at + share, c * v % p if p else c * v)
                     for at, c in terms for share, v in entries]
        vec = [0] * (d * d)
        for at, c in terms:
            vec[at] = c
        pieces[level].append(vec)
    return OrderFiltration(A, pieces)


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
    _check_endomorphism(A, xi)
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


def adjoint_table(A: ArtinianAlgebra) -> Matrix:
    """The socle adjoint as a d*d x d*d matrix on the vectorized
    coordinates.  It anti-transposes E_{j,k} to E_{d-1-k,d-1-j}, so column
    c = j*d + k has its one 1 at row d*d - 1 - k*d - j.  Refuses d*d above
    the guardrail before building anything."""
    _refuse_large(A)
    d, F = A.dim, A.field
    rows = [[F.zero()] * (d * d) for _ in range(d * d)]
    for c in range(d * d):
        rows[d * d - 1 - c % d * d - c // d][c] = F.one()
    return Matrix(F, rows)

