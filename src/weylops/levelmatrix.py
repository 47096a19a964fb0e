"""Matrix form of level-e operators in characteristic p.

The polynomial ring is free over its subring of p^e-th powers with the
monomials below p^e (componentwise) as basis, so the operators linear
over that subring form a matrix ring of size p^(e*n).  Entries are kept
as p^e-th roots, i.e. ordinary polynomials: taking p^e-th powers is a
ring isomorphism onto the subring for a perfect prime field, so addition
and multiplication of root entries compute the true entries exactly and
no twisted arithmetic is needed.

Back to operators by two closed formulas.  Over F_p the p^e-th power of a
root term c*x^mu is c*x^(p^e*mu), so column lam reassembles into the value
xi(x^lam) by scaling exponents.  On the box that value is the sum over
alpha <= lam of C(lam, alpha) f_alpha x^(lam-alpha), and binomial
inversion gives f_alpha = sum over lam <= alpha of (-1)^|alpha-lam|
C(alpha, lam) x^(alpha-lam) xi(x^lam), with integer coefficients, so in
every characteristic.
"""

from __future__ import annotations

from itertools import product

from . import _kernels as K
from .diffop import DiffOp
from .errors import DomainError
from .exponents import iter_leq, subtract
from .poly import Polynomial, PolyRing, frobenius_decompose, frobenius_reassemble

SIZE_LIMIT = 256


class FrobeniusBasis:
    """The monomial basis {x^lam : 0 <= lam_i < p^e} in lex order."""

    __slots__ = ("ring", "e", "monomials")

    def __init__(self, ring: PolyRing, e: int):
        p = ring.characteristic
        if p == 0:
            raise DomainError("frobenius basis requires characteristic p > 0")
        if e < 0:
            raise DomainError("level e must be a natural number")
        size = p ** (e * ring.nvars)
        if size > SIZE_LIMIT:
            raise DomainError(f"basis size {size} exceeds the guardrail of {SIZE_LIMIT}")
        self.ring = ring
        self.e = e
        self.monomials = sorted(product(range(p**e), repeat=ring.nvars))

    @property
    def size(self) -> int:
        return len(self.monomials)

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusBasis)
            and self.ring == other.ring
            and self.e == other.e
        )

    __hash__ = None


class LevelMatrix:
    """Square polynomial matrix representing a level-e operator.

    ``entries[r][c]`` is the root of the coefficient of the r-th basis
    monomial in the image of the c-th one.
    """

    __slots__ = ("basis", "entries")

    def __init__(self, basis: FrobeniusBasis, entries):
        entries = [list(r) for r in entries]
        n = basis.size
        if len(entries) != n or any(len(r) != n for r in entries):
            raise DomainError(f"level matrix must be {n}x{n}")
        for row in entries:
            for v in row:
                if not isinstance(v, Polynomial) or v.ring != basis.ring:
                    raise DomainError("entries must be polynomials of the base ring")
        self.basis = basis
        self.entries = entries

    @classmethod
    def _from_rows(cls, basis: FrobeniusBasis, entries) -> LevelMatrix:
        """Wrap rows this module built itself, skipping the entry checks."""
        m = object.__new__(cls)
        m.basis, m.entries = basis, entries
        return m

    @property
    def e(self) -> int:
        return self.basis.e

    @property
    def ring(self) -> PolyRing:
        return self.basis.ring

    @classmethod
    def identity(cls, basis: FrobeniusBasis) -> LevelMatrix:
        one, zero = basis.ring.one(), basis.ring.zero()
        n = range(basis.size)
        return cls._from_rows(basis, [[one if i == j else zero for j in n] for i in n])

    def _check(self, other: LevelMatrix):
        if self.basis != other.basis:
            raise DomainError("level matrix basis mismatch")

    def __add__(self, other: LevelMatrix) -> LevelMatrix:
        self._check(other)
        rows = zip(self.entries, other.entries)
        return LevelMatrix._from_rows(
            self.basis, [[a + b for a, b in zip(ra, rb)] for ra, rb in rows]
        )

    def __mul__(self, other: LevelMatrix) -> LevelMatrix:
        """Product that never multiplies by a zero entry (matrices are sparse)."""
        self._check(other)
        right = [[(c, b) for c, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [self.ring.zero()] * len(row)
            for a, pairs in zip(row, right):
                if a:
                    for c, b in pairs:
                        acc[c] = acc[c] + a * b
            out.append(acc)
        return LevelMatrix._from_rows(self.basis, out)

    def __eq__(self, other):
        return (
            isinstance(other, LevelMatrix)
            and self.basis == other.basis
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return f"<LevelMatrix e={self.e} size={self.basis.size}>"


def to_matrix(xi: DiffOp, e: int) -> LevelMatrix:
    """Represent a level <= e operator on the frobenius basis.

    Column lam holds the digit decomposition of the operator's value on
    x^lam; rejects operators whose level exceeds e.
    """
    if xi.ring.characteristic == 0:
        raise DomainError("level matrices require characteristic p > 0")
    if xi.level() > e:
        raise DomainError(f"operator has level {xi.level()} > {e}")
    basis = FrobeniusBasis(xi.ring, e)
    zero, monomials = xi.ring.zero(), basis.monomials
    cols = [frobenius_decompose(xi.apply(xi.ring.monomial(lam)), e) for lam in monomials]
    entries = [[col.get(lam_r, zero) for col in cols] for lam_r in monomials]
    return LevelMatrix._from_rows(basis, entries)


def to_operator(m: LevelMatrix) -> DiffOp:
    """Inverse of :func:`to_matrix`: reassemble each column into the value
    on its basis monomial, then invert binomially (module docstring)."""
    ring, monomials, p = m.ring, m.basis.monomials, m.ring.characteristic
    values = {}
    for lam, col in zip(monomials, zip(*m.entries)):
        pieces = {lam_r: g for lam_r, g in zip(monomials, col) if g}
        values[lam] = frobenius_reassemble(ring, pieces, m.e).terms
    terms = {}
    for alpha in monomials:
        acc = {}
        for lam in iter_leq(alpha):
            c = (-1) ** (sum(alpha) - sum(lam)) * K.binom_product(alpha, lam, p) % p
            if c and values[lam]:
                shift = {subtract(alpha, lam): c}
                acc = K.poly_add(acc, K.poly_mul(values[lam], shift, p), p)
        terms[alpha] = Polynomial(ring, acc)
    return DiffOp.from_terms(ring, terms)


def matrix_mul_consistency(xi: DiffOp, eta: DiffOp, e: int) -> bool:
    """Whether the matrix of a product equals the product of matrices."""
    if xi.ring != eta.ring:
        raise DomainError("operator ring mismatch")
    lhs = to_matrix(xi * eta, e)
    rhs = to_matrix(xi, e) * to_matrix(eta, e)
    return lhs == rhs
