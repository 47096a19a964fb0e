"""Matrix form of level-e operators in characteristic p.

The polynomial ring is free over its subring of p^e-th powers with the
monomials below p^e (componentwise) as basis, so the operators linear
over that subring form a matrix ring of size p^(e*n).  Entries are kept
as p^e-th roots, i.e. ordinary polynomials: taking p^e-th powers is a
ring isomorphism onto the subring for a perfect prime field, so addition
and multiplication of root entries compute the true entries exactly and
no twisted arithmetic is needed.

A matrix stores its nonzero entries only, as residue dicts (the kernel
layout of ``_kernels``) keyed by (row, column): ``LevelMatrix.cells``.
Sums (``_kernels.core_sum``), products (``_kernels.mul_add``) and
equality work on these dicts; ``entries``, the dense grid of
``Polynomial`` values, is built on read.

Both directions are closed formulas.  Column lam of the matrix of
xi = sum f_alpha d^[alpha] is the value xi(x^lam) = sum over alpha <= lam
of C(lam, alpha) f_alpha x^(lam-alpha): each exponent of it splits into
a base-p^e digit r and a quotient mu, and the term lands in cell
(r, lam) at the root monomial x^mu.  Back again, over F_p the p^e-th
power of a root term c*x^mu is c*x^(p^e*mu), so cell (r, lam) gives the
part c*x^(p^e*mu + r) of xi(x^lam), and binomial inversion gives
f_alpha = sum over lam <= alpha of (-1)^|alpha-lam| C(alpha, lam)
x^(alpha-lam) xi(x^lam), with integer coefficients, so in every
characteristic.  Every cell or coefficient is accumulated as unreduced
ints and reduced mod p once (``_kernels._reduced``).
"""

from __future__ import annotations

from itertools import product
from math import comb as _comb, prod as _prod

from . import _kernels as K
from .diffop import DiffOp
from .errors import DomainError
from .exponents import check_level
from .poly import Polynomial, PolyRing

SIZE_LIMIT = 256


class FrobeniusBasis:
    """The monomial basis {x^lam : 0 <= lam_i < p^e} in lex order."""

    __slots__ = ("ring", "e", "monomials")

    def __init__(self, ring: PolyRing, e: int):
        p = ring.characteristic
        if p == 0:
            raise DomainError("frobenius basis requires characteristic p > 0")
        digits = check_level(e) * ring.nvars
        # p >= 2, so p^digits > SIZE_LIMIT once digits reaches the bit
        # length of SIZE_LIMIT: refused before p^digits is formed or printed
        if digits >= SIZE_LIMIT.bit_length():
            raise DomainError(
                f"basis size {p}^{digits} exceeds the guardrail of {SIZE_LIMIT}"
            )
        size = p**digits
        if size > SIZE_LIMIT:
            raise DomainError(f"basis size {size} exceeds the guardrail of {SIZE_LIMIT}")
        self.ring = ring
        self.e = e
        self.monomials = tuple(product(range(p**e), repeat=ring.nvars))

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

    ``cells[r, c]`` is the nonzero root of the coefficient of the r-th
    basis monomial in the image of the c-th one, as a residue dict; a
    missing cell is zero.  ``LevelMatrix(basis, entries)`` builds one from
    a dense grid of polynomials, and ``entries`` reads that grid back.
    """

    __slots__ = ("basis", "cells")

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
        self.cells = {
            (r, c): v.num
            for r, row in enumerate(entries)
            for c, v in enumerate(row)
            if v.num
        }

    @classmethod
    def _from_cells(cls, basis: FrobeniusBasis, cells: dict) -> LevelMatrix:
        """Wrap nonzero cells this module built itself, skipping the checks."""
        m = object.__new__(cls)
        m.basis, m.cells = basis, cells
        return m

    @property
    def e(self) -> int:
        return self.basis.e

    @property
    def ring(self) -> PolyRing:
        return self.basis.ring

    @property
    def entries(self) -> list:
        """The dense grid of ``Polynomial`` entries, rows first."""
        ring, cells, n = self.ring, self.cells, range(self.basis.size)
        return [[Polynomial._core(ring, (cells.get((r, c), {}), 1)) for c in n]
                for r in n]

    @classmethod
    def identity(cls, basis: FrobeniusBasis) -> LevelMatrix:
        one = {(0,) * basis.ring.nvars: 1}
        return cls._from_cells(basis, {(i, i): one for i in range(basis.size)})

    def _check(self, other: LevelMatrix):
        if self.basis != other.basis:
            raise DomainError("level matrix basis mismatch")

    def __add__(self, other: LevelMatrix) -> LevelMatrix:
        self._check(other)
        parts = (self.cells, 1, 1), (other.cells, 1, 1)
        cells, _ = K.core_sum(parts, self.ring.characteristic)
        return LevelMatrix._from_cells(self.basis, cells)

    def __mul__(self, other: LevelMatrix) -> LevelMatrix:
        """Product over nonzero cells only: cell (i, k) meets the cells of
        row k, into one accumulator per output cell, reduced once."""
        self._check(other)
        right = {}
        for (k, c), b in other.cells.items():
            right.setdefault(k, []).append((c, b))
        out = {}
        for (i, k), a in self.cells.items():
            for c, b in right.get(k, ()):
                K.mul_add(out.setdefault((i, c), {}), a, b)
        return LevelMatrix._from_cells(
            self.basis, K._reduced(out, self.ring.characteristic)
        )

    def __eq__(self, other):
        return (
            isinstance(other, LevelMatrix)
            and self.basis == other.basis
            and self.cells == other.cells
        )

    __hash__ = None

    def __repr__(self):
        return f"<LevelMatrix e={self.e} size={self.basis.size}>"


def _matrix_row(m, a, w, q, p):
    """The row of one variable in ``to_matrix``: for x^m in f_alpha and
    alpha_i = a, one entry (w*r, w*lam, mu, C(lam, a)) per a <= lam < q,
    where m-a+lam = mu*q + r and w is the variable's place value in the
    basis order; zeros mod p left out."""
    row = []
    for lam in range(a, q):
        c = _comb(lam, a) % p
        if c:
            mu, r = divmod(m - a + lam, q)
            row.append((w * r, w * lam, mu, c))
    return row


def to_matrix(xi: DiffOp, e: int) -> LevelMatrix:
    """Represent a level <= e operator on the frobenius basis.

    Column lam holds the digit decomposition of the operator's value on
    x^lam, by the closed formula of the module docstring.  It factors by
    variable on a monomial x^m of f_alpha: one row per variable lists the
    choices of lam_i with their digit, quotient and binomial, and each
    choice of one entry per row is one term of one cell.  Rejects
    operators whose level exceeds e.
    """
    p = xi.ring.characteristic
    if p == 0:
        raise DomainError("level matrices require characteristic p > 0")
    if xi.level() > check_level(e):
        raise DomainError(f"operator has level {xi.level()} > {e}")
    basis = FrobeniusBasis(xi.ring, e)
    q, n = p**e, xi.ring.nvars
    # the basis is in lex order: x^lam is number sum of lam_i*places[i]
    places = [q ** (n - 1 - i) for i in range(n)]
    rows = {}
    out = {}
    for alpha, f in xi.num.items():
        for m, v in f.items():
            rs = []
            for key in zip(m, alpha, places):
                row = rows.get(key)
                if row is None:
                    row = rows[key] = _matrix_row(*key, q, p)
                rs.append(row)
            for entries in product(*rs):
                r, col, mu, cs = zip(*entries)
                key = (sum(r), sum(col))
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                acc[mu] = acc.get(mu, 0) + v * _prod(cs)
    return LevelMatrix._from_cells(basis, K._reduced(out, p))


def _operator_row(mu, r, lam, q, p):
    """The row of one variable in ``to_operator``: for a root term x^mu
    of cell (r, lam), one entry (alpha, q*mu + r + alpha - lam,
    (-1)^(alpha-lam) C(alpha, lam)) per lam <= alpha < q, zeros mod p
    left out."""
    row = []
    for alpha in range(lam, q):
        c = _comb(alpha, lam) % p
        if c:
            row.append((alpha, q * mu + r + alpha - lam, -c if (alpha - lam) % 2 else c))
    return row


def to_operator(m: LevelMatrix) -> DiffOp:
    """Inverse of :func:`to_matrix`: cell (r, lam) reassembled by scaling
    exponents is part of the value on x^lam, and binomial inversion
    spreads it over the coefficients f_alpha, alpha >= lam (module
    docstring), one row per variable as in :func:`to_matrix`."""
    monomials, p = m.basis.monomials, m.ring.characteristic
    q = p**m.e
    rows = {}
    out = {}
    for (r, col), g in m.cells.items():
        digits = tuple(zip(monomials[r], monomials[col]))
        for mu, v in g.items():
            rs = []
            for x, (d, lam) in zip(mu, digits):
                key = (x, d, lam)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = _operator_row(x, d, lam, q, p)
                rs.append(row)
            for entries in product(*rs):
                alpha, exp, cs = zip(*entries)
                acc = out.get(alpha)
                if acc is None:
                    acc = out[alpha] = {}
                acc[exp] = acc.get(exp, 0) + v * _prod(cs)
    return DiffOp._core(m.ring, (K._reduced(out, p), 1))


def matrix_mul_consistency(xi: DiffOp, eta: DiffOp, e: int) -> bool:
    """Whether the matrix of a product equals the product of matrices."""
    if xi.ring != eta.ring:
        raise DomainError("operator ring mismatch")
    lhs = to_matrix(xi * eta, e)
    rhs = to_matrix(xi, e) * to_matrix(eta, e)
    return lhs == rhs
