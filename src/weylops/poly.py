"""The commutative polynomial ring S = k[x_1, ..., x_n] with exact arithmetic.

Polynomials are finitely supported maps from exponent tuples to nonzero
field coefficients, so equality is dict equality and every value is
canonical by construction.  Also provides substitution endomorphisms and
the base-p^e digit decomposition of a polynomial over the subring of
p^e-th powers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import _kernels as K
from . import exponents
from .errors import DomainError
from .field import FieldSpec

_IDENT = "[A-Za-z_][A-Za-z_0-9]*"


class PolyRing:
    """Ring context: coefficient field, variable count, variable names."""

    __slots__ = ("field", "nvars", "var_names")

    def __init__(self, field: FieldSpec, nvars: int, var_names=None):
        if nvars < 1:
            raise DomainError("nvars must be >= 1")
        if var_names is None:
            var_names = tuple(f"x{i + 1}" for i in range(nvars))
        else:
            var_names = tuple(var_names)
        if len(var_names) != nvars or len(set(var_names)) != nvars:
            raise DomainError("var_names must be distinct and match nvars")
        for name in var_names:  # each must read back as one identifier
            if not (isinstance(name, str) and re.fullmatch(_IDENT, name)):
                raise DomainError(f"variable name {name!r} is not an identifier {_IDENT}")
        self.field = field
        self.nvars = nvars
        self.var_names = var_names

    @property
    def characteristic(self) -> int:
        return self.field.characteristic

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.var_names == other.var_names
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.var_names))

    def __repr__(self):
        k = "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"
        return f"PolyRing({k}[{', '.join(self.var_names)}])"

    # -- element factories ---------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c) -> Polynomial:
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> Polynomial:
        if not 0 <= i < self.nvars:
            raise DomainError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exp: self.field.one()})

    def gens(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exp, coeff=1) -> Polynomial:
        exp = tuple(exp)
        exponents.check_arity(exp, self.nvars)
        if any(e < 0 for e in exp):
            raise DomainError(f"negative exponent in {exp}")
        c = self.field.coerce(coeff)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {exp: c})

    def from_terms(self, mapping) -> Polynomial:
        """Build from any exponent -> coefficient mapping, canonicalizing."""
        terms = {}
        for exp, c in mapping.items():
            exp = tuple(exp)
            exponents.check_arity(exp, self.nvars)
            c = self.field.coerce(c)
            if not self.field.is_zero(c):
                acc = self.field.add(terms.get(exp, self.field.zero()), c)
                if self.field.is_zero(acc):
                    terms.pop(exp, None)
                else:
                    terms[exp] = acc
        return Polynomial(self, terms)


class Polynomial:
    """Element of a :class:`PolyRing` in canonical sparse form.

    ``terms`` maps exponent tuples to nonzero coefficients; instances are
    treated as immutable and all operations are pure.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates and accessors --------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.field.zero())

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: Polynomial):
        if self.ring != other.ring:
            raise DomainError("polynomial ring mismatch")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, str)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.characteristic
        return Polynomial(self.ring, K.poly_add(self.terms, other.terms, p))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, K.poly_neg(self.terms, self.ring.characteristic))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            return Polynomial(
                self.ring, K.poly_scale(self.terms, c, self.ring.characteristic)
            )
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial(
                self.ring, K.poly_mul(self.terms, other.terms, self.ring.characteristic)
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers must be natural numbers")
        if n == 0:
            return self.ring.one()
        return Polynomial(
            self.ring, K.poly_pow(self.terms, n, self.ring.characteristic)
        )

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __str__(self):
        from .render import render_poly

        return render_poly(self)

    def __repr__(self):
        return f"<Polynomial {self}>"


class RingMap:
    """k-algebra endomorphism of S given by the images of the variables.

    When an inverse is supplied the composition with it is verified to fix
    every variable, in both orders.
    """

    __slots__ = ("ring", "images", "inverse")

    def __init__(self, ring: PolyRing, images, inverse: RingMap | None = None):
        images = list(images)
        if len(images) != ring.nvars:
            raise DomainError(
                f"need {ring.nvars} variable images, got {len(images)}"
            )
        for f in images:
            if not isinstance(f, Polynomial) or f.ring != ring:
                raise DomainError("variable images must live in the target ring")
        self.ring = ring
        self.images = images
        self.inverse = inverse
        if inverse is not None:
            for i in range(ring.nvars):
                x = ring.variable(i)
                if self(inverse(x)) != x or inverse(self(x)) != x:
                    raise DomainError("supplied inverse does not invert the map")

    def __call__(self, f: Polynomial) -> Polynomial:
        return apply_ring_map(self, f)

    def is_linear(self) -> bool:
        """True when every variable image is homogeneous of degree 1."""
        return all(
            not f.is_zero() and all(sum(e) == 1 for e in f.terms)
            for f in self.images
        )

    def matrix(self):
        """Column-convention matrix of a linear map: image of x_j is the
        j-th column combination of the variables."""
        if not self.is_linear():
            raise DomainError("ring map is not linear")
        n = self.ring.nvars
        rows = [[self.ring.field.zero()] * n for _ in range(n)]
        for j, f in enumerate(self.images):
            for exp, c in f.terms.items():
                i = exp.index(1)
                rows[i][j] = c
        return rows

    @classmethod
    def identity(cls, ring: PolyRing) -> RingMap:
        m = cls(ring, ring.gens())
        m.inverse = m
        return m

    @classmethod
    def from_matrix(cls, ring: PolyRing, rows, inverse_rows=None) -> RingMap:
        """Linear map with the column convention of :meth:`matrix`."""
        n = ring.nvars
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"matrix must be {n}x{n}")

        units = [tuple(int(k == i) for k in range(n)) for i in range(n)]

        def images_of(mat):
            # column j holds the coefficients of the image of x_j
            return [ring.from_terms({units[i]: mat[i][j] for i in range(n)})
                    for j in range(n)]

        inv = None
        if inverse_rows is not None:
            inv = cls(ring, images_of(inverse_rows))
        return cls(ring, images_of(rows), inverse=inv)


def apply_ring_map(m: RingMap, f: Polynomial) -> Polynomial:
    """Substitution: replace each variable of f by its image under m."""
    if f.ring != m.ring:
        raise DomainError("polynomial does not live in the map's ring")
    images = [g.terms for g in m.images]
    return Polynomial(
        m.ring, K.poly_substitute(f.terms, images, m.ring.characteristic, {})
    )


def frobenius_decompose(f: Polynomial, e: int) -> dict:
    """Write f as a combination of p^e-th powers against the monomials
    with exponents below p^e, returning {lambda: g_lambda}.

    Each exponent splits uniquely into base-p^e digit and quotient; the
    coefficient field F_p is perfect with p^e-th roots given by the
    identity, so the root polynomial g_lambda keeps the coefficients as
    they are.  Reassembling sum of g^(p^e) * x^lambda returns f exactly.
    """
    p = f.ring.characteristic
    if p == 0:
        raise DomainError("frobenius decomposition requires characteristic p > 0")
    if e < 0:
        raise DomainError("level e must be a natural number")
    q = p**e
    pieces: dict[tuple, dict] = {}
    for exp, c in f.terms.items():
        lam = tuple(b % q for b in exp)
        quot = tuple(b // q for b in exp)
        pieces.setdefault(lam, {})[quot] = c
    return {lam: Polynomial(f.ring, terms) for lam, terms in pieces.items()}


def frobenius_reassemble(ring: PolyRing, pieces: dict, e: int) -> Polynomial:
    """Inverse of :func:`frobenius_decompose`.  Over F_p, g^(p^e) scales
    exponents, so a root term c*x^mu of piece lambda lands at
    c*x^(p^e*mu + lambda); pieces keyed outside the digit box may meet."""
    p = ring.characteristic
    if p == 0:
        raise DomainError("requires characteristic p > 0")
    q = p**e
    out = {}
    for lam, g in pieces.items():
        ring.monomial(lam)  # refuses a wrong arity or a negative exponent
        for mu, c in g.terms.items():
            exp = tuple(q * m + b for m, b in zip(mu, lam))
            out[exp] = (out.get(exp, 0) + c) % p
    return Polynomial(ring, {exp: c for exp, c in out.items() if c})
