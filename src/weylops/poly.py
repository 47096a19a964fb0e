"""The commutative polynomial ring S = k[x_1, ..., x_n] with exact arithmetic.

A polynomial is stored as an integer core ``(num, den)``, as an operator
is (:mod:`weylops.diffop`): ``num`` maps exponent tuples to nonzero int
numerators and ``den > 0`` is one denominator for all of them, with
gcd(den, every numerator) == 1 and den == 1 for zero.  Over F_p the ints
are residues and den is 1.  Every value is canonical, so equality
compares (den, num), and the kernels only ever see ints;
``Polynomial.terms``, the view with field values, is built on read.
``Polynomial(ring, terms)`` is the one conversion from that view, and
every ``PolyRing`` factory calls it: exponents go through
``exponents.check`` and coefficients through ``FieldSpec.coerce``, zeros
are dropped, and :func:`integer_core` gives the core.
:class:`CoreElement` holds what polynomials and operators share: the
core, sums, negation and equality.  :class:`RingMap` is an invertible
linear change of variables, kept as its matrix pair and its prepared
:class:`Substitution`, by which :func:`apply_ring_map` substitutes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

from . import _kernels as K
from . import exponents
from .errors import DomainError
from .field import FieldSpec
from .linalg import Matrix

_IDENT = "[A-Za-z_][A-Za-z_0-9]*"

# largest variable count: on a 2-vCPU machine `group reynolds x1` on a dense
# unimodular 64x64 file took 2.7 s, on a 128x128 one 16 s (README, CLI)
NVARS_LIMIT = 64


class PolyRing:
    """Ring context: coefficient field, variable count, variable names."""

    __slots__ = ("field", "nvars", "var_names")

    def __init__(self, field: FieldSpec, nvars: int, var_names=None):
        if type(nvars) is not int or not 1 <= nvars <= NVARS_LIMIT:
            raise DomainError(f"nvars must be an int from 1 to {NVARS_LIMIT}")
        if var_names is None:
            var_names = tuple(f"x{i + 1}" for i in range(nvars))
        elif isinstance(var_names, str):  # not read as its characters
            raise DomainError("var_names must be a sequence of names, not a string")
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
        return self is other or (
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

    # -- element factories: each one call to Polynomial(ring, terms) -----

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c) -> Polynomial:
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> Polynomial:
        return Polynomial(self, {exponents.unit(i, self.nvars): 1})

    def gens(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exp, coeff=1) -> Polynomial:
        return Polynomial(self, {exp: coeff})

    def from_terms(self, mapping) -> Polynomial:
        return Polynomial(self, mapping)


def canonical(num: dict, den: int):
    """The pair (num, den) with gcd(den, every numerator) divided out."""
    if den == 1 or not num:
        return num, 1
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {m: c // g for m, c in num.items()}, den // g


def integer_core(terms: dict, p: int):
    """The canonical core (num, den) of a dict of nonzero field values in
    characteristic p: over F_p the residues themselves over 1, over Q the
    numerators over the lcm of the lowest-terms denominators, which leaves
    no common factor."""
    if p:
        return terms, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


class CoreElement:
    """An element of ``ring`` stored as an integer core (``num``, ``den``):
    what ``Polynomial`` and ``DiffOp`` share.

    Each subclass gives ``_coerce``, an operand as an element of its own
    class (None for an operand of another type, ``DomainError`` for one of
    another ring or one that does not coerce), and ``_sum``, the element
    c*num/den summed over the parts (num, den, c), c nonzero in the field.
    Instances are treated as immutable and all operations are pure.
    """

    __slots__ = ("ring", "num", "den")

    @classmethod
    def _core(cls, ring: PolyRing, core):
        """Wrap a canonical core (num, den)."""
        x = cls.__new__(cls)
        x.ring = ring
        x.num, x.den = core
        return x

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def _plus(self, other, c):
        """self + c*other."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum((self.num, self.den, 1), (other.num, other.den, c))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._sum((self.num, self.den, -1))

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __eq__(self, other):
        """Equal cores; False for an operand ``_coerce`` refuses."""
        try:
            other = self._coerce(other)
        except DomainError:
            return False
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    __hash__ = None

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class Polynomial(CoreElement):
    """Element of a :class:`PolyRing` over an integer core (module docstring).

    ``Polynomial(ring, terms)`` builds one from the field view: exponent
    tuple -> field value, the one conversion (module docstring).  Exponents
    that coincide as tuples add up.
    """

    __slots__ = ()

    def __init__(self, ring: PolyRing, terms: dict):
        F, out = ring.field, {}
        for exp, c in terms.items():
            exp, c = exponents.check(exp, ring.nvars), F.coerce(c)
            out[exp] = F.add(out[exp], c) if exp in out else c
        self.ring = ring
        self.num, self.den = integer_core({m: c for m, c in out.items() if c},
                                          ring.characteristic)

    @property
    def terms(self) -> dict:
        """The field view: exponent tuple -> nonzero field value."""
        if self.ring.characteristic:
            return self.num
        den = self.den
        if den == 1:
            return {m: Fraction(c) for m, c in self.num.items()}
        return {m: Fraction(c, den) for m, c in self.num.items()}

    # -- accessors -----------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(map(sum, self.num))

    def coefficient(self, exp):
        c = self.num.get(tuple(exp), 0)
        return c if self.ring.characteristic else Fraction(c, self.den)

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

    def _sum(self, *parts):
        """The sum of the parts (class ``CoreElement``), by
        ``_kernels.core_sum`` on the order-0 operator cores {(0,...,0): num}."""
        zero = (0,) * self.ring.nvars
        num, den = K.core_sum([({zero: f} if f else {}, d, c) for f, d, c in parts],
                              self.ring.characteristic)
        return Polynomial._core(self.ring, (num.get(zero, {}), den))

    def __mul__(self, other):
        p = self.ring.characteristic
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero()
            # over F_p c is an int residue, so its denominator is 1
            return self._sum((self.num, self.den * c.denominator, c.numerator))
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial._core(self.ring, canonical(
                K.poly_mul(self.num, other.num, p), self.den * other.den
            ))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers must be natural numbers")
        if n == 0:
            return self.ring.one()
        return Polynomial._core(self.ring, canonical(
            K.poly_pow(self.num, n, self.ring.characteristic), K.int_power(self.den, n)
        ))

    def __str__(self):
        from .render import render_poly

        return render_poly(self)


class Substitution(NamedTuple):
    """A linear substitution and its inverse B, prepared once per pair.

    ``images`` are the variables' images (the matrix's columns) as integer
    polynomial dicts over ``dens``, one denominator each, or None when all
    are 1.  ``inv_rows`` are B's rows as integer cores ({j: B[k][j]} over
    the nonzero entries, den_k), keyed by their support, and ``tops`` the
    largest of den_k and row k's absolute numerators (1 over F_p), the
    base of the largest power that the transport's l_k^[a] forms.
    """

    identity: bool
    images: list
    dens: list | None
    inv_rows: list
    tops: list


def prepare_substitution(rows, inv_rows, p: int) -> Substitution:
    """The prepared form of the matrix pair (rows, inv_rows) over the field
    of characteristic p, as :class:`Substitution` describes it."""
    n = len(rows)
    identity = all(v == (1 if i == j else 0)
                   for i, row in enumerate(rows) for j, v in enumerate(row))
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    images = [integer_core({units[i]: v for i, v in enumerate(col) if v}, p)
              for col in zip(*rows)]
    dens = [den for _, den in images]
    inv_rows = [integer_core({j: b for j, b in enumerate(row) if b}, p)
                for row in inv_rows]
    tops = [1 if p else max(den, *map(abs, row.values())) for row, den in inv_rows]
    return Substitution(identity, [image for image, _ in images],
                        dens if max(dens) > 1 else None, inv_rows, tops)


class RingMap:
    """The substitution automorphism of S given by an invertible matrix and
    its inverse, with the column convention: the image of x_j is the sum of
    rows[i][j] * x_i.  ``substitution``, the pair's prepared form, is made
    with the map and read by every substitution and transport along it.
    """

    __slots__ = ("ring", "rows", "inverse_rows", "substitution")

    @classmethod
    def _pair(cls, ring: PolyRing, rows, inverse_rows, substitution=None) -> RingMap:
        """Wrap an inverse pair in the field, preparing its substitution if not given."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.inverse_rows = ring, rows, inverse_rows
        if substitution is None:
            substitution = prepare_substitution(rows, inverse_rows, ring.characteristic)
        m.substitution = substitution
        return m

    @classmethod
    def from_matrix(cls, ring: PolyRing, rows, inverse_rows=None) -> RingMap:
        """The map of an invertible n x n matrix: a singular one is refused,
        and a supplied inverse, of the same size, is checked by one product
        (a one-sided inverse of a square matrix is two-sided)."""
        n = ring.nvars
        if any(len(m) != n or any(len(r) != n for r in m)
               for m in (rows, inverse_rows) if m is not None):
            raise DomainError(f"matrix must be {n}x{n}")
        a = Matrix(ring.field, rows)
        if inverse_rows is None:
            b = a.inverse()
        else:
            b = Matrix(ring.field, inverse_rows)
            if a * b != Matrix.identity(ring.field, n):
                raise DomainError("supplied inverse does not invert the map")
        return cls._pair(ring, a.rows, b.rows)

    @classmethod
    def identity(cls, ring: PolyRing) -> RingMap:
        n = ring.nvars
        return cls.from_matrix(ring, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def inverse(self) -> RingMap:
        return RingMap._pair(self.ring, self.inverse_rows, self.rows)

    def __call__(self, f: Polynomial) -> Polynomial:
        return apply_ring_map(self, f)


def apply_ring_map(m: RingMap, f: Polynomial) -> Polynomial:
    """Substitution: replace each variable of f by its image under m, by
    the map's prepared substitution."""
    if f.ring != m.ring:
        raise DomainError("polynomial does not live in the map's ring")
    sub = m.substitution
    return Polynomial._core(m.ring, substitute(
        f.num, f.den, sub.images, sub.dens, m.ring.characteristic, {}
    ))


def substitute(num: dict, den: int, images: list, dens, p: int, powers: dict):
    """The core of num/den with each x_i replaced by images[i]/dens[i], for
    int dicts images (``powers`` as in ``_kernels.poly_substitute``); dens
    is None when every denominator is 1, and then nothing is lifted.

    A monomial x^mu picks up the product of dens[i]^-mu_i, so each
    numerator is lifted to the top exponent t_i of each variable in num and
    the image is over den * prod dens[i]^t_i; a dens[i]^t_i past
    ``BINOM_BITS_LIMIT`` bits is refused (``_kernels.int_power``) before
    any lift is built."""
    if dens is not None and num:
        tops = [max(mu[i] for mu in num) for i in range(len(dens))]
        for d, t in zip(dens, tops):
            den *= K.int_power(d, t)
        num = {mu: c * prod(d ** (t - e) for d, t, e in zip(dens, tops, mu))
               for mu, c in num.items()}
    return canonical(K.poly_substitute(num, images, p, powers), den)
