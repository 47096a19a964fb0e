"""Differential operators on S = k[x_1..x_n] in left-coefficient normal form.

An operator is a finitely supported sum of polynomial coefficients against
the divided-power basis: the basis element for exponent alpha sends x^beta
to binom(beta, alpha) * x^(beta - alpha) and is written ``d[a1,...,an]``.
In characteristic 0 it equals the alpha-th partial derivative divided by
alpha!; in characteristic p the high divided powers are genuine extra
generators, never assumed to be products of first-order ones.

Products are renormalized immediately (the basis is free over S, so the
normal form is canonical and equality is dict equality).  The order and
level filtrations come with independent oracles based on their defining
commutator characterizations.

Every operator is stored as an integer core ``(num, den)``: ``num`` maps
exponent tuples to coefficient dicts of ints and ``den > 0`` is one
denominator for all of them, with gcd(den, every numerator) == 1 and
den == 1 for the zero operator (the content/primitive-part form).  Over
F_p the ints are residues and den is 1.  The core functions
(``canonical``, ``core_sum``, ``core_mul``, ``core_pow``) work on such
pairs, so the kernels only ever see ints; ``core_sum``, from ``_kernels``,
is the one sum, and ``+``, ``-`` and ``DiffOp(ring, terms)`` go through it.
A ``Polynomial`` is stored the same way, so a coefficient passes between
the two as its core; ``DiffOp.terms``, the view with ``Polynomial``
coefficients, is built on read.  The core, sums, negation and equality
come from ``poly.CoreElement``, the base of both element types.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels as K
from . import exponents
from ._kernels import canonical, core_sum
from .errors import DomainError
from .poly import CoreElement, Polynomial, PolyRing, canonical as poly_canonical


def core_mul(a, b, p: int):
    """Normal-ordered product of two cores, a first."""
    return canonical(K.diffop_mul(a[0], b[0], p), a[1] * b[1])


def core_pow(a, n: int, p: int, nvars: int):
    """a**n by squaring; n == 0 gives the constant 1.

    A base of one term of order 0, c*x^m over den, takes its closed form
    c^n*x^(n*m) over den^n (``_kernels.poly_pow``) and forms no product.
    Over Q a c^n or den^n past ``BINOM_BITS_LIMIT`` bits is refused before
    it is built (``_kernels.int_power``).
    """
    zero = (0,) * nvars
    if n == 0:
        return {zero: {zero: 1}}, 1
    f = a[0].get(zero)
    if len(a[0]) == 1 and f is not None and len(f) == 1:
        return {zero: K.poly_pow(f, n, p)}, K.int_power(a[1], n)
    result = None
    while True:
        if n & 1:
            result = a if result is None else core_mul(result, a, p)
        n >>= 1
        if not n:
            return result
        a = core_mul(a, a, p)


class DiffOp(CoreElement):
    """Operator in normal form over an integer core (module docstring).

    ``DiffOp(ring, terms)`` builds one from the field view: exponent tuple
    -> polynomial of the ambient ring or scalar, each exponent through
    ``exponents.check``, each scalar through ``PolyRing.constant``, and
    zero coefficients dropped.
    """

    __slots__ = ()

    def __init__(self, ring: PolyRing, terms):
        parts = []
        for alpha, f in terms.items():
            alpha = exponents.check(alpha, ring.nvars)
            if not isinstance(f, Polynomial):
                f = ring.constant(f)
            if f.ring != ring:
                raise DomainError("coefficient ring mismatch")
            if f.num:
                parts.append(({alpha: f.num}, f.den, 1))
        self.ring = ring
        self.num, self.den = core_sum(parts, ring.characteristic)

    @property
    def terms(self) -> dict:
        """The field view: exponent tuple -> nonzero ``Polynomial``."""
        ring, den = self.ring, self.den
        return {alpha: Polynomial._core(ring, poly_canonical(f, den))
                for alpha, f in self.num.items()}

    # -- factories -------------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing) -> DiffOp:
        return cls._core(ring, ({}, 1))

    @classmethod
    def from_poly(cls, f: Polynomial) -> DiffOp:
        """The multiplication operator by f."""
        if f.is_zero():
            return cls.zero(f.ring)
        return cls._core(f.ring, ({(0,) * f.ring.nvars: f.num}, f.den))

    @classmethod
    def constant(cls, ring: PolyRing, c) -> DiffOp:
        return cls.from_poly(ring.constant(c))

    @classmethod
    def basis(cls, ring: PolyRing, alpha) -> DiffOp:
        """The divided-power basis operator d^[alpha]."""
        alpha = exponents.check(alpha, ring.nvars)
        return cls._core(ring, ({alpha: {(0,) * ring.nvars: 1}}, 1))

    @classmethod
    def partial(cls, ring: PolyRing, i: int) -> DiffOp:
        """The first-order derivative in the i-th variable."""
        return cls.basis(ring, exponents.unit(i, ring.nvars))

    @classmethod
    def from_terms(cls, ring: PolyRing, mapping) -> DiffOp:
        return cls(ring, mapping)

    # -- structure ---------------------------------------------------------

    def coefficient(self, alpha) -> Polynomial:
        f = self.num.get(tuple(alpha))
        if f is None:
            return self.ring.zero()
        return Polynomial._core(self.ring, poly_canonical(f, self.den))

    def order(self) -> int:
        """Largest |alpha| in the support; -1 for the zero operator."""
        if not self.num:
            return -1
        return max(sum(a) for a in self.num)

    def level(self) -> int:
        """Smallest e with every supported exponent below p^e componentwise.

        Characteristic p only; this is the least level subring (operators
        linear over the p^e-th powers) containing the operator.  The zero
        operator has level 0.
        """
        p = self.ring.characteristic
        if p == 0:
            raise DomainError("level filtration requires characteristic p > 0")
        e = 0
        for alpha in self.num:
            for a in alpha:
                while a > p**e - 1:
                    e += 1
        return e

    def constant_term(self) -> Polynomial:
        """The coefficient at exponent 0, i.e. the value on 1."""
        return self.coefficient((0,) * self.ring.nvars)

    def is_derivation(self) -> bool:
        """Order <= 1 with no multiplication part (Leibniz rule holds)."""
        return all(sum(a) == 1 for a in self.num)

    # -- application and arithmetic ----------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise DomainError("operator/polynomial ring mismatch")
        return Polynomial._core(self.ring, poly_canonical(
            K.diffop_apply(self.num, f.num, self.ring.characteristic), self.den * f.den
        ))

    def __call__(self, f: Polynomial) -> Polynomial:
        return self.apply(f)

    def _coerce(self, other):
        if isinstance(other, CoreElement):  # an operator or a polynomial
            if other.ring != self.ring:
                raise DomainError("operator ring mismatch")
            return other if isinstance(other, DiffOp) else DiffOp.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return DiffOp.constant(self.ring, other)
        return None

    def _sum(self, *parts):
        """The sum of the parts (class ``CoreElement``), by ``core_sum``."""
        return DiffOp._core(self.ring, core_sum(parts, self.ring.characteristic))

    def __mul__(self, other):
        """Noncommutative product, self first; renormalizes."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DiffOp._core(self.ring, core_mul(
            (self.num, self.den), (other.num, other.den), self.ring.characteristic
        ))

    def __rmul__(self, other):
        """other * self for polynomial or scalar left factors."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("operator powers must be natural numbers")
        ring = self.ring
        return DiffOp._core(ring, core_pow((self.num, self.den), n, ring.characteristic,
                                           ring.nvars))

    def __str__(self):
        from .render import render_op

        return render_op(self)


def bracket(xi: DiffOp, eta) -> DiffOp:
    """Commutator xi*eta - eta*xi; ``eta`` may be anything ``DiffOp``
    arithmetic accepts.

    The associated graded ring is commutative: in [f*d^[alpha], g*d^[beta]]
    the leading terms f*g*C(alpha+beta, alpha)*d^[alpha+beta] of the two
    products cancel, so the bracket of operators of orders m and n has
    order at most m+n-1.  ``_kernels.diffop_bracket`` forms both products
    in one accumulator without those terms, and refuses exactly where the
    two products would.
    """
    other = xi._coerce(eta)
    if other is None:
        raise TypeError(f"cannot bracket an operator with {type(eta).__name__}")
    return DiffOp._core(xi.ring, canonical(
        K.diffop_bracket(xi.num, other.num, xi.ring.characteristic),
        xi.den * other.den,
    ))


def order_by_bracket_oracle(xi: DiffOp, degree_bound: int = 2) -> int:
    """Order via the inductive commutator characterization.

    Recursively brackets against every monomial of positive degree up to
    ``degree_bound`` and reports the depth at which all results land in
    the ring.  Agrees with :meth:`DiffOp.order` for every bound >= 1; the
    bound is a testing heuristic, not part of the contract.
    """
    if xi.is_zero():
        raise DomainError("bracket oracle is undefined on the zero operator")
    if degree_bound < 1:
        raise DomainError("degree_bound must be >= 1")
    ring = xi.ring
    monomials = [
        DiffOp.from_poly(ring.monomial(e))
        for d in range(1, degree_bound + 1)
        for e in exponents.iter_graded(ring.nvars, d)
    ]

    def depth(op: DiffOp) -> int:
        if op.is_zero():
            return -1
        if all(sum(a) == 0 for a in op.num):
            return 0
        return 1 + max(depth(bracket(op, m)) for m in monomials)

    return depth(xi)


def level_by_commutation_oracle(xi: DiffOp, e: int, degree_bound: int = 3) -> bool:
    """Check linearity over the p^e-th powers by commutation.

    True iff the operator commutes with f^(p^e) for every monomial f of
    degree at most ``degree_bound``.
    """
    p = xi.ring.characteristic
    if p == 0:
        raise DomainError("level oracle requires characteristic p > 0")
    if e < 0:
        raise DomainError("level e must be a natural number")
    q = p**e
    ring = xi.ring
    for exp in exponents.iter_up_to_degree(ring.nvars, degree_bound):
        f = DiffOp.from_poly(ring.monomial(exp)) ** q
        if not bracket(xi, f).is_zero():
            return False
    return True


def operator_from_monomial_values(ring: PolyRing, values) -> DiffOp:
    """Reconstruct the normal form of an operator from monomial values: the
    test oracle for ``levelmatrix.to_operator`` and the transport.

    ``values`` maps exponent tuples to the operator's values on those
    monomials.  The index set must be downward closed; the divided-power
    coefficients then satisfy a triangular system with unit diagonal that
    is solved by increasing total degree.
    """
    table = {tuple(b): v for b, v in dict(values).items()}
    for beta in table:
        for j, b in enumerate(beta):
            if b and tuple(
                x - 1 if i == j else x for i, x in enumerate(beta)
            ) not in table:
                raise DomainError(
                    f"value index set not downward closed below {beta}"
                )
    solved: list = []
    for beta in sorted(table, key=lambda b: (sum(b), b)):
        acc = table[beta]
        for alpha, f in solved:
            if exponents.leq(alpha, beta):
                c = exponents.multinomial(beta, alpha)
                acc = acc - f * ring.monomial(exponents.subtract(beta, alpha)) * c
        if not acc.is_zero():
            solved.append((beta, acc))
    return DiffOp.from_terms(ring, dict(solved))
