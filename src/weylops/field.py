"""Exact coefficient fields: the rationals and prime fields F_p.

Field values are plain Python values without a wrapper object:

* characteristic 0: `fractions.Fraction` (always in lowest terms,
  positive denominator);
* characteristic p: `int` residues in ``{0, ..., p-1}``.

Matrices store these values, and eliminate on ints (see
:mod:`weylops.linalg`).  Polynomials and operators over Q do not: they
keep integer numerators over one common denominator (see
:mod:`weylops.poly` and :mod:`weylops.diffop`), so their kernels work on
ints, and show field values only in their ``terms`` view.

A :class:`FieldSpec` carries the characteristic, coerces values into the
field, and adds and multiplies field values.  No floating point appears
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin over the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, 2015); larger characteristics are refused.
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The exact coefficient field k: Q (characteristic 0) or F_p."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        # checked before any arithmetic; a message quotes the value only
        # when it is below the limit, so it always prints
        if type(characteristic) is not int:
            raise DomainError("characteristic must be 0 or a prime, given as an int")
        if abs(characteristic) >= PRIME_LIMIT:
            raise DomainError("characteristic must be 0 or a prime below the "
                              f"primality-test limit {PRIME_LIMIT}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise DomainError(
                f"characteristic must be 0 or a prime, got {characteristic}"
            )
        self.characteristic = characteristic

    @property
    def is_modular(self) -> bool:
        return self.characteristic != 0

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec)
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash(("FieldSpec", self.characteristic))

    def __repr__(self):
        if self.characteristic == 0:
            return "FieldSpec(QQ)"
        return f"FieldSpec(GF({self.characteristic}))"

    # -- element construction ------------------------------------------

    # the methods below test ``self.characteristic`` directly: reading the
    # ``is_modular`` property costs a call on every scalar operation

    def zero(self):
        return 0 if self.characteristic else Fraction(0)

    def one(self):
        return 1 if self.characteristic else Fraction(1)

    def from_int(self, n: int):
        if self.characteristic:
            return n % self.characteristic
        return Fraction(n)

    def coerce(self, value):
        """Coerce an int, Fraction or string like ``-3/4`` into the field."""
        if isinstance(value, str):
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"not a rational literal: {value!r}") from exc
        if isinstance(value, bool):
            raise DomainError("booleans are not field elements")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            p = self.characteristic
            if not p:
                return value
            den = value.denominator % p
            if den == 0:
                raise DomainError(
                    f"denominator {value.denominator} is not invertible mod {p}"
                )
            return value.numerator * pow(den, p - 2, p) % p
        raise DomainError(f"cannot coerce {value!r} into {self!r}")

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

    def is_zero(self, a) -> bool:
        p = self.characteristic
        return (a % p if p else a) == 0
