"""Multi-exponent combinatorics.

A multi-exponent is a tuple of naturals of fixed length n (the variable
count of the ambient ring).  Every one given from outside (a key of
``Polynomial(ring, terms)`` or ``DiffOp(ring, terms)``, a basis symbol, an
Artinian monomial) goes through :func:`check`, every variable index
through :func:`unit` and a level e through :func:`check_level`, so a float,
``bool`` or negative entry is a ``DomainError``; the messages quote no
value, since a long int cannot be printed.  The partial order is
componentwise; all binomial products are exact integers (Python bigints,
so totals well past 64 are safe), refused past the kernels' size
guardrail.
"""

from __future__ import annotations

import itertools

from ._kernels import binom_product
from .errors import DomainError


def check_level(e) -> int:
    """e as a level, the e of p^e: an int (not a bool) >= 0, else ``DomainError``."""
    if type(e) is not int or e < 0:
        raise DomainError("level e must be a natural number")
    return e


def check(alpha, nvars: int | None = None) -> tuple:
    """alpha as a multi-exponent: a tuple of ints (not bools) >= 0, of
    length nvars when that is given, else ``DomainError``."""
    try:
        alpha = tuple(alpha)
    except TypeError:
        raise DomainError("a multi-exponent must be a sequence") from None
    if nvars is not None and len(alpha) != nvars:
        raise DomainError(f"multi-exponent has arity {len(alpha)}, expected {nvars}")
    if not all(type(a) is int and a >= 0 for a in alpha):
        raise DomainError("multi-exponent entries must be natural numbers")
    return alpha


def unit(i, nvars: int) -> tuple:
    """The multi-exponent e_i of length nvars, for an int index 0 <= i < nvars."""
    if type(i) is not int or not 0 <= i < nvars:
        raise DomainError("variable index out of range")
    return (0,) * i + (1,) + (0,) * (nvars - 1 - i)


def subtract(alpha, beta):
    return tuple(a - b for a, b in zip(alpha, beta))


def leq(alpha, beta) -> bool:
    """Componentwise alpha <= beta."""
    return all(a <= b for a, b in zip(alpha, beta))


def degree(alpha) -> int:
    return sum(alpha)


def iter_leq(alpha):
    """All multi-exponents beta with beta <= alpha, lex order."""
    return itertools.product(*(range(a + 1) for a in alpha))


def iter_graded(nvars: int, total: int):
    """All multi-exponents of length nvars with |beta| == total."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in iter_graded(nvars - 1, total - first):
            yield (first,) + rest


def iter_up_to_degree(nvars: int, max_degree: int):
    """All multi-exponents with |beta| <= max_degree, by increasing degree."""
    for d in range(max_degree + 1):
        yield from iter_graded(nvars, d)


def multinomial(alpha, beta, p: int = 0) -> int:
    """alpha! / (beta! (alpha-beta)!): an exact integer, or its residue in
    characteristic p.

    Equals the product of the componentwise binomials, computed by
    ``_kernels.binom_product`` (Lucas' theorem mod p, and its size
    guardrail).  Rejects beta that is not componentwise below alpha.
    """
    if len(alpha) != len(beta):
        raise DomainError("multi-exponent arity mismatch")
    if not leq(beta, alpha):
        raise DomainError(f"{beta} is not componentwise <= {alpha}")
    return binom_product(alpha, beta, p)


def alternating_multinomial_sum(sigma) -> int:
    """Sum of (-1)^|beta| sigma!/(beta! delta!) over all beta + delta = sigma.

    Brute-force enumeration over all beta <= sigma; exact integer result.
    The value is 1 at sigma = 0 and vanishes for every nonzero sigma.
    """
    return sum((-1) ** degree(beta) * multinomial(sigma, beta) for beta in iter_leq(sigma))
