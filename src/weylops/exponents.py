"""Multi-exponent combinatorics.

A multi-exponent is a tuple of naturals of fixed length n (the variable
count of the ambient ring).  The partial order is componentwise; all
binomial products are exact integers (Python bigints, so totals well past
64 are safe), refused past the kernels' size guardrail.
"""

from __future__ import annotations

import itertools

from ._kernels import binom_product
from .errors import DomainError


def check_arity(alpha, nvars: int):
    if len(alpha) != nvars:
        raise DomainError(
            f"multi-exponent {alpha} has arity {len(alpha)}, expected {nvars}"
        )


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
    total = 0
    for beta in iter_leq(sigma):
        term = multinomial(sigma, beta)
        if degree(beta) % 2:
            total -= term
        else:
            total += term
    return total
