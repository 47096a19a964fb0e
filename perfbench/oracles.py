"""Answers computed without the package's kernels, for the answer checks.

Characteristic-0 operator application is recomputed with sympy: the
divided-power symbol d[alpha] acts as the alpha-th partial derivative
divided by alpha!.  Polynomials are compared as ``{exponent: Fraction}``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import sympy


def as_dict(f) -> dict:
    """A package polynomial as ``{exponent: Fraction}``."""
    return {exp: Fraction(c) for exp, c in f.terms.items()}


def _to_sympy(terms: dict, gens):
    return sympy.Poly.from_dict(
        {exp: sympy.Rational(c.numerator, c.denominator) for exp, c in terms.items()}
        or {(0,) * len(gens): 0},
        *gens,
        domain=sympy.QQ,
    )


def _from_sympy(poly) -> dict:
    return {
        exp: Fraction(int(c.numerator), int(c.denominator))
        for exp, c in poly.as_dict().items()
        if c != 0
    }


def sympy_apply(op, f) -> dict:
    """Value of a characteristic-0 operator on a polynomial, by sympy.

    ``f`` is a package polynomial or a ``{exponent: Fraction}`` dict.
    """
    terms = f if isinstance(f, dict) else as_dict(f)
    n = op.ring.nvars
    gens = sympy.symbols(f"y0:{n}")
    target = _to_sympy(terms, gens)
    total = _to_sympy({}, gens)
    for alpha, coeff in op.terms.items():
        specs = [(g, a) for g, a in zip(gens, alpha) if a]
        der = target.diff(*specs) if specs else target
        if der.is_zero:
            continue
        denom = 1
        for a in alpha:
            denom *= factorial(a)
        total += _to_sympy(as_dict(coeff), gens) * der * sympy.Rational(1, denom)
    return _from_sympy(total)


def poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
        v = out.get(exp, 0) - c
        if v:
            out[exp] = v
        else:
            out.pop(exp, None)
    return out
