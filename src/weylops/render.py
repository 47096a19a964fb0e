"""Canonical text and JSON rendering.

All orderings are fixed so output is byte-stable: polynomial terms in
descending graded-lex order, operator terms by descending basis degree
then descending lex on the exponent.  The JSON layer is versioned under
the ``weyl-op/1`` schema tag; coefficients are rendered as exact decimal
or fraction strings.

Polynomials and operators are rendered from their integer core: each
coefficient is the numerator over the one denominator, printed as
``str(Fraction(c, den))`` would print it (one ``gcd``), so no
``Fraction`` is built to print it.  Level matrices are
written from their nonzero cells.

The JSON payloads reuse the tuples the core already holds: each
exponent, each basis monomial and ``vars`` are the core's own tuples, and
an empty level-matrix cell is the shared empty tuple ``()``.  Both of
``json``'s encoders write a tuple as an array, so the JSON text is the
same as from lists; what is saved is a list per term that the garbage
collector would have to track until the answer is dropped.

Python refuses to convert an integer of more than
``sys.get_int_max_str_digits()`` decimal digits to a string; the text
forms here, and the CLI's ``json.dumps``, turn that ``ValueError`` for a
coefficient or an exponent into ``too_many_digits``' ``DomainError``.
"""

from __future__ import annotations

import sys
from math import gcd

from .errors import DomainError

SCHEMA = "weyl-op/1"


def too_many_digits(what: str = "a coefficient") -> DomainError:
    return DomainError(
        f"{what} has more than {sys.get_int_max_str_digits()} decimal "
        "digits, Python's limit for printing an integer"
    )


def int_text(v: int, what: str) -> str:
    """str(v), refused by ``too_many_digits(what)`` past the limit."""
    try:
        return str(v)
    except ValueError:
        raise too_many_digits(what) from None


def _sorted_exponents(terms):
    """Exponents by descending total degree, then descending lex: two
    stable sorts on built-in keys."""
    if len(terms) == 1:
        return list(terms)
    out = sorted(terms, reverse=True)
    out.sort(key=sum, reverse=True)
    return out


def _fraction_str(c: int, den: int) -> str:
    """The text of c/den, den > 1, as ``str(Fraction(c, den))`` prints it.
    Callers print c itself when den == 1."""
    g = gcd(c, den)
    if g == den:
        return str(c // g)
    return f"{c // g}/{den // g}"


def _monomial_str(ring, exp) -> str:
    parts = []
    for name, e in zip(ring.var_names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{int_text(e, 'an exponent')}")
    return "*".join(parts)


def _poly_text(ring, terms: dict, den: int) -> str:
    """Canonical text of the polynomial with coefficients terms/den."""
    if not terms:
        return "0"
    chunks = []
    for exp in _sorted_exponents(terms):
        mono = _monomial_str(ring, exp)
        try:
            c = terms[exp]
            cs = str(c) if den == 1 else _fraction_str(c, den)
        except ValueError:
            raise too_many_digits() from None
        negative = cs.startswith("-")
        if negative:
            cs = cs[1:]
        if mono:
            body = mono if cs == "1" else f"{cs}*{mono}"
        else:
            body = cs
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def render_poly(f) -> str:
    """Canonical text form of a polynomial."""
    return _poly_text(f.ring, f.num, f.den)


def _basis_symbol(alpha) -> str:
    return "d[" + ",".join(int_text(a, "an exponent") for a in alpha) + "]"


def render_op(xi) -> str:
    """Canonical text form of an operator in normal form, read from its
    integer core."""
    if xi.is_zero():
        return "0"
    ring, num, den = xi.ring, xi.num, xi.den
    chunks = []
    for alpha in _sorted_exponents(num):
        coeff = _poly_text(ring, num[alpha], den)
        negative = coeff.startswith("-")
        if not any(alpha):
            # the order-0 part joins the sum as plain polynomial terms
            body = coeff[1:] if negative else coeff
        else:
            sym = _basis_symbol(alpha)
            if len(num[alpha]) == 1:
                cs = coeff[1:] if negative else coeff
                body = sym if cs == "1" else f"{cs}*{sym}"
            else:
                body = f"({coeff})*{sym}"
                negative = False
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def _terms_json(terms: dict, den: int) -> list:
    """JSON terms of the polynomial with coefficients terms/den."""
    try:
        return [
            {"exponent": exp,
             "coefficient": str(terms[exp]) if den == 1 else _fraction_str(terms[exp], den)}
            for exp in _sorted_exponents(terms)
        ]
    except ValueError:
        raise too_many_digits() from None


def poly_json(f) -> dict:
    ring = f.ring
    return {
        "schema": SCHEMA,
        "kind": "polynomial",
        "characteristic": ring.characteristic,
        "vars": ring.var_names,
        "terms": _terms_json(f.num, f.den),
    }


def op_json(xi) -> dict:
    """JSON form of an operator, read from its integer core."""
    ring, num, den = xi.ring, xi.num, xi.den
    return {
        "schema": SCHEMA,
        "kind": "operator",
        "characteristic": ring.characteristic,
        "vars": ring.var_names,
        "terms": [
            {"exponent": alpha, "coefficient": _terms_json(num[alpha], den)}
            for alpha in _sorted_exponents(num)
        ],
    }


def level_matrix_json(m) -> dict:
    """JSON form of a level matrix: the dense grid written from its cells,
    ``()`` for an empty cell."""
    ring, cells, n = m.ring, m.cells, range(m.basis.size)
    return {
        "schema": SCHEMA,
        "kind": "level-matrix",
        "characteristic": ring.characteristic,
        "vars": ring.var_names,
        "e": m.e,
        "size": m.basis.size,
        "basis": m.basis.monomials,
        "entries": [
            [_terms_json(cells[r, c], 1) if (r, c) in cells else () for c in n]
            for r in n
        ],
    }


def scalar_matrix_json(mat) -> list:
    try:
        return [[str(v) for v in row] for row in mat.rows]
    except ValueError:
        raise too_many_digits() from None
