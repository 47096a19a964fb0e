"""Canonical text and JSON rendering.

All orderings are fixed so output is byte-stable: polynomial terms in
descending graded-lex order, operator terms by descending basis degree
then descending lex on the exponent.  The JSON layer is versioned under
the ``weyl-op/1`` schema tag; coefficients are rendered as exact decimal
or fraction strings.

Python refuses to convert an integer of more than
``sys.get_int_max_str_digits()`` decimal digits to a string; the entry
points that print coefficients turn that ``ValueError`` into a
``DomainError``.
"""

from __future__ import annotations

import sys

from .errors import DomainError

SCHEMA = "weyl-op/1"


def _too_many_digits() -> DomainError:
    return DomainError(
        f"a coefficient has more than {sys.get_int_max_str_digits()} decimal "
        "digits, Python's limit for printing an integer"
    )


def _sorted_exponents(terms):
    return sorted(terms, key=lambda e: (sum(e), e), reverse=True)


def _monomial_str(ring, exp) -> str:
    parts = []
    for name, e in zip(ring.var_names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_poly(f) -> str:
    """Canonical text form of a polynomial."""
    if f.is_zero():
        return "0"
    ring = f.ring
    chunks = []
    for exp in _sorted_exponents(f.terms):
        c = f.terms[exp]
        mono = _monomial_str(ring, exp)
        try:
            cs = str(c)
        except ValueError:
            raise _too_many_digits() from None
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


def _basis_symbol(alpha) -> str:
    return "d[" + ",".join(str(a) for a in alpha) + "]"


def render_op(xi) -> str:
    """Canonical text form of an operator in normal form."""
    if xi.is_zero():
        return "0"
    ring = xi.ring
    chunks = []
    for alpha in _sorted_exponents(xi.terms):
        coeff = xi.terms[alpha]
        if sum(alpha) == 0:
            # the order-0 part joins the sum as plain polynomial terms
            body = render_poly(coeff)
            negative = body.startswith("-")
            if negative:
                body = body[1:]
        else:
            sym = _basis_symbol(alpha)
            if len(coeff.terms) == 1:
                cs = render_poly(coeff)
                negative = cs.startswith("-")
                if negative:
                    cs = cs[1:]
                body = sym if cs == "1" else f"{cs}*{sym}"
            else:
                body = f"({render_poly(coeff)})*{sym}"
                negative = False
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def poly_terms_json(f) -> list:
    try:
        return [
            {"exponent": list(exp), "coefficient": str(f.terms[exp])}
            for exp in _sorted_exponents(f.terms)
        ]
    except ValueError:
        raise _too_many_digits() from None


def poly_json(f) -> dict:
    ring = f.ring
    return {
        "schema": SCHEMA,
        "kind": "polynomial",
        "characteristic": ring.characteristic,
        "vars": list(ring.var_names),
        "terms": poly_terms_json(f),
    }


def op_json(xi) -> dict:
    ring = xi.ring
    return {
        "schema": SCHEMA,
        "kind": "operator",
        "characteristic": ring.characteristic,
        "vars": list(ring.var_names),
        "terms": [
            {
                "exponent": list(alpha),
                "coefficient": poly_terms_json(xi.terms[alpha]),
            }
            for alpha in _sorted_exponents(xi.terms)
        ],
    }


def level_matrix_json(m) -> dict:
    ring = m.ring
    return {
        "schema": SCHEMA,
        "kind": "level-matrix",
        "characteristic": ring.characteristic,
        "vars": list(ring.var_names),
        "e": m.e,
        "size": m.basis.size,
        "basis": [list(lam) for lam in m.basis.monomials],
        "entries": [[poly_terms_json(v) for v in row] for row in m.entries],
    }


def scalar_matrix_json(mat) -> list:
    try:
        return [[str(v) for v in row] for row in mat.rows]
    except ValueError:
        raise _too_many_digits() from None
