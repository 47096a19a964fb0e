"""Term kernels.

These are the inner loops of the whole package: sparse polynomial
arithmetic (``poly_add``, ``poly_neg``, ``poly_scale``, ``poly_mul``), the
divided-power derivatives (``partial_apply``, ``diffop_apply``), the
normal-ordered operator product (``diffop_mul``) and the standard
transposition (``diffop_transpose``).

Data layout (no classes here, wrappers live in ``poly``/``diffop``):

* polynomial: dict mapping exponent tuple -> nonzero coefficient
  (Fraction in characteristic 0, int residue mod p otherwise);
* operator:   dict mapping exponent tuple -> polynomial dict, the left
  coefficient of the divided-power basis element for that exponent.

``p`` is the characteristic, 0 meaning the rationals.  All functions
return canonical dicts (no zero values stored) and never mutate inputs.
"""

from itertools import product as _product
from math import comb as _comb

from .errors import DomainError

KERNEL_BACKEND = "python"
# largest exact binomial coefficient, in bits, that the kernels build
BINOM_BITS_LIMIT = 1 << 14


def poly_add(a, b, p):
    out = dict(a)
    for exp, c in b.items():
        acc = out.get(exp)
        if acc is None:
            out[exp] = c
            continue
        acc = (acc + c) % p if p else acc + c
        if acc:
            out[exp] = acc
        else:
            del out[exp]
    return out


def poly_neg(a, p):
    if p:
        return {exp: (-c) % p for exp, c in a.items()}
    return {exp: -c for exp, c in a.items()}


def poly_scale(a, c, p):
    if p:
        c %= p
    if not c:
        return {}
    out = {}
    for exp, v in a.items():
        v = (v * c) % p if p else v * c
        if v:
            out[exp] = v
    return out


def poly_mul(a, b, p):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            c = (ca * cb) % p if p else ca * cb
            if not c:
                continue
            exp = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(exp)
            if acc is None:
                out[exp] = c
                continue
            acc = (acc + c) % p if p else acc + c
            if acc:
                out[exp] = acc
            else:
                del out[exp]
    return out


def _comb_bounded(b, a):
    """C(b, a) as an exact int, refused before any work when its size bound
    min(b, min(a, b - a) * bitlen(b)) exceeds BINOM_BITS_LIMIT bits."""
    if b > BINOM_BITS_LIMIT and min(a, b - a) * b.bit_length() > BINOM_BITS_LIMIT:
        raise DomainError(
            f"binomial C({b}, {a}) may exceed the guardrail of "
            f"{BINOM_BITS_LIMIT} bits"
        )
    return _comb(b, a)


def binom_product(beta, alpha, p):
    """Product of componentwise binomials C(beta_i, alpha_i): an exact int
    in characteristic 0, the residue mod p otherwise.

    C(b, a) < 2^b, so b <= BINOM_BITS_LIMIT is computed directly.  Beyond
    that, characteristic p multiplies the binomials of the base-p digits
    (Lucas' theorem) and characteristic 0 checks the size first.
    """
    out = 1
    for b, a in zip(beta, alpha):
        if a > b:
            return 0
        if b <= BINOM_BITS_LIMIT:
            out *= _comb(b, a)
        elif p:
            while a:
                b, b0 = divmod(b, p)
                a, a0 = divmod(a, p)
                if a0 > b0:
                    return 0
                out = out * _comb_bounded(b0, a0) % p
        else:
            out *= _comb_bounded(b, a)
    return out % p if p else out


def partial_apply(gamma, f, p):
    """Apply the divided-power basis operator for gamma to a polynomial."""
    out = {}
    for beta, c in f.items():
        co = binom_product(beta, gamma, p)
        if not co:
            continue
        c = (c * co) % p if p else c * co
        if not c:
            continue
        exp = tuple(b - g for b, g in zip(beta, gamma))
        acc = out.get(exp)
        if acc is None:
            out[exp] = c
            continue
        acc = (acc + c) % p if p else acc + c
        if acc:
            out[exp] = acc
        else:
            del out[exp]
    return out


def diffop_apply(xi, f, p):
    """Value of the operator on a polynomial: sum of f_alpha * d^[alpha](f)."""
    out = {}
    for alpha, coeff in xi.items():
        df = partial_apply(alpha, f, p)
        if not df:
            continue
        out = poly_add(out, poly_mul(coeff, df, p), p)
    return out


def diffop_mul(xi, eta, p):
    """Normal-ordered product of two operators in left-coefficient form.

    Each pairing of a term f*d^[alpha] with g*d^[beta] is renormalized by
    commuting d^[alpha] past g (summing d^[gamma](g) against the
    complementary divided powers) and composing the remaining basis
    elements, whose product carries the integer multinomial factor.  Only
    gamma up to the top exponents of g contribute: d^[gamma](g) is 0 once
    some gamma_i exceeds every exponent of x_i in g.
    """
    out = {}
    # per term of eta, one past the top exponent of each variable in g
    terms = [(beta, g, [max(c) + 1 for c in zip(*g)]) for beta, g in eta.items()]
    for alpha, f in xi.items():
        if not any(alpha):
            # f*d^[0] is already normal-ordered against every g*d^[beta]; the
            # loop below gives the same f*g at beta, but only after copying g
            # through partial_apply and a binomial per pair
            for beta, g, _ in terms:
                contrib = poly_mul(f, g, p)
                if contrib:
                    acc = out.get(beta)
                    out[beta] = poly_add(acc, contrib, p) if acc else contrib
            continue
        alpha_ends = [a + 1 for a in alpha]
        for beta, g, g_ends in terms:
            for gamma in _product(*map(range, map(min, alpha_ends, g_ends))):
                dg = partial_apply(gamma, g, p)
                if not dg:
                    continue
                delta = tuple(a - c for a, c in zip(alpha, gamma))
                target = tuple(d + b for d, b in zip(delta, beta))
                factor = binom_product(target, delta, p)
                if not factor:
                    continue
                contrib = poly_mul(f, dg, p)
                if factor != 1:
                    contrib = poly_scale(contrib, factor, p)
                if not contrib:
                    continue
                acc = out.get(target)
                out[target] = poly_add(acc, contrib, p) if acc else contrib
    return {exp: coeff for exp, coeff in out.items() if coeff}


def diffop_transpose(xi, p):
    """Standard transposition: each term f*d^[alpha] goes to
    (-1)^|alpha| d^[alpha]*f, normal-ordered in one pass by the
    divided-power Leibniz rule d^[alpha]*f = sum over gamma <= alpha of
    d^[gamma](f)*d^[alpha-gamma] (no binomial factor).  As in ``diffop_mul``,
    gamma stops at the top exponents of f.
    """
    out = {}
    for alpha, f in xi.items():
        odd = sum(alpha) % 2
        alpha_ends = [a + 1 for a in alpha]
        f_ends = [max(c) + 1 for c in zip(*f)]
        for gamma in _product(*map(range, map(min, alpha_ends, f_ends))):
            df = partial_apply(gamma, f, p)
            if not df:
                continue
            if odd:
                df = poly_neg(df, p)
            target = tuple(a - c for a, c in zip(alpha, gamma))
            acc = out.get(target)
            out[target] = poly_add(acc, df, p) if acc else df
    return {exp: coeff for exp, coeff in out.items() if coeff}
