"""Term kernels.

These are the inner loops of the whole package: sparse polynomial
arithmetic (``poly_add``, ``poly_neg``, ``poly_scale``, ``poly_mul``,
``poly_pow``) and substitution (``poly_substitute``), the
divided-power derivatives (``partial_apply``, ``diffop_apply``), operator
sums (``diffop_add``, ``diffop_neg``, ``diffop_scale``), the
normal-ordered operator product (``diffop_mul``) and the standard
transposition (``diffop_transpose``).

Data layout (no classes here, wrappers live in ``poly``/``diffop``):

* polynomial: dict mapping exponent tuple -> nonzero coefficient;
* operator:   dict mapping exponent tuple -> polynomial dict, the left
  coefficient of the divided-power basis element for that exponent.

In characteristic p a coefficient is an int residue mod p.  In
characteristic 0 the operator kernels receive the integer numerators of
an operator whose one common denominator is kept by ``diffop`` (the
integer core), so their coefficients are ints as well; ``Polynomial``
still stores ``Fraction`` values, and the polynomial kernels accept them.

``p`` is the characteristic, 0 meaning the rationals.  All functions
return canonical dicts (no zero values stored) and never mutate inputs.

One bound, ``WORK_LIMIT`` coefficient products, holds in every kernel
whose output can outgrow its inputs: ``diffop_mul`` counts
|f|*|g|*prod_i min(alpha_i+1, top_i(g)+1) per pair of terms f*d^[alpha],
g*d^[beta] (|f|*|g| for alpha = 0), ``diffop_transpose`` counts
|f|*prod_i min(alpha_i+1, top_i(f)+1) per term, and ``poly_pow`` and
``poly_substitute`` count |a|*|b| per product.  Past the bound a call raises
``DomainError`` before the work it counts.  ``poly_mul`` checks nothing.
"""

from itertools import product as _product
from math import comb as _comb, prod as _prod

from .errors import DomainError

KERNEL_BACKEND = "python"
# largest exact binomial coefficient, in bits, that the kernels build
BINOM_BITS_LIMIT = 1 << 14
# most coefficient products one kernel call may form (module docstring)
WORK_LIMIT = 1 << 17


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


def _refuse(what):
    raise DomainError(f"{what} needs more coefficient products than the "
                      f"guardrail of {WORK_LIMIT}")


def _bounded_mul(a, b, p):
    """poly_mul, refused before it forms more than WORK_LIMIT products."""
    if len(a) * len(b) > WORK_LIMIT:
        _refuse("a polynomial product")
    return poly_mul(a, b, p)


def poly_pow(a, e, p):
    """a**e for e >= 1, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else _bounded_mul(out, a, p)
        e >>= 1
        if not e:
            return out
        a = _bounded_mul(a, a, p)


def poly_substitute(f, images, p, powers):
    """f with each variable x_i replaced by the polynomial images[i].

    ``powers`` caches images[i]**e under (i, e); substitutions through the
    same images may share it.
    """
    out = {}
    for exp, c in f.items():
        term = None
        for i, e in enumerate(exp):
            if e:
                pw = powers.get((i, e))
                if pw is None:
                    pw = powers[i, e] = poly_pow(images[i], e, p)
                term = pw if term is None else _bounded_mul(term, pw, p)
        if term is None:
            term = {exp: 1}  # the constant term; exp is all zeros
        # c and every coefficient of term are nonzero, so is their product
        for exp2, v in term.items():
            v = (v * c) % p if p else v * c
            acc = out.get(exp2)
            if acc is None:
                out[exp2] = v
                continue
            acc = (acc + v) % p if p else acc + v
            if acc:
                out[exp2] = acc
            else:
                del out[exp2]
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


def diffop_add(xi, eta, p):
    out = dict(xi)
    for alpha, g in eta.items():
        f = out.get(alpha)
        if f is None:
            out[alpha] = g
            continue
        h = poly_add(f, g, p)
        if h:
            out[alpha] = h
        else:
            del out[alpha]
    return out


def diffop_neg(xi, p):
    return {alpha: poly_neg(f, p) for alpha, f in xi.items()}


def diffop_scale(xi, c, p):
    """c times the operator, for c nonzero in the field."""
    return {alpha: poly_scale(f, c, p) for alpha, f in xi.items()}


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
    work = 0
    # per term of eta, one past the top exponent of each variable in g
    terms = [(beta, g, [max(c) + 1 for c in zip(*g)]) for beta, g in eta.items()]
    for alpha, f in xi.items():
        size = len(f)
        if not any(alpha):
            # f*d^[0] is already normal-ordered against every g*d^[beta]; the
            # loop below gives the same f*g at beta, but only after copying g
            # through partial_apply and a binomial per pair
            for beta, g, _ in terms:
                work += size * len(g)
                if work > WORK_LIMIT:
                    _refuse("an operator product")
                contrib = poly_mul(f, g, p)
                if contrib:
                    acc = out.get(beta)
                    out[beta] = poly_add(acc, contrib, p) if acc else contrib
            continue
        alpha_ends = [a + 1 for a in alpha]
        for beta, g, g_ends in terms:
            ends = list(map(min, alpha_ends, g_ends))
            work += size * len(g) * _prod(ends)
            if work > WORK_LIMIT:
                _refuse("an operator product")
            for gamma in _product(*map(range, ends)):
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
    work = 0
    for alpha, f in xi.items():
        odd = sum(alpha) % 2
        ends = [min(a + 1, max(c) + 1) for a, c in zip(alpha, zip(*f))]
        work += len(f) * _prod(ends)
        if work > WORK_LIMIT:
            _refuse("a transposition")
        for gamma in _product(*map(range, ends)):
            df = partial_apply(gamma, f, p)
            if not df:
                continue
            if odd:
                df = poly_neg(df, p)
            target = tuple(a - c for a, c in zip(alpha, gamma))
            acc = out.get(target)
            out[target] = poly_add(acc, df, p) if acc else df
    return {exp: coeff for exp, coeff in out.items() if coeff}
