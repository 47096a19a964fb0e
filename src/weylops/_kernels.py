"""Term kernels.

These are the inner loops of the whole package: the one product loop
(``mul_add``), sparse polynomial arithmetic (``poly_mul``, ``poly_pow``)
and substitution (``poly_substitute``), the divided-power derivatives
(``partial_apply``, ``diffop_apply``), the one sum (``core_sum``, which
also negates and scales), the normal-ordered operator product
(``diffop_mul``), the commutator (``diffop_bracket``) and the standard
transposition (``diffop_transpose``).

Data layout (no classes here, wrappers live in ``poly``/``diffop``):

* polynomial: dict mapping exponent tuple -> nonzero coefficient;
* operator:   dict mapping exponent tuple -> polynomial dict, the left
  coefficient of the divided-power basis element for that exponent.

In characteristic p a coefficient is an int residue mod p.  In
characteristic 0 the kernels receive the integer numerators of a
polynomial or an operator whose one common denominator is kept by
``poly`` or ``diffop`` (the integer core), so their coefficients are ints
as well.  They accept ``Fraction`` values too, which the tests use as an
oracle.

``p`` is the characteristic, 0 meaning the rationals.  All functions
return canonical dicts (no zero values stored) and never mutate inputs.
Each kernel that sums adds into one accumulator of unreduced values and
reduces it mod p, dropping zeros, once at the end: ``_reduced`` for
operators, ``_reduced_poly`` for polynomials; ``mul_add`` adds a product
of two polynomials into one, in the operand order that fixes its caller's
key order.  ``core_sum``, which every sum in the package goes through,
reduces each coefficient as it adds it.

``diffop_mul``, ``diffop_bracket`` and ``diffop_transpose`` expand
d^[alpha]*g by the divided-power Leibniz rule, sum over gamma <= alpha of
d^[gamma](g)*d^[alpha-gamma], which factors by variable on a monomial x^m
of g.  So each monomial is walked once, through one row per variable: one
entry (output exponent, exponent of x_i, binomial factor) per
gamma_i = k <= min(m_i, alpha_i), entries that vanish mod p (Lucas zeros)
left out.  A row depends only on (m_i, alpha_i, beta_i) and p, so the
rows live in one table per process, keyed by those four ints and stored
as tuples.  The table's memory has a fixed bound whatever the input: it
holds at most ``ROW_TABLE_SIZE`` rows and keeps only short rows of small
exponents (see ``_mul_row``); any other row is built for each use.  Each
choice of one entry per row goes straight into one accumulator of
unreduced ints, reduced once per output term at the end.  The
transposition uses the product's rows with beta = 0, where the extra
factor C(alpha_i-k, alpha_i-k) is 1.  The commutator adds both products
into one accumulator and leaves out the gamma = 0 terms, which cancel.
Binomials come from ``_binom``, as in ``binom_product``: Lucas' theorem
past ``BINOM_BITS_LIMIT`` bits in characteristic p, a refusal there in
characteristic 0.

One bound, ``WORK_LIMIT`` coefficient products, holds in every kernel
whose output can outgrow its inputs: ``diffop_mul`` counts
|f|*|g|*prod_i min(alpha_i+1, top_i(g)+1) per pair of terms f*d^[alpha],
g*d^[beta] (|f|*|g| for alpha = 0), ``diffop_bracket`` counts each of
its two products so, from 0, ``diffop_transpose`` counts
|f|*prod_i min(alpha_i+1, top_i(f)+1) per term, and ``poly_pow`` and
``poly_substitute`` count |a|*|b| per product.  The operator counts are
the whole box of gamma, whatever entries the rows leave out.  Past the
bound a call raises ``DomainError`` before the work it counts.
``poly_mul`` and ``mul_add`` check nothing.  A one-term power forms no
product; over Q ``int_power`` sizes its coefficient first.
"""

from itertools import chain, product as _product
from math import comb as _comb, gcd as _gcd, prod as _prod
from operator import add as _add, sub as _sub

from .errors import DomainError

KERNEL_BACKEND = "python"
# largest exact binomial coefficient, in bits, that the kernels build
BINOM_BITS_LIMIT = 1 << 14
# most coefficient products one kernel call may form (module docstring)
WORK_LIMIT = 1 << 17


def mul_add(acc, a, b):
    """Add the unreduced product of the polynomial dicts a and b into acc,
    a's terms in the outer loop: the one polynomial product loop."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(map(_add, ea, eb))
            acc[exp] = acc.get(exp, 0) + ca * cb


def poly_mul(a, b, p):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    mul_add(out, a, b)
    return _reduced_poly(out, p)


def _refuse(what):
    raise DomainError(f"{what} needs more coefficient products than the "
                      f"guardrail of {WORK_LIMIT}")


def _bounded_mul(a, b, p):
    """poly_mul, refused before it forms more than WORK_LIMIT products."""
    if len(a) * len(b) > WORK_LIMIT:
        _refuse("a polynomial product")
    return poly_mul(a, b, p)


def int_power(c, n):
    """c**n for ints, refused past BINOM_BITS_LIMIT bits; before it is
    built when its least bit length, n*(bitlen(c) - 1) + 1, is already past."""
    if n * (abs(c).bit_length() - 1) < BINOM_BITS_LIMIT:
        c **= n
        if c.bit_length() <= BINOM_BITS_LIMIT:
            return c
    raise DomainError(f"a coefficient power needs more than the guardrail of "
                      f"{BINOM_BITS_LIMIT} bits")


def poly_pow(a, e, p):
    """a**e for e >= 1, a itself for e = 1.  A one-term base c*x^m takes
    its closed form c^e*x^(e*m), forming no product (over Q an int c^e as
    ``int_power`` bounds it); any other goes by repeated squaring."""
    if len(a) == 1 and e > 1:
        (m, c), = a.items()
        m = tuple(k * e for k in m)
        if p:
            return {m: pow(c, e, p)}
        return {m: int_power(c, e) if isinstance(c, int) else c**e}
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
        for exp2, v in term.items():
            out[exp2] = out.get(exp2, 0) + v * c
    return _reduced_poly(out, p)


def _comb_bounded(b, a):
    """C(b, a) as an exact int, refused before any work when its size bound
    min(b, min(a, b - a) * bitlen(b)) exceeds BINOM_BITS_LIMIT bits."""
    if b > BINOM_BITS_LIMIT and min(a, b - a) * b.bit_length() > BINOM_BITS_LIMIT:
        raise DomainError(
            f"binomial C({_int_text(b)}, {_int_text(a)}) may exceed the "
            f"guardrail of {BINOM_BITS_LIMIT} bits"
        )
    return _comb(b, a)


def _int_text(v):
    """v in decimal, or its bit length when Python refuses to print it."""
    try:
        return str(v)
    except ValueError:
        return f"<an integer of {v.bit_length()} bits>"


def _binom(b, a, p):
    """C(b, a): an exact int in characteristic 0, the residue mod p otherwise.

    C(b, a) < 2^b, so b <= BINOM_BITS_LIMIT is computed directly.  Beyond
    that, characteristic p multiplies the binomials of the base-p digits
    (Lucas' theorem) and characteristic 0 checks the size first.
    """
    if a > b:
        return 0
    if b <= BINOM_BITS_LIMIT:
        return _comb(b, a) % p if p else _comb(b, a)
    if not p:
        return _comb_bounded(b, a)
    out = 1
    while a:
        b, b0 = divmod(b, p)
        a, a0 = divmod(a, p)
        if a0 > b0:
            return 0
        out = out * _comb_bounded(b0, a0) % p
    return out


def binom_product(beta, alpha, p):
    """Product of componentwise binomials C(beta_i, alpha_i): an exact int
    in characteristic 0, the residue mod p otherwise (``_binom`` past
    BINOM_BITS_LIMIT)."""
    out = 1
    for b, a in zip(beta, alpha):
        c = _comb(b, a) if b <= BINOM_BITS_LIMIT else _binom(b, a, p)
        if not c:
            return 0
        out *= c
    return out % p if p else out


def partial_apply(gamma, f, p):
    """Apply the divided-power basis operator for gamma to a polynomial.
    Distinct exponents beta stay distinct after subtracting gamma."""
    out = {}
    for beta, c in f.items():
        co = binom_product(beta, gamma, p)
        if co:
            out[tuple(map(_sub, beta, gamma))] = c * co
    return _reduced_poly(out, p)


def diffop_apply(xi, f, p):
    """Value of the operator on a polynomial: sum of f_alpha * d^[alpha](f),
    every alpha added into one accumulator that is reduced once."""
    out = {}
    for alpha, coeff in xi.items():
        mul_add(out, partial_apply(alpha, f, p), coeff)
    return _reduced_poly(out, p)


def canonical(num, den):
    """The operator core (num, den) with gcd(den, every numerator) divided
    out."""
    if den == 1 or not num:
        return num, 1
    g = _gcd(den, *chain.from_iterable(map(dict.values, num.values())))
    if g == 1:
        return num, den
    return {a: {m: c // g for m, c in f.items()} for a, f in num.items()}, den // g


def core_sum(parts, p):
    """The canonical core of the sum of c*num/den over the parts (num, den,
    c), c nonzero in the field and num reduced over F_p; ({}, 1) if none.

    The parts go into one accumulator over one denominator, grown by lcm.
    Keys keep the order of binary sums: the first part's keys in order, new
    keys appended, a key dropped as soon as it cancels.  A later product
    meets the terms, and so its first refusal, in that order.  A key's
    first appearance copies its coefficient dict, so no part is mutated.
    """
    out = {}
    den = 1
    for num, d, c in parts:
        if d != den:
            if den % d:
                grow = d // _gcd(den, d)
                for f in out.values():
                    for m in f:
                        f[m] *= grow
                den *= grow
            c *= den // d
        for alpha, g in num.items():
            f = out.get(alpha)
            if f is None:
                if c == 1:
                    out[alpha] = dict(g)
                elif p:
                    out[alpha] = {m: v * c % p for m, v in g.items()}
                else:
                    out[alpha] = {m: v * c for m, v in g.items()}
                continue
            for m, v in g.items():
                v = f.get(m, 0) + v * c
                if p:
                    v %= p
                if v:
                    f[m] = v
                else:
                    del f[m]
            if not f:
                del out[alpha]
    return canonical(out, den)


# The row table (module docstring): at most ROW_TABLE_SIZE rows, each kept
# only when it has at most ROW_KEEP_LEN entries and m + a + b is below
# ROW_KEEP_EXPONENT, so that every int it holds is below 2^64 over Q (the
# factor is below 2^(m+a+b)) and below the characteristic otherwise.
ROW_TABLE_SIZE = 1 << 11
ROW_KEEP_LEN = 8
ROW_KEEP_EXPONENT = 64
_ROWS = {}


def _mul_row(m, a, b, p):
    """The row of one variable in ``diffop_mul``: for x^m in g and the
    exponents a, b of the left and right basis elements, one entry
    (a-k+b, m-k, C(m,k)*C(a-k+b, a-k)) per k <= min(m, a), zeros left out,
    as a tuple.  A row that fits the table's bounds is stored under
    (m, a, b, p); a full table is emptied first.  A ``DomainError`` from
    ``_binom`` leaves the table as it was."""
    row = []
    for k in range(min(m, a) + 1):
        c = _binom(m, k, p)
        if c:
            c *= _binom(a - k + b, a - k, p)
            if p:
                c %= p
            if c:
                row.append((a - k + b, m - k, c))
    row = tuple(row)
    if len(row) <= ROW_KEEP_LEN and m + a + b < ROW_KEEP_EXPONENT:
        if len(_ROWS) >= ROW_TABLE_SIZE:
            _ROWS.clear()
        _ROWS[m, a, b, p] = row
    return row


def _reduced(out, p):
    """The accumulated ints of ``out`` reduced mod p, zero coefficients and
    zero operator terms dropped: one reduction per output term."""
    res = {}
    for target, acc in out.items():
        if p:
            poly = {}
            for exp, c in acc.items():
                c %= p
                if c:
                    poly[exp] = c
        else:
            poly = {exp: c for exp, c in acc.items() if c}
        if poly:
            res[target] = poly
    return res


def _reduced_poly(acc, p):
    """One accumulated polynomial reduced as ``_reduced`` reduces each
    output term.  The loop is written twice on purpose: a call of this per
    output term slows ``_reduced``, and a one-term call of ``_reduced``
    slows the polynomial kernels, which mostly see a few terms."""
    if p:
        poly = {}
        for exp, c in acc.items():
            c %= p
            if c:
                poly[exp] = c
        return poly
    return {exp: c for exp, c in acc.items() if c}


def diffop_mul(xi, eta, p):
    """Normal-ordered product of two operators in left-coefficient form.

    Each pairing of a term f*d^[alpha] with g*d^[beta] is renormalized by
    commuting d^[alpha] past g, d^[alpha]*g = sum over gamma <= alpha of
    d^[gamma](g)*d^[alpha-gamma], and composing the basis elements,
    d^[delta]*d^[beta] = C(delta+beta, delta)*d^[delta+beta].  On a
    monomial x^m of g both factor by variable: the row of x_i lists, for
    each gamma_i = k <= min(m_i, alpha_i), the output exponent
    alpha_i-k+beta_i, the exponent m_i-k of x_i and the factor
    C(m_i,k)*C(alpha_i-k+beta_i, alpha_i-k).  A row depends only on
    (m_i, alpha_i, beta_i) and p, and comes from the row table.  Each
    choice of one entry per row, times f, goes straight into one
    accumulator of ints, which is reduced once per output term at the end.
    A left term f*d^[0] needs no rows: it multiplies each g straight into
    the term at beta.
    """
    out = {}
    _mul_into(out, xi, eta, p, False)
    return _reduced(out, p)


def diffop_bracket(xi, eta, p):
    """The commutator xi*eta - eta*xi in one accumulator.

    Both orders' pairings go through ``diffop_mul``'s loop, the eta*xi ones
    with xi negated.  The gamma = 0 term of a pairing,
    f*g*C(alpha+beta, alpha)*d^[alpha+beta], is the same in both orders and
    cancels, so it is never formed: it is the choice of the first entry of
    every row when each has k = 0 (absent when the binomial vanishes
    mod p), and a left term f*d^[0] has no other, so it is skipped whole.
    The work of each order is counted as ``diffop_mul`` counts it, skipped
    terms included, and the rows are built as it builds them, so each
    refusal is the one xi*eta - eta*xi meets.
    """
    out = {}
    _mul_into(out, xi, eta, p, True)
    _mul_into(out, eta, core_sum(((xi, 1, -1),), p)[0], p, True)
    return _reduced(out, p)


def _mul_into(out, xi, eta, p, commutator):
    """Add xi*eta into the accumulator ``out`` (``diffop_mul``), the
    gamma = 0 term of every pairing left out when ``commutator`` is set
    (``diffop_bracket``).  The work bound counts from 0 for this product."""
    work = 0
    rows = _ROWS
    # per term of eta, one past the top exponent of each variable in g
    terms = [(beta, g, [max(c) + 1 for c in zip(*g)]) for beta, g in eta.items()]
    for alpha, f in xi.items():
        size = len(f)
        if not any(alpha):
            # every row would be the one entry (beta_i, m_i, 1)
            if commutator:
                # that entry is the gamma = 0 term: only the work is counted
                work += size * sum(len(g) for _, g, _ in terms)
                if work > WORK_LIMIT:
                    _refuse("an operator product")
                continue
            for beta, g, _ in terms:
                work += size * len(g)
                if work > WORK_LIMIT:
                    _refuse("an operator product")
                mul_add(out.setdefault(beta, {}), g, f)
            continue
        ps = (p,) * len(alpha)
        alpha_ends = [a + 1 for a in alpha]
        for beta, g, g_ends in terms:
            work += size * len(g) * _prod(map(min, alpha_ends, g_ends))
            if work > WORK_LIMIT:
                _refuse("an operator product")
            for m, c in g.items():
                rs = []
                for key in zip(m, alpha, beta, ps):
                    row = rows.get(key)
                    if row is None:
                        row = _mul_row(*key)
                    if not row:
                        # every entry vanished mod p: x^m gives nothing, and
                        # the later rows are not built for it
                        break
                    rs.append(row)
                else:
                    for entries in _product(*rs):
                        target, mono, factors = zip(*entries)
                        if commutator and mono == m:
                            continue  # gamma = 0: cancels in the commutator
                        co = c * _prod(factors)
                        if p:
                            co %= p
                        acc = out.get(target)
                        if acc is None:
                            acc = out[target] = {}
                        for e, cf in f.items():
                            e = tuple(map(_add, e, mono))
                            acc[e] = acc.get(e, 0) + cf * co


def diffop_transpose(xi, p):
    """Standard transposition: each term f*d^[alpha] goes to
    (-1)^|alpha| d^[alpha]*f, normal-ordered in one pass by the
    divided-power Leibniz rule d^[alpha]*f = sum over gamma <= alpha of
    d^[gamma](f)*d^[alpha-gamma] (no binomial factor).  As in ``diffop_mul``
    each monomial x^m of f is walked once, through one row per variable
    (alpha_i-k, m_i-k, C(m_i,k)) for k <= min(m_i, alpha_i), the product's
    row with beta_i = 0 from the same table, into one accumulator of ints
    reduced once per output term.
    """
    out = {}
    work = 0
    rows = _ROWS
    for alpha, f in xi.items():
        odd = sum(alpha) % 2
        work += len(f) * _prod(min(a + 1, max(c) + 1) for a, c in zip(alpha, zip(*f)))
        if work > WORK_LIMIT:
            _refuse("a transposition")
        zeros, ps = (0,) * len(alpha), (p,) * len(alpha)
        for m, c in f.items():
            rs = []
            for key in zip(m, alpha, zeros, ps):
                row = rows.get(key)
                if row is None:
                    row = _mul_row(*key)
                rs.append(row)
            if odd:
                c = -c
            for entries in _product(*rs):
                target, mono, factors = zip(*entries)
                acc = out.get(target)
                if acc is None:
                    acc = out[target] = {}
                acc[mono] = acc.get(mono, 0) + c * _prod(factors)
    return _reduced(out, p)
