"""Anti-automorphisms of the operator ring that fix the polynomials.

The standard transposition sends a left-coefficient term f*d^[alpha] to
(-1)^|alpha| * d^[alpha]*f and is involutive in every characteristic.  Its
normal form comes from the divided-power Leibniz rule
d^[alpha]*f = sum over gamma <= alpha of d^[gamma](f) * d^[alpha-gamma],
with no binomial factor, so no general product is needed.  In
characteristic 0 the ring is generated in order one, and prescribing
d_i -> -d_i + f_i with each twist polynomial f_i univariate in its own
variable yields further ("twisted") involutive anti-automorphisms; no such
freedom exists in characteristic p, where the twisted construction is
refused.  Both are plain functions.

Conjugation by an invertible linear substitution m (the transport used
for coordinate-invariance checks and group actions) is the contragredient
action on the divided-power basis: with B the inverse matrix of m,
d^[alpha] goes to prod_k l_k^[alpha_k] for the linear forms
l_k = sum_j B[k][j] d_j, where (sum_j c_j d_j)^[a] is the sum of
c^beta d^[beta] over |beta| = a (only beta supported where c is nonzero
contribute), and the coefficient f goes to m(f).
These coefficients are integral in the entries of B, so the same formula
holds in every characteristic.

The transport runs in two steps.  ``prepare_substitution`` turns the
matrix pair into a :class:`Substitution`, which depends on the pair
alone: whether it is the identity, and the images of the x_j and the rows
of B, each as an integer core over its own denominator.
``transport_prepared`` then conjugates one operator by it; the divided
powers l_k^[a] and the powers of the variable images it forms depend on
the operator and are dropped when it returns.
``transport_via_coordinates`` prepares the pair a ``poly.RingMap``
carries on each call; a group element prepares once and keeps the record
(``invariants.GroupElement``).
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import NamedTuple

from . import _kernels as K
from . import exponents
from .diffop import DiffOp, core_mul, core_pow, core_sum
from .errors import DomainError
from .poly import Polynomial, RingMap, integer_core, substitute

# most term pairs that the products building prod_k l_k^[alpha_k] may form
# for one term of an operator, bounded by the product over k of
# C(alpha_k+s_k-1, s_k-1), the term count of l_k^[alpha_k] for s_k nonzero
# entries in row k of B
TRANSPORT_TERMS_LIMIT = 1 << 14


def standard_transpose(xi: DiffOp) -> DiffOp:
    """Sign-the-basis transposition, renormalized into left-coefficient form
    by the Leibniz rule (module docstring)."""
    # The transposition is an involution that maps integral operators to
    # integral ones, so a common factor of den and the image's numerators
    # would divide xi's numerators too: the image core is already canonical.
    return DiffOp._core(
        xi.ring, (K.diffop_transpose(xi.num, xi.ring.characteristic), xi.den)
    )


def twisted_transpose(twist, xi: DiffOp) -> DiffOp:
    """Anti-multiplicative extension of x_i -> x_i, d_i -> -d_i + f_i.

    Characteristic 0 only; each twist polynomial may involve only its own
    variable.  The divided-power basis element for alpha is 1/alpha! times
    the product of the first-order derivatives, and the twisted images of
    distinct variables' generators commute, so the image of a normal-form
    term is (1/alpha!) * prod_i (-d_i + f_i)^alpha_i * f_alpha.
    """
    ring = xi.ring
    if ring.characteristic != 0:
        raise DomainError(
            "twisted transpositions exist only in characteristic 0"
        )
    n = ring.nvars
    twist = list(twist)
    if len(twist) != n:
        raise DomainError(f"need one twist polynomial per variable: {n}, got {len(twist)}")
    zero = (0,) * n
    images = []
    for i, f in enumerate(twist):
        if not isinstance(f, Polynomial) or f.ring != ring:
            raise DomainError("twist polynomials must live in the operator's ring")
        if any(e[j] for e in f.num for j in range(n) if j != i):
            raise DomainError(
                f"twist polynomial {i} may only involve variable "
                f"{ring.var_names[i]}"
            )
        # -d_i + f over f's denominator
        image = {tuple(int(j == i) for j in range(n)): {zero: -f.den}}
        if f.num:
            image[zero] = f.num
        images.append((image, f.den))

    # the image of f*d^[alpha] is prod_i images[i]^alpha_i times f over
    # alpha! * den, with f the term's integer coefficient; each power
    # images[i]^a is formed once, under (i, a)
    powers = {}
    parts = []
    for alpha, f in xi.num.items():
        term = {zero: f}, 1
        image = None
        for i, a in enumerate(alpha):
            if a:
                power = powers.get((i, a))
                if power is None:
                    power = powers[i, a] = core_pow(images[i], a, 0, n)
                image = power if image is None else core_mul(image, power, 0)
        if image is not None:
            term = core_mul(image, term, 0)
        parts.append((term[0], term[1] * xi.den * prod(factorial(a) for a in alpha), 1))
    return DiffOp._core(ring, core_sum(parts, 0))


def transport_via_coordinates(m: RingMap, xi: DiffOp) -> DiffOp:
    """Conjugate the operator by the substitution automorphism of m (the
    formula is in the module docstring), with B the inverse matrix m
    carries."""
    if m.ring != xi.ring:
        raise DomainError("map/operator ring mismatch")
    return transport_prepared(
        xi, prepare_substitution(m.rows, m.inverse_rows, xi.ring.characteristic)
    )


class Substitution(NamedTuple):
    """A linear substitution and its inverse B, prepared for transport.

    ``images`` are the images of the variables (the columns of the matrix)
    as integer polynomial dicts, and ``dens`` their denominators, one per
    image, or None when every one is 1.  ``inv_rows`` are B's rows as
    integer cores ({j: B[k][j]} over the nonzero entries, den_k), so each
    row's keys are its support, and ``tops`` the largest of den_k and row
    k's absolute numerators over Q, the base of the largest power that
    l_k^[a] forms.  Over F_p every denominator and top is 1.  Everything
    here depends on the matrix pair alone, never on an operator.
    """

    identity: bool
    images: list
    dens: list | None
    inv_rows: list
    tops: list


def prepare_substitution(rows, inv_rows, p: int) -> Substitution:
    """The prepared form of the matrix pair (rows, inv_rows) over the field
    of characteristic p, as :class:`Substitution` describes it."""
    n = len(rows)
    identity = all(v == (1 if i == j else 0)
                   for i, row in enumerate(rows) for j, v in enumerate(row))
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    images = [integer_core({units[i]: v for i, v in enumerate(col) if v}, p)
              for col in zip(*rows)]
    dens = [den for _, den in images]
    inv_rows = [integer_core({j: b for j, b in enumerate(row) if b}, p)
                for row in inv_rows]
    tops = [1 if p else max(den, *map(abs, row.values())) for row, den in inv_rows]
    return Substitution(identity, [image for image, _ in images],
                        dens if max(dens) > 1 else None, inv_rows, tops)


def transport_prepared(xi: DiffOp, sub: Substitution) -> DiffOp:
    """Conjugate the operator by a prepared substitution (the formula is in
    the module docstring), on integer cores throughout.  The divided
    powers and the powers of the variable images are formed for this call
    alone."""
    if sub.identity:
        return xi
    ring = xi.ring
    n, p = ring.nvars, ring.characteristic
    inv_rows, tops = sub.inv_rows, sub.tops
    for alpha in xi.num:
        size = prod(comb(a + len(row) - 1, a) for a, (row, _) in zip(alpha, inv_rows))
        if size > TRANSPORT_TERMS_LIMIT:
            raise DomainError(
                f"the image of d[{','.join(map(str, alpha))}] may have more "
                f"terms than the guardrail of {TRANSPORT_TERMS_LIMIT}"
            )
    zero = (0,) * n

    def divided_power(k: int, a: int):
        """The core of l_k^[a], the sum of B[k]^beta d^[beta] over
        |beta| = a with beta supported where B[k] is nonzero: the integer
        row's powers over den_k^a, each power reduced mod p as it is
        formed, or over Q sized first, by its largest, tops[k]^a
        (``_kernels.int_power``).  No prime of den_k divides every entry
        of the row, so none of den_k^a divides every b_j^a: the core is
        canonical."""
        row, den = inv_rows[k]
        if tops[k] > 1:
            K.int_power(tops[k], a)
        terms = {}
        for part in exponents.iter_graded(len(row), a):
            beta = [0] * n
            c = 1
            for (j, b), e in zip(row.items(), part):
                beta[j] = e
                c *= pow(b, e, p) if p else b ** e
            terms[tuple(beta)] = {zero: c % p if p else c}
        return terms, den ** a

    # m(f) substitutes for x_j the j-th integer column over its denominator
    images, dens = sub.images, sub.dens
    powers = {}
    parts = []
    for alpha, f in xi.num.items():
        image = None
        for k, a in enumerate(alpha):
            if a:
                power = divided_power(k, a)
                image = power if image is None else core_mul(image, power, p)
        mf, mf_den = substitute(f, 1, images, dens, p, powers)
        term = {zero: mf}, mf_den
        if image is not None:
            term = core_mul(term, image, p)
        parts.append((term[0], term[1] * xi.den, 1))
    return DiffOp._core(ring, core_sum(parts, p))
