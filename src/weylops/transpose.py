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
refused.

Conjugation by an invertible linear substitution m (the transport used
for coordinate-invariance checks and group actions) is the contragredient
action on the divided-power basis: with B the inverse matrix of m,
d^[alpha] goes to prod_k l_k^[alpha_k] for the linear forms
l_k = sum_j B[k][j] d_j, where (sum_j c_j d_j)^[a] is the sum of
c^beta d^[beta] over |beta| = a (only beta supported where c is nonzero
contribute), and the coefficient f goes to m(f).
These coefficients are integral in the entries of B, so the same formula
holds in every characteristic.
"""

from __future__ import annotations

from math import comb, factorial, prod

from . import _kernels as K
from . import exponents
from .diffop import DiffOp
from .errors import DomainError
from .linalg import Matrix
from .poly import Polynomial, PolyRing, RingMap, apply_ring_map

# most term pairs that the products building prod_k l_k^[alpha_k] may form
# for one term of an operator, bounded by the product over k of
# C(alpha_k+s_k-1, s_k-1), the term count of l_k^[alpha_k] for s_k nonzero
# entries in row k of B
TRANSPORT_TERMS_LIMIT = 1 << 14


def standard_transpose(xi: DiffOp) -> DiffOp:
    """Sign-the-basis transposition, renormalized into left-coefficient form
    by the Leibniz rule (module docstring)."""
    ring = xi.ring
    return DiffOp._from_raw(
        ring, K.diffop_transpose(xi._raw(), ring.characteristic)
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
    twist = list(twist)
    if len(twist) != ring.nvars:
        raise DomainError(f"need {ring.nvars} twist polynomials")
    images = []
    for i, f in enumerate(twist):
        if not isinstance(f, Polynomial) or f.ring != ring:
            raise DomainError("twist polynomials must live in the operator's ring")
        if any(e[j] for e in f.terms for j in range(ring.nvars) if j != i):
            raise DomainError(
                f"twist polynomial {i} may only involve variable "
                f"{ring.var_names[i]}"
            )
        images.append(-DiffOp.partial(ring, i) + f)

    image_cache: dict[tuple, DiffOp] = {}

    def basis_image(alpha) -> DiffOp:
        op = image_cache.get(alpha)
        if op is None:
            op = DiffOp.constant(ring, 1)
            for i, a in enumerate(alpha):
                if a:
                    op = op * images[i] ** a
            denom = 1
            for a in alpha:
                denom *= factorial(a)
            if denom != 1:
                op = DiffOp.from_poly(ring.constant(f"1/{denom}")) * op
            image_cache[alpha] = op
        return op

    out = DiffOp.zero(ring)
    for alpha, f in xi.terms.items():
        out = out + basis_image(alpha) * f
    return out


class AntiAutomorphism:
    """Callable transposition with a named kind.

    ``standard`` works in every characteristic; ``twisted`` carries its
    twist polynomials and requires characteristic 0.  The fixed-ring,
    anti-multiplicativity and involutivity contracts are enforced by the
    test suites rather than at construction.
    """

    __slots__ = ("kind", "ring", "twist")

    def __init__(self, kind: str, ring: PolyRing, twist=None):
        if kind not in ("standard", "twisted"):
            raise DomainError(f"unknown transposition kind {kind!r}")
        self.kind = kind
        self.ring = ring
        self.twist = tuple(twist) if twist is not None else None
        if kind == "twisted" and self.twist is None:
            raise DomainError("twisted transposition needs twist polynomials")

    @classmethod
    def standard(cls, ring: PolyRing) -> AntiAutomorphism:
        return cls("standard", ring)

    @classmethod
    def twisted(cls, ring: PolyRing, twist) -> AntiAutomorphism:
        phi = cls("twisted", ring, twist=twist)
        phi(DiffOp.zero(ring))  # validate the twist eagerly
        return phi

    def __call__(self, xi: DiffOp) -> DiffOp:
        if xi.ring != self.ring:
            raise DomainError("operator ring mismatch")
        if self.kind == "standard":
            return standard_transpose(xi)
        return twisted_transpose(self.twist, xi)

    def __repr__(self):
        return f"<AntiAutomorphism {self.kind} on {self.ring!r}>"


def check_graded_sign(xi: DiffOp, phi) -> bool:
    """Whether phi(xi) + (-1)^(n+1) xi drops order, n the order of xi.

    This is the statement that the induced map on the associated graded
    ring is the identity in even degrees and -1 in odd ones.
    """
    if xi.is_zero():
        raise DomainError("graded-sign check is undefined on the zero operator")
    n = xi.order()
    combo = phi(xi) + (xi if (n + 1) % 2 == 0 else -xi)
    return combo.order() <= n - 1


def derivation_formula_check(theta: DiffOp, phi) -> bool:
    """For a derivation, phi(theta) must equal -theta plus the
    multiplication operator by phi(theta)(1)."""
    if not theta.is_derivation():
        raise DomainError("input is not a derivation")
    image = phi(theta)
    constant = image.apply(theta.ring.one())
    return image + theta == DiffOp.from_poly(constant)


def transport_via_coordinates(m: RingMap, xi: DiffOp) -> DiffOp:
    """Conjugate the operator by the substitution automorphism of m, which
    must be linear and invertible (the formula is in the module docstring)."""
    ring = xi.ring
    if m.ring != ring:
        raise DomainError("map/operator ring mismatch")
    if not m.is_linear():
        raise DomainError("transport requires a linear map")
    if m.images == ring.gens():
        return xi
    inv_rows = Matrix(ring.field, m.matrix()).inverse().rows
    supports = [[j for j, b in enumerate(row) if b] for row in inv_rows]
    for alpha in xi.terms:
        size = prod(comb(a + len(s) - 1, a) for a, s in zip(alpha, supports))
        if size > TRANSPORT_TERMS_LIMIT:
            raise DomainError(
                f"the image of d[{','.join(map(str, alpha))}] may have more "
                f"terms than the guardrail of {TRANSPORT_TERMS_LIMIT}"
            )

    def divided_power(k: int, a: int) -> DiffOp:
        """l_k^[a], the sum of B[k]^beta d^[beta] over |beta| = a with beta
        supported where B[k] is nonzero."""
        row, support = inv_rows[k], supports[k]
        terms = {}
        for part in exponents.iter_graded(len(support), a):
            beta = [0] * ring.nvars
            for j, e in zip(support, part):
                beta[j] = e
            terms[tuple(beta)] = prod(row[j] ** e for j, e in zip(support, part))
        return DiffOp.from_terms(ring, terms)

    out = DiffOp.zero(ring)
    for alpha, f in xi.terms.items():
        image = DiffOp.constant(ring, 1)
        for k, a in enumerate(alpha):
            if a:
                image = image * divided_power(k, a)
        out = out + DiffOp.from_poly(apply_ring_map(m, f)) * image
    return out
