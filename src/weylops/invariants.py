"""Finite linear group actions on polynomials and on operators.

A group element is an invertible matrix acting on the span of the
variables (the image of x_j is the j-th column combination), extended as
an algebra automorphism by substitution.  The action on operators is by
conjugation, so applying a transformed operator agrees with transforming,
applying, and transforming back.  Reynolds averaging projects onto the
invariants whenever the group order is invertible in the field.
"""

from __future__ import annotations

from .diffop import DiffOp, core_sum
from .errors import DomainError
from .linalg import Matrix
from .poly import Polynomial, PolyRing, RingMap, substitute
from .transpose import prepare_substitution, standard_transpose, transport_prepared
# not called here; perfbench/tests checks that its tracer rebinds this
# imported name
from .transpose import transport_via_coordinates  # noqa: F401


class GroupElement:
    """Invertible matrix over the coefficient field, with its inverse.

    The inverse is found once, by elimination, when the element is built
    from a matrix alone; products and inverses of elements carry theirs
    along ((gh)^-1 = h^-1 g^-1), so the group operations and the action
    eliminate nothing.

    The substitution is prepared on the element's first action and kept
    (``transpose.Substitution``): whether it is the identity, and the
    images of the variables and the inverse's rows, each as an integer
    core over its own denominator.  So building a group and checking its
    closure prepare nothing, and every later action on a polynomial or an
    operator reuses the record.  Its size depends on the matrix alone;
    nothing that depends on an operator is kept.
    """

    __slots__ = ("matrix", "_inverse", "_key", "_substitution")

    def __init__(self, matrix: Matrix):
        if matrix.nrows != matrix.ncols:
            raise DomainError("group elements must be square matrices")
        try:
            inverse = matrix.inverse()
        except DomainError:
            raise DomainError("group elements must be invertible") from None
        self._set(matrix, inverse)

    def _set(self, matrix: Matrix, inverse: Matrix):
        self.matrix = matrix
        self._inverse = inverse
        self._key = tuple(tuple(r) for r in matrix.rows)
        self._substitution = None

    @classmethod
    def _with_inverse(cls, matrix: Matrix, inverse: Matrix) -> GroupElement:
        g = cls.__new__(cls)
        g._set(matrix, inverse)
        return g

    @property
    def n(self) -> int:
        return self.matrix.nrows

    def __mul__(self, other: GroupElement) -> GroupElement:
        return GroupElement._with_inverse(
            self.matrix * other.matrix, other._inverse * self._inverse
        )

    def inverse(self) -> GroupElement:
        return GroupElement._with_inverse(self._inverse, self.matrix)

    def substitution(self):
        """The prepared substitution (class docstring), built on first use."""
        sub = self._substitution
        if sub is None:
            sub = self._substitution = prepare_substitution(
                self.matrix.rows, self._inverse.rows,
                self.matrix.field.characteristic,
            )
        return sub

    def is_identity(self) -> bool:
        return self.substitution().identity

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"<GroupElement {self.matrix!r}>"

    def _check_ring(self, ring: PolyRing):
        if ring.nvars != self.n or ring.field != self.matrix.field:
            raise DomainError("group element does not act on this ring")

    def ring_map(self, ring: PolyRing) -> RingMap:
        """The element's matrix pair as a map of ``ring``."""
        self._check_ring(ring)
        return RingMap._pair(ring, self.matrix.rows, self._inverse.rows)


class FiniteGroup:
    """Explicit list of elements, checked to be a group from generators.

    A finite set of invertible matrices that holds the identity is a group
    exactly when it is closed under products; inverses then come free.
    ``generators`` is chosen greedily in list order: an element not yet
    reached from the earlier generators becomes one, so each at least
    doubles the reached subgroup and there are at most log2 |G| of them.
    Every reached element is multiplied by every generator once, |G| times
    |S| products, and the check refuses at the first product outside the
    list.  The products of generators reach every element and are closed
    under right multiplication by them, so the list is closed under
    products.
    """

    __slots__ = ("elements", "generators")

    def __init__(self, elements):
        elements = list(elements)
        if not elements:
            raise DomainError("a group needs at least the identity")
        by_key = {g._key: g for g in elements}
        if len(by_key) != len(elements):
            raise DomainError("duplicate group elements")
        one = Matrix.identity(elements[0].matrix.field, elements[0].n)
        identity = by_key.get(tuple(map(tuple, one.rows)))
        if identity is None:
            raise DomainError("group does not contain the identity")
        generators, reached, inside = [], [identity], {identity._key}

        def grow(x, gens):
            """Append the products x*s, s in gens, not reached before."""
            for s in gens:
                key = tuple(map(tuple, (x.matrix * s.matrix).rows))
                if key not in inside:
                    if key not in by_key:
                        raise DomainError("group is not closed under products")
                    inside.add(key)
                    reached.append(by_key[key])

        done = 0  # reached[:done] is multiplied by every generator
        for g in elements:
            if g._key not in inside:
                for x in reached[:done]:
                    grow(x, (g,))
                generators.append(g)
                while done < len(reached):
                    grow(reached[done], generators)
                    done += 1
        self.elements = elements
        self.generators = generators

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def pseudoreflections(self):
        return [g for g in self.elements if is_pseudoreflection(g)]


def is_pseudoreflection(g: GroupElement) -> bool:
    """Nontrivial element fixing a hyperplane pointwise: rank(g - 1) == 1."""
    if g.is_identity():
        return False
    delta = g.matrix - Matrix.identity(g.matrix.field, g.n)
    return delta.rank() == 1


def act_on_poly(g: GroupElement, f: Polynomial) -> Polynomial:
    """Substitution action of the matrix on a polynomial, by the prepared
    images of the variables."""
    g._check_ring(f.ring)
    sub = g.substitution()
    return Polynomial._core(f.ring, substitute(
        f.num, f.den, sub.images, sub.dens, f.ring.characteristic, {}
    ))


def act_on_op(g: GroupElement, xi: DiffOp) -> DiffOp:
    """Conjugation action on an operator, in normal form: the transport
    along g, with g's carried inverse as B, by its prepared substitution."""
    g._check_ring(xi.ring)
    return transport_prepared(xi, g.substitution())


def reynolds(G: FiniteGroup, xi: DiffOp) -> DiffOp:
    """Group average; projects onto the invariant operators.

    Requires the group order to be invertible in the coefficient field
    (always in characteristic 0, and in characteristic p exactly when p
    does not divide the order), after checking that G acts on xi's ring.
    """
    G.elements[0]._check_ring(xi.ring)
    field = xi.ring.field
    if field.is_zero(field.from_int(G.order)):
        raise DomainError(
            f"group order {G.order} is not invertible in characteristic "
            f"{field.characteristic}"
        )
    # 1/|G| goes into the parts: a factor of each denominator over Q, the
    # multiplier |G|^-1 mod p over F_p
    p = field.characteristic
    c, scale = (pow(G.order, -1, p), 1) if p else (1, G.order)
    return DiffOp._core(xi.ring, core_sum(
        [(img.num, img.den * scale, c) for img in (act_on_op(g, xi) for g in G)], p
    ))


def is_invariant(G: FiniteGroup, xi: DiffOp) -> bool:
    """Whether every element fixes xi: a fixed point of the generators is
    fixed by the group."""
    G.elements[0]._check_ring(xi.ring)
    return all(act_on_op(g, xi) == xi for g in G.generators)


def equivariance_check(G: FiniteGroup, xi: DiffOp) -> bool:
    """Whether the standard transposition t commutes with the whole action.

    True for every linear action over every field: t after g and g after
    t are anti-automorphisms that agree on the generators.  t fixes the
    polynomials and sends d^[beta] to (-1)^|beta| d^[beta], and g keeps
    the degree |beta| of a constant-coefficient operator.
    """
    xi_t = standard_transpose(xi)  # once, not once per element
    return all(standard_transpose(act_on_op(g, xi)) == act_on_op(g, xi_t) for g in G)
