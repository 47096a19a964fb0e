"""Finite linear group actions, Reynolds averaging, equivariance."""

from fractions import Fraction

import pytest

from weylops import (
    DiffOp,
    DomainError,
    FiniteGroup,
    GroupElement,
    Matrix,
    act_on_op,
    act_on_poly,
    equivariance_check,
    is_invariant,
    is_pseudoreflection,
    reynolds,
    standard_transpose,
)
from conftest import is_invariant_poly, make_ring, random_diffop


def _sign_ring():
    return make_ring(0, 2, ("s", "t"))


def _sign_group(field):
    ident = GroupElement(Matrix.identity(field, 2))
    minus = GroupElement(Matrix(field, [[-1, 0], [0, -1]]))
    return FiniteGroup([ident, minus]), minus


def _rotation_group(field):
    """Cyclic group of order 4 generated by a quarter turn."""
    rot = GroupElement(Matrix(field, [[0, -1], [1, 0]]))
    elems = [GroupElement(Matrix.identity(field, 2))]
    g = rot
    while not g.is_identity():
        elems.append(g)
        g = g * rot
    return FiniteGroup(elems)


def _dihedral_group(field):
    rot = GroupElement(Matrix(field, [[0, -1], [1, 0]]))
    flip = GroupElement(Matrix(field, [[1, 0], [0, -1]]))
    elems = set()
    frontier = {GroupElement(Matrix.identity(field, 2))}
    while frontier:
        g = frontier.pop()
        if g in elems:
            continue
        elems.add(g)
        frontier.add(g * rot)
        frontier.add(g * flip)
    return FiniteGroup(sorted(elems, key=lambda e: e._key))


def test_pseudoreflection_examples():
    F = _sign_ring().field
    assert is_pseudoreflection(GroupElement(Matrix(F, [[-1, 0], [0, 1]])))
    assert not is_pseudoreflection(GroupElement(Matrix(F, [[-1, 0], [0, -1]])))
    assert not is_pseudoreflection(GroupElement(Matrix.identity(F, 2)))
    swap = GroupElement(Matrix(F, [[0, 1], [1, 0]]))
    assert is_pseudoreflection(swap)


def test_pseudoreflection_over_prime_field():
    from weylops import FieldSpec

    F3 = FieldSpec(3)
    assert is_pseudoreflection(GroupElement(Matrix(F3, [[2, 0], [0, 1]])))
    assert not is_pseudoreflection(GroupElement(Matrix(F3, [[2, 0], [0, 2]])))


def _gl2_group(p):
    """All of GL2(F_p)."""
    from itertools import product
    from weylops import FieldSpec

    F = FieldSpec(p)
    return FiniteGroup([
        GroupElement(Matrix(F, [[a, b], [c, d]]))
        for a, b, c, d in product(range(p), repeat=4) if (a * d - b * c) % p
    ])


def _s3_group(field):
    from itertools import permutations

    return FiniteGroup([
        GroupElement(Matrix(field, [[int(perm[j] == i) for j in range(3)]
                                    for i in range(3)]))
        for perm in permutations(range(3))
    ])


@pytest.mark.parametrize("group", ["gl2f2", "gl2f3", "d4"])
def test_elements_carry_their_inverses(group):
    """Every element's stored inverse is the eliminated inverse, also for
    elements built as products (D4 comes from a closure by products), and
    products carry h^-1 g^-1."""
    if group == "d4":
        G = _dihedral_group(_sign_ring().field)
    else:
        G = _gl2_group(2 if group == "gl2f2" else 3)
    for g in G:
        assert g.inverse().matrix == g.matrix.inverse()
        assert g.inverse().inverse().matrix == g.matrix
        for h in G:
            gh = g * h
            assert gh.inverse() == h.inverse() * g.inverse()
            assert gh.inverse().matrix == gh.matrix.inverse()


def test_singular_matrix_is_not_a_group_element():
    from weylops import FieldSpec

    for F, rows in ((_sign_ring().field, [[1, 2], [2, 4]]),
                    (FieldSpec(3), [[1, 1], [2, 2]]),
                    (FieldSpec(2), [[0, 0], [0, 1]])):
        with pytest.raises(DomainError, match="invertible"):
            GroupElement(Matrix(F, rows))
    with pytest.raises(DomainError, match="square"):
        GroupElement(Matrix(_sign_ring().field, [[1, 0]]))


def _count_eliminations(monkeypatch):
    """Count calls of Matrix.inverse and linalg.rref (which Matrix.rank,
    nullspace and inverse go through) from here on."""
    from weylops import linalg

    calls = {"inverse": 0, "rref": 0}
    inverse, rref = linalg.Matrix.inverse, linalg.rref

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_rref(*args):
        calls["rref"] += 1
        return rref(*args)

    monkeypatch.setattr(linalg.Matrix, "inverse", counted_inverse)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    return calls


def test_group_action_does_no_elimination(rng, monkeypatch):
    """Reynolds averages, invariance and equivariance checks read the
    inverses the elements carry: no elimination per action or per group
    product."""
    R2, R3 = make_ring(0, 2), make_ring(0, 3)
    F = R2.field
    groups = [(_sign_group(F)[0], R2), (_dihedral_group(F), R2),
              (_s3_group(F), R3)]
    ops = [(G, random_diffop(rng, R, max_order=2, coeff_degree=2))
           for G, R in groups for _ in range(3)]
    calls = _count_eliminations(monkeypatch)
    for G, xi in ops:
        avg = reynolds(G, xi)
        assert is_invariant(G, avg)
        assert equivariance_check(G, xi)
    assert calls == {"inverse": 0, "rref": 0}


def test_closure_check_eliminates_only_the_identity(monkeypatch):
    """FiniteGroup checks closure from its generators by matrix products
    alone, with at most one elimination."""
    elements = {"d4": list(_dihedral_group(_sign_ring().field)),
                "gl2f3": list(_gl2_group(3))}
    calls = _count_eliminations(monkeypatch)
    for elems in elements.values():
        before = dict(calls)
        FiniteGroup(elems)
        assert calls["inverse"] - before["inverse"] <= 1
        assert calls["rref"] - before["rref"] <= 1


def test_closure_from_generators(monkeypatch):
    """The closure check multiplies every element by every generator once,
    and the generators reach the whole list."""
    from weylops import linalg

    F = _sign_ring().field
    mul = linalg.Matrix.__mul__
    for elems in (list(_gl2_group(2)), list(_gl2_group(3)), list(_dihedral_group(F)),
                  list(_s3_group(F))):
        calls = []
        monkeypatch.setattr(linalg.Matrix, "__mul__",
                            lambda a, b: calls.append(1) or mul(a, b))
        S = FiniteGroup(elems).generators
        monkeypatch.undo()
        assert len(calls) == len(elems) * len(S) and 2 ** len(S) <= len(elems)
        reached = set()
        frontier = [GroupElement(Matrix.identity(elems[0].matrix.field, elems[0].n))]
        while frontier:
            g = frontier.pop()
            if g not in reached:
                reached.add(g)
                frontier.extend(g * s for s in S)
        assert reached == set(elems)


def test_invariance_is_tested_on_the_generators(rng):
    """A fixed point of the generators is fixed by every element; the
    ring is checked even when the group has no generator."""
    R = _sign_ring()
    for G in (_rotation_group(R.field), _dihedral_group(R.field)):
        assert len(G.generators) < G.order
        for _ in range(10):
            xi = random_diffop(rng, R, max_order=2, max_terms=2)
            for op in (xi, reynolds(G, xi)):
                assert is_invariant(G, op) == all(act_on_op(g, op) == op for g in G)
    trivial = FiniteGroup([GroupElement(Matrix.identity(R.field, 2))])
    assert trivial.generators == [] and is_invariant(trivial, DiffOp.partial(R, 0))
    with pytest.raises(DomainError):
        is_invariant(trivial, DiffOp.partial(make_ring(0, 3), 0))
    with pytest.raises(DomainError):
        is_invariant_poly(trivial, make_ring(0, 3).variable(0))


def test_group_validation():
    from weylops import FieldSpec

    F = _sign_ring().field
    minus = GroupElement(Matrix(F, [[-1, 0], [0, -1]]))
    with pytest.raises(DomainError):
        FiniteGroup([minus])  # missing identity
    with pytest.raises(DomainError):
        GroupElement(Matrix(F, [[1, 1], [1, 1]]))  # singular
    rot = GroupElement(Matrix(F, [[0, -1], [1, 0]]))
    ident = GroupElement(Matrix.identity(F, 2))
    # equal entries over another field make another element
    F3 = FieldSpec(3)
    assert GroupElement(Matrix(F, [[2]])) != GroupElement(Matrix(F3, [[2]]))
    assert GroupElement(Matrix(F, [[2]])) == GroupElement(Matrix(FieldSpec(0), [[2]]))
    mixed = "group elements must share one field and size"
    for elems, message in (([ident, rot], "not closed under products"),
                           ([ident, minus, ident], "duplicate"),
                           ([minus, rot], "does not contain the identity"),
                           ([], "at least the identity"),
                           ([GroupElement(Matrix.identity(F, 1)),
                             GroupElement(Matrix.identity(F3, 1))], mixed),
                           ([GroupElement(Matrix.identity(F, 1)), ident], mixed),
                           ([GroupElement(Matrix.identity(F3, 2)), minus], mixed)):
        with pytest.raises(DomainError, match=message):
            FiniteGroup(elems)


def test_ring_check_refuses_another_field():
    """An element over Q does not act on a ring over F_5 with as many
    variables; a ring over a freshly built, equal field is acted on."""
    from weylops import FieldSpec, PolyRing

    G, minus = _sign_group(_sign_ring().field)
    R5 = make_ring(5, 2)
    for act in (lambda: act_on_op(minus, DiffOp.partial(R5, 0)),
                lambda: act_on_poly(minus, R5.gens()[0]),
                lambda: reynolds(G, DiffOp.partial(R5, 0)),
                # |G| = 2 is not invertible over F_2: the ring is named first
                lambda: reynolds(G, DiffOp.partial(make_ring(2, 2), 0))):
        with pytest.raises(DomainError, match="does not act on this ring"):
            act()
    fresh = PolyRing(FieldSpec(0), 2)
    assert fresh.field is not minus.matrix.field
    s = fresh.gens()[0]
    assert act_on_poly(minus, s) == -s
    assert act_on_op(minus, DiffOp.partial(fresh, 0)) == -DiffOp.partial(fresh, 0)
    assert reynolds(G, DiffOp.partial(fresh, 0)).is_zero()


def test_act_on_poly_examples():
    R = _sign_ring()
    s, t = R.gens()
    G, minus = _sign_group(R.field)
    assert act_on_poly(minus, s * t) == s * t
    assert act_on_poly(minus, s) == -s
    ident = GroupElement(Matrix.identity(R.field, 2))
    f = s**3 + t - 1
    assert act_on_poly(ident, f) == f


def test_act_on_poly_matches_the_ring_map(rng):
    """act_on_poly substitutes the element's prepared images: the value
    and key order of applying its ring map, in every characteristic; and
    is_identity agrees with comparing the matrix to the identity."""
    from weylops.poly import apply_ring_map
    from conftest import random_poly

    F = _sign_ring().field
    dense = GroupElement(Matrix(F, [[2, 1], [Fraction(1, 2), Fraction(-3, 4)]]))
    for G, R in ((_dihedral_group(F), make_ring(0, 2)), (_s3_group(F), make_ring(0, 3)),
                 (_gl2_group(2), make_ring(2, 2)), (_gl2_group(3), make_ring(3, 2)),
                 ([dense, dense.inverse()], make_ring(0, 2))):
        for g in G:
            assert g.is_identity() == (
                g.matrix == Matrix.identity(g.matrix.field, g.n))
            for _ in range(3):
                f = random_poly(rng, R, max_degree=3, max_terms=4)
                moved, want = act_on_poly(g, f), apply_ring_map(g.ring_map(R), f)
                assert moved == want and list(moved.num) == list(want.num)
                assert moved.den == want.den


def test_act_on_op_examples():
    R = _sign_ring()
    s, t = R.gens()
    ds, dt = DiffOp.partial(R, 0), DiffOp.partial(R, 1)
    G, minus = _sign_group(R.field)
    assert act_on_op(minus, s * ds) == s * ds
    assert act_on_op(minus, ds) == -ds
    ident = GroupElement(Matrix.identity(R.field, 2))
    xi = s * dt + DiffOp.basis(R, (1, 1))
    assert act_on_op(ident, xi) == xi


def test_action_axioms(rng):
    R = _sign_ring()
    for G in (_rotation_group(R.field), _dihedral_group(R.field)):
        for _ in range(6):
            xi = random_diffop(rng, R, max_order=2, coeff_degree=2)
            for g in list(G)[:4]:
                for h in list(G)[:4]:
                    assert act_on_op(g * h, xi) == act_on_op(g, act_on_op(h, xi))
            ident = GroupElement(Matrix.identity(R.field, 2))
            assert act_on_op(ident, xi) == xi


def test_action_matches_function_level_contract(rng):
    R = _sign_ring()
    G = _rotation_group(R.field)
    from conftest import random_poly

    for g in G:
        m = g.ring_map(R)
        for _ in range(5):
            xi = random_diffop(rng, R, max_order=2, coeff_degree=2)
            f = random_poly(rng, R)
            moved = act_on_op(g, xi)
            assert moved.apply(f) == act_on_poly(g, xi.apply(act_on_poly(g.inverse(), f)))


def test_two_veronese_generators_invariant():
    R = _sign_ring()
    s, t = R.gens()
    ds, dt = DiffOp.partial(R, 0), DiffOp.partial(R, 1)
    G, _ = _sign_group(R.field)
    generators = [
        DiffOp.from_poly(s * s),
        DiffOp.from_poly(s * t),
        DiffOp.from_poly(t * t),
        s * ds, s * dt, t * ds, t * dt,
        ds * ds, ds * dt, dt * dt,
    ]
    for gen in generators:
        assert is_invariant(G, gen)
    # classical squares read as doubled divided powers
    assert ds * ds == 2 * DiffOp.basis(R, (2, 0))
    assert ds * dt == DiffOp.basis(R, (1, 1))
    assert dt * dt == 2 * DiffOp.basis(R, (0, 2))


def test_two_veronese_witnesses_not_invariant():
    R = _sign_ring()
    s, t = R.gens()
    G, _ = _sign_group(R.field)
    witnesses = [
        DiffOp.from_poly(s),
        DiffOp.from_poly(t),
        DiffOp.partial(R, 0),
        DiffOp.partial(R, 1),
    ]
    for w in witnesses:
        assert not is_invariant(G, w)
    assert not is_invariant_poly(G, s)
    assert is_invariant_poly(G, s * t)
    assert is_invariant(G, DiffOp.zero(R))


def test_reynolds_examples():
    R = _sign_ring()
    s, _ = R.gens()
    ds = DiffOp.partial(R, 0)
    G, _ = _sign_group(R.field)
    assert reynolds(G, s * ds) == s * ds
    assert reynolds(G, DiffOp.from_poly(s)).is_zero()
    assert reynolds(G, DiffOp.constant(R, 1)) == DiffOp.constant(R, 1)


def test_reynolds_idempotent_and_invariant(rng):
    R = _sign_ring()
    G, _ = _sign_group(R.field)
    for _ in range(10):
        xi = random_diffop(rng, R, max_order=2, coeff_degree=2)
        avg = reynolds(G, xi)
        assert is_invariant(G, avg)
        assert reynolds(G, avg) == avg


def test_reynolds_blocked_when_order_divides_characteristic():
    R = make_ring(2, 2)
    ident = GroupElement(Matrix.identity(R.field, 2))
    swap = GroupElement(Matrix(R.field, [[0, 1], [1, 0]]))
    G = FiniteGroup([ident, swap])
    with pytest.raises(DomainError):
        reynolds(G, DiffOp.partial(R, 0))


def test_reynolds_allowed_when_order_prime_to_characteristic(rng):
    R = make_ring(3, 2)
    ident = GroupElement(Matrix.identity(R.field, 2))
    minus = GroupElement(Matrix(R.field, [[2, 0], [0, 2]]))
    G = FiniteGroup([ident, minus])
    for _ in range(5):
        xi = random_diffop(rng, R, max_order=2)
        avg = reynolds(G, xi)
        assert is_invariant(G, avg)


def test_transposition_preserves_invariants(rng):
    R = _sign_ring()
    G, _ = _sign_group(R.field)
    for _ in range(15):
        xi = random_diffop(rng, R, max_order=2, coeff_degree=2)
        avg = reynolds(G, xi)
        assert is_invariant(G, avg)
        assert is_invariant(G, standard_transpose(avg))


def test_equivariance_examples():
    R = _sign_ring()
    s, _ = R.gens()
    ds, dt = DiffOp.partial(R, 0), DiffOp.partial(R, 1)
    G, _ = _sign_group(R.field)
    assert equivariance_check(G, ds)
    assert equivariance_check(G, s * s * dt)
    assert equivariance_check(G, DiffOp.constant(R, 1))


def test_equivariance_random_groups(rng):
    R = _sign_ring()
    for G in (_rotation_group(R.field), _dihedral_group(R.field)):
        for _ in range(6):
            xi = random_diffop(rng, R, max_order=2, coeff_degree=2)
            assert equivariance_check(G, xi)


def test_equivariance_in_characteristic_p(rng):
    """The transposition commutes with all of GL2(F_2) and GL2(F_3),
    divided powers of order p and beyond included (``equivariance_check``'s
    argument)."""
    for p in (2, 3):
        G, R = _gl2_group(p), make_ring(p, 2)
        for xi in [DiffOp.partial(R, 0), DiffOp.basis(R, (p, 1))] + [
                random_diffop(rng, R, max_order=5, coeff_degree=2) for _ in range(8)]:
            assert equivariance_check(G, xi)


def _is_constant(f):
    return all(sum(e) == 0 for e in f.num)


def test_transformed_derivatives_are_constant_derivations(rng):
    R = _sign_ring()
    for G in (_rotation_group(R.field), _dihedral_group(R.field)):
        for g in G:
            for i in range(2):
                moved = act_on_op(g, DiffOp.partial(R, i))
                assert moved.is_derivation()
                assert all(_is_constant(f) for f in moved.terms.values())
