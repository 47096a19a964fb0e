"""Standard and twisted transpositions, transport, filtration behavior."""

import random
from fractions import Fraction
from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from weylops import (
    DiffOp,
    DomainError,
    GroupElement,
    Matrix,
    act_on_op,
    act_on_poly,
    standard_transpose,
    transport_via_coordinates,
    twisted_transpose,
)
from weylops import exponents
from weylops.diffop import operator_from_monomial_values
from weylops import invariants, poly
from weylops.poly import RingMap, apply_ring_map, prepare_substitution
from weylops.transpose import TRANSPORT_TERMS_LIMIT
from conftest import (
    check_graded_sign,
    derivation_formula_check,
    make_ring,
    random_diffop,
    random_poly,
)


def test_standard_examples():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert standard_transpose(DiffOp.from_poly(x)) == DiffOp.from_poly(x)
    assert standard_transpose(d) == -d
    assert standard_transpose(x * d) == -(x * d) - 1


def test_standard_properties(rng):
    for char in (0, 2, 3, 5):
        R = make_ring(char, 2)
        phi = standard_transpose
        for _ in range(25):
            xi = random_diffop(rng, R)
            eta = random_diffop(rng, R)
            assert phi(phi(xi)) == xi
            assert phi(xi * eta) == phi(eta) * phi(xi)
            f = random_poly(rng, R)
            assert phi(DiffOp.from_poly(f)) == DiffOp.from_poly(f)
            assert phi(xi).order() == xi.order()
            if char:
                assert phi(xi).level() == xi.level()


def _standard_transpose_oracle(xi):
    """The transposition term by term: the sum of (-1)^|alpha| d^[alpha]*f,
    each product normal-ordered by the general operator product."""
    out = DiffOp.zero(xi.ring)
    for alpha, f in xi.terms.items():
        term = DiffOp.basis(xi.ring, alpha) * f
        out = out + (-term if sum(alpha) % 2 else term)
    return out


@st.composite
def _operator(draw):
    """An operator of order <= 4 with coefficients of degree <= 3 over a
    ring of 1 to 3 variables in characteristic 0, 2, 3, 5 or 1000003."""
    char = draw(st.sampled_from([0, 2, 3, 5, 1000003]))
    R = make_ring(char, draw(st.integers(1, 3)))
    entry = st.integers(0, char - 1) if char else st.fractions(
        min_value=-4, max_value=4, max_denominator=3)
    terms = draw(st.dictionaries(
        st.sampled_from(list(exponents.iter_up_to_degree(R.nvars, 4))),
        st.dictionaries(
            st.sampled_from(list(exponents.iter_up_to_degree(R.nvars, 3))),
            entry, min_size=1, max_size=3),
        max_size=4,
    ))
    return DiffOp.from_terms(R, {a: R.from_terms(f) for a, f in terms.items()})


@settings(max_examples=60, deadline=None)
@given(_operator())
def test_standard_transpose_matches_term_by_term_products(xi):
    assert standard_transpose(xi) == _standard_transpose_oracle(xi)


def test_twisted_examples():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert twisted_transpose([x**2], d) == -d + x**2
    image = twisted_transpose([x**2], d * d)
    expected = (-d + DiffOp.from_poly(x**2)) ** 2
    assert image == expected
    assert twisted_transpose([x**2], image) == d * d


def test_twisted_zero_twist_is_standard(rng):
    R = make_ring(0, 2)
    zero_twist = [R.zero(), R.zero()]
    for _ in range(20):
        xi = random_diffop(rng, R)
        assert twisted_transpose(zero_twist, xi) == standard_transpose(xi)


def test_twisted_properties(rng):
    R = make_ring(0, 2)
    x, y = R.gens()
    phi = partial(twisted_transpose, [x**2, y * 3])
    for _ in range(20):
        xi = random_diffop(rng, R, max_order=3, coeff_degree=2)
        eta = random_diffop(rng, R, max_order=3, coeff_degree=2)
        assert phi(phi(xi)) == xi
        assert phi(xi * eta) == phi(eta) * phi(xi)
        f = random_poly(rng, R)
        assert phi(DiffOp.from_poly(f)) == DiffOp.from_poly(f)
        assert phi(xi).order() == xi.order()


def test_twisted_with_constant_terms(rng):
    R = make_ring(0, 2)
    x, y = R.gens()
    phi = partial(twisted_transpose, [x**2 + 1, y**3 - y + 2])
    for _ in range(10):
        xi = random_diffop(rng, R, max_order=3, coeff_degree=2)
        eta = random_diffop(rng, R, max_order=3, coeff_degree=2)
        assert phi(phi(xi)) == xi
        assert phi(xi * eta) == phi(eta) * phi(xi)


def test_twisted_forms_each_power_once(monkeypatch):
    """Terms that share a power of one variable's image share its core:
    d[2,0], x1*d[2,1] and d[0,1] need the powers (0, 2) and (1, 1) only."""
    import weylops.transpose as T

    R = make_ring(0, 2)
    x, y = R.gens()
    twist = [x**2 + 1, y * 3]
    xi = DiffOp.from_terms(R, {(2, 0): 1, (2, 1): x, (0, 1): y - 2})
    expected = twisted_transpose(twist, xi)
    calls = []
    core_pow = T.core_pow

    def counted(*args):
        calls.append(args[1])
        return core_pow(*args)

    monkeypatch.setattr(T, "core_pow", counted)
    assert twisted_transpose(twist, xi) == expected
    assert sorted(calls) == [1, 2]
    monkeypatch.undo()
    phi = partial(twisted_transpose, twist)
    assert phi(expected) == xi


def test_twisted_rejected_in_char_p():
    R = make_ring(2, 1)
    with pytest.raises(DomainError):
        twisted_transpose([R.variable(0) ** 2], DiffOp.partial(R, 0))


def test_twist_must_be_univariate_in_own_variable():
    R = make_ring(0, 2)
    x, y = R.gens()
    with pytest.raises(DomainError):
        twisted_transpose([y, R.zero()], DiffOp.zero(R))
    twisted_transpose([x**3, y**2 + y], DiffOp.zero(R))


def test_twist_needs_one_polynomial_per_variable_of_the_ring():
    R = make_ring(0, 2)
    x, y = R.gens()
    for twist in ([x], [x, y, x]):
        with pytest.raises(DomainError, match=f"per variable: 2, got {len(twist)}$"):
            twisted_transpose(twist, DiffOp.zero(R))
    other = make_ring(0, 2, ("a", "b")).gens()
    for twist in (other, [x, 1], [x, make_ring(0, 1).variable(0)]):
        with pytest.raises(DomainError, match="must live in the operator's ring"):
            twisted_transpose(twist, DiffOp.zero(R))


def test_twisted_differs_from_standard():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert twisted_transpose([x**2], d) != standard_transpose(d)


def test_graded_sign_examples():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    std = standard_transpose
    assert check_graded_sign(d, std)
    assert check_graded_sign(x * d, std)
    tw = partial(twisted_transpose, [x**2])
    assert check_graded_sign(d * d, tw)
    with pytest.raises(DomainError):
        check_graded_sign(DiffOp.zero(R), std)


def test_graded_sign_random(rng):
    for char in (0, 3):
        R = make_ring(char, 2)
        phi = standard_transpose
        for _ in range(25):
            xi = random_diffop(rng, R, allow_zero=False)
            assert check_graded_sign(xi, phi)


def test_derivation_formula_examples():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    std = standard_transpose
    assert derivation_formula_check(d, std)
    assert standard_transpose(d).apply(R.one()).is_zero()

    tw = partial(twisted_transpose, [x**2])
    assert derivation_formula_check(d, tw)
    assert tw(d).apply(R.one()) == x**2

    theta = x**2 * d
    assert derivation_formula_check(theta, std)
    assert std(theta).apply(R.one()) == -2 * x

    with pytest.raises(DomainError):
        derivation_formula_check(DiffOp.from_poly(x), std)


def test_check_on_one_tactic(rng):
    """Involutivity follows from checking the squares on 1 alone; both the
    spanning-family check and the full identity hold and agree."""
    for char in (0, 3):
        R = make_ring(char, 2)
        phi = standard_transpose
        for alpha in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 3)):
            for beta in ((0, 0), (1, 0), (2, 1)):
                xi = R.monomial(beta) * DiffOp.basis(R, alpha)
                twice = phi(phi(xi))
                assert twice.apply(R.one()) == xi.apply(R.one())
                assert twice == xi


def test_transport_examples():
    R = make_ring(0, 1)
    d = DiffOp.partial(R, 0)
    ident = RingMap.identity(R)
    assert transport_via_coordinates(ident, d) == d

    scale = RingMap.from_matrix(R, [[2]], inverse_rows=[[Fraction(1, 2)]])
    assert transport_via_coordinates(scale, d) == Fraction(1, 2) * d

    R2 = make_ring(0, 2)
    swap = RingMap.from_matrix(R2, [[0, 1], [1, 0]], inverse_rows=[[0, 1], [1, 0]])
    assert transport_via_coordinates(swap, DiffOp.basis(R2, (2, 0))) == DiffOp.basis(
        R2, (0, 2)
    )


def test_transport_is_ring_automorphism(rng):
    R = make_ring(0, 2)
    m = RingMap.from_matrix(
        R, [[1, 1], [0, 1]], inverse_rows=[[1, -1], [0, 1]]
    )
    for _ in range(12):
        xi = random_diffop(rng, R, max_order=3, coeff_degree=2)
        eta = random_diffop(rng, R, max_order=3, coeff_degree=2)
        lhs = transport_via_coordinates(m, xi * eta)
        rhs = transport_via_coordinates(m, xi) * transport_via_coordinates(m, eta)
        assert lhs == rhs
        assert transport_via_coordinates(m, xi).order() == xi.order()


def test_transport_preserves_level(rng):
    R = make_ring(3, 2)
    m = RingMap.from_matrix(R, [[1, 1], [0, 1]], inverse_rows=[[1, 2], [0, 1]])
    for _ in range(10):
        xi = random_diffop(rng, R, max_order=3, allow_zero=False)
        assert transport_via_coordinates(m, xi).level() == xi.level()


def test_transport_builds_only_supported_divided_powers():
    """A monomial matrix sends d^[alpha] to one term however large alpha is.
    The guardrail bounds the product over k of the term counts of
    l_k^[alpha_k]: one dense row of a shear passes at a large order, two
    dense rows are refused before any product once the product is past it."""
    R = make_ring(0, 2)
    sign = RingMap.from_matrix(R, [[-1, 0], [0, -1]])
    big = DiffOp.basis(R, (10**6, 3))
    assert transport_via_coordinates(sign, big) == -big
    shear = RingMap.from_matrix(R, [[1, 1], [0, 1]])
    assert len(transport_via_coordinates(shear, DiffOp.basis(R, (300, 0))).terms) == 301
    # B = [[2, -1], [-1, 1]]: both rows dense, so d^[a, b] meets (a+1)(b+1)
    # term pairs; 129^2 is past the guardrail, and so is the sum it is in
    dense = RingMap.from_matrix(R, [[1, 1], [1, 2]])
    assert len(transport_via_coordinates(dense, DiffOp.basis(R, (20, 20))).terms) == 41
    for xi in (DiffOp.basis(R, (128, 128)),
               DiffOp.basis(R, (1, 0)) + DiffOp.basis(R, (128, 128))):
        with pytest.raises(DomainError, match="guardrail"):
            transport_via_coordinates(dense, xi)
    # three dense rows: (5, 5, 5) meets at most 21^3 term pairs, (6, 6, 6) 28^3
    assert 21**3 <= TRANSPORT_TERMS_LIMIT < 28**3
    R3 = make_ring(0, 3)
    cyclic = RingMap.from_matrix(R3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert len(transport_via_coordinates(cyclic, DiffOp.basis(R3, (5, 5, 5))).terms) == 136
    with pytest.raises(DomainError, match="guardrail"):
        transport_via_coordinates(cyclic, DiffOp.basis(R3, (6, 6, 6)))


def test_charp_coordinate_invariance_gl2f2(rng):
    """The standard transposition commutes with every linear change of
    coordinates in characteristic p (it is the only one, so transported
    copies must coincide)."""
    R = make_ring(2, 2)
    elements = _all_gl2(R)
    assert len(elements) == 6
    for m in elements:
        for _ in range(6):
            xi = random_diffop(rng, R, max_order=3, allow_zero=False)
            minv = RingMap.from_matrix(
                R,
                Matrix(R.field, m.rows).inverse().rows,
                inverse_rows=m.rows,
            )
            conj = transport_via_coordinates(
                m, standard_transpose(transport_via_coordinates(minv, xi))
            )
            assert conj == standard_transpose(xi)


def _all_gl2(R):
    from itertools import product

    p = R.characteristic
    out = []
    for entries in product(range(p), repeat=4):
        rows = [[entries[0], entries[1]], [entries[2], entries[3]]]
        mat = Matrix(R.field, rows)
        if mat.rank() == 2:
            out.append(
                RingMap.from_matrix(R, rows, inverse_rows=mat.inverse().rows)
            )
    return out


def _transport_oracle(m, xi):
    """Evaluate-and-solve transport: the values of m*xi*m^-1 on every
    monomial up to order + coefficient degree + 1, pinned back into normal
    form by the triangular solve (the surplus rows must solve to zero)."""
    ring = xi.ring
    if xi.is_zero():
        return xi
    inverse = RingMap.from_matrix(
        ring, Matrix(ring.field, m.rows).inverse().rows
    )
    bound = xi.order() + max(f.degree() for f in xi.terms.values()) + 1
    values = {}
    for beta in exponents.iter_up_to_degree(ring.nvars, bound):
        pulled = apply_ring_map(inverse, ring.monomial(beta))
        values[beta] = apply_ring_map(m, xi.apply(pulled))
    out = operator_from_monomial_values(ring, values)
    assert out.order() <= xi.order()
    return out


@st.composite
def _invertible_map_and_operator(draw):
    """A random invertible linear map as P*L*U (every invertible matrix has
    this form) and an operator of order <= 2 with coefficients of degree
    <= 2."""
    char = draw(st.sampled_from([0, 2, 3, 5, 1000003]))
    n = draw(st.integers(1, 3))
    R = make_ring(char, n)
    F = R.field
    entry = st.integers(0, char - 1) if char else st.integers(-3, 3)
    unit = st.integers(1, char - 1) if char else st.sampled_from(
        [1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3)]
    )
    perm = draw(st.permutations(range(n)))
    P = Matrix(F, [[int(perm[i] == j) for j in range(n)] for i in range(n)])
    L = Matrix(F, [[draw(entry) if j < i else int(i == j) for j in range(n)]
                   for i in range(n)])
    U = Matrix(F, [[draw(entry) if j > i else draw(unit) if i == j else 0
                    for j in range(n)] for i in range(n)])
    m = RingMap.from_matrix(R, (P * L * U).rows)
    exps = list(exponents.iter_up_to_degree(n, 2))
    terms = draw(st.dictionaries(
        st.sampled_from(exps),
        st.dictionaries(st.sampled_from(exps), entry, min_size=1, max_size=3),
        max_size=3,
    ))
    xi = DiffOp.from_terms(R, {a: R.from_terms(f) for a, f in terms.items()})
    return m, xi


@settings(max_examples=60, deadline=None)
@given(_invertible_map_and_operator())
def test_transport_matches_evaluate_and_solve(data):
    m, xi = data
    assert transport_via_coordinates(m, xi) == _transport_oracle(m, xi)


def test_transport_matches_evaluate_and_solve_on_gl2(rng):
    for p in (2, 3):
        R = make_ring(p, 2)
        elements = _all_gl2(R)
        assert len(elements) == (p * p - 1) * (p * p - p)
        for m in elements:
            for _ in range(2):
                xi = random_diffop(rng, R, max_order=3, coeff_degree=2)
                assert transport_via_coordinates(m, xi) == _transport_oracle(m, xi)


def _action_elements(R):
    """Group elements acting on R: all of GL2(F_p) in characteristic p, and
    in characteristic 0 the dihedral group of order 8 and some dense
    matrices, built both from a matrix and as products."""
    if R.characteristic:
        return [GroupElement(Matrix(R.field, m.rows)) for m in _all_gl2(R)]
    F = R.field
    rot = GroupElement(Matrix(F, [[0, -1], [1, 0]]))
    flip = GroupElement(Matrix(F, [[1, 0], [0, -1]]))
    shear = GroupElement(Matrix(F, [[1, 1], [0, 1]]))
    dense = GroupElement(Matrix(F, [[2, 1], [Fraction(1, 2), Fraction(-3, 4)]]))
    d4, r = [], GroupElement(Matrix.identity(F, 2))
    for _ in range(4):
        d4 += [r, r * flip]
        r = r * rot
    return d4 + [shear, dense, shear * dense, dense.inverse() * shear]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_action_matches_transport_of_a_ring_map(char):
    """act_on_op reads the inverse the element carries; transporting along
    the element's ring map, with or without its inverse supplied, and the
    evaluate-and-solve oracle give the same operator."""
    rng = random.Random(7100 + char)
    R = make_ring(char, 2)
    for g in _action_elements(R):
        xi = random_diffop(rng, R, max_order=2, coeff_degree=2, allow_zero=False)
        moved = act_on_op(g, xi)
        m = RingMap.from_matrix(R, g.matrix.rows)
        assert moved == transport_via_coordinates(m, xi)
        with_inverse = RingMap.from_matrix(
            R, g.matrix.rows, inverse_rows=g.inverse().matrix.rows
        )
        assert moved == transport_via_coordinates(with_inverse, xi)
        assert moved == _transport_oracle(m, xi)


def _prepared_action_groups(char):
    """Elements acting on the plane or on 3-space over the field of the
    characteristic: the sign group, D4 and S3 in every characteristic,
    all of GL2(F_p) for p = 2, 3, and over Q a matrix whose entries and
    inverse's entries are not all integral."""
    F = make_ring(char, 1).field
    rot = GroupElement(Matrix(F, [[0, -1], [1, 0]]))
    flip = GroupElement(Matrix(F, [[1, 0], [0, -1]]))
    d4, r = [], GroupElement(Matrix.identity(F, 2))
    for _ in range(4):
        d4 += [r, r * flip]
        r = r * rot
    s3 = [GroupElement(Matrix(F, [[int(perm[j] == i) for j in range(3)]
                                  for i in range(3)]))
          for perm in permutations(range(3))]
    groups = {"sign": [GroupElement(Matrix.identity(F, 2)),
                       GroupElement(Matrix(F, [[-1, 0], [0, -1]]))],
              "d4": d4, "s3": s3}
    if char in (2, 3):
        groups["gl2"] = _action_elements(make_ring(char, 2))
    if char == 0:
        dense = GroupElement(Matrix(F, [[2, 1], [Fraction(1, 2), Fraction(-3, 4)]]))
        groups["dense"] = [dense, dense.inverse()]
    return groups


def _key_order(op):
    return [(alpha, list(f)) for alpha, f in op.num.items()], op.den


@st.composite
def _element_and_operator(draw):
    char = draw(st.sampled_from([0, 2, 3, 5, 1000003]))
    groups = _prepared_action_groups(char)
    elements = groups[draw(st.sampled_from(sorted(groups)))]
    g = elements[draw(st.integers(0, len(elements) - 1))]
    R = make_ring(char, g.n)
    xi = random_diffop(random.Random(draw(st.integers(0, 2**32))), R,
                       max_order=2, coeff_degree=2)
    return g, xi


@settings(max_examples=50, deadline=None)
@given(_element_and_operator())
def test_prepared_action_matches_bare_rows_and_oracle(data):
    """act_on_op, through the element's prepared substitution, gives the
    operator that transport along a map of its bare rows gives, key order
    included, and the evaluate-and-solve oracle's value; twice in a row, so
    the second action reads the kept record."""
    g, xi = data
    bare = transport_via_coordinates(RingMap.from_matrix(
        xi.ring, g.matrix.rows, inverse_rows=g.inverse().matrix.rows
    ), xi)
    for _ in range(2):
        moved = act_on_op(g, xi)
        assert moved == bare and _key_order(moved) == _key_order(bare)
    m = RingMap.from_matrix(xi.ring, g.matrix.rows)
    assert moved == _transport_oracle(m, xi)


def _ref_substitute(f, rows):
    """f with x_j replaced by sum_i rows[i][j] x_i, one variable factor at
    a time in Fractions."""
    n = len(rows)
    out = {}
    for mu, c in f.terms.items():
        term = {(0,) * n: c}
        for j, e in enumerate(mu):
            for _ in range(e):
                step = {}
                for m, v in term.items():
                    for i in range(n):
                        k = tuple(a + (t == i) for t, a in enumerate(m))
                        step[k] = step.get(k, 0) + v * rows[i][j]
                term = step
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return f.ring.from_terms(out)


def test_substitution_with_mixed_denominators_matches_fractions(rng):
    """Over Q, matrices whose images and inverse rows have different
    denominators, some integral and some not: apply_ring_map and
    act_on_poly agree with substituting in Fractions, and act_on_op with
    the transport along the ring map and the evaluate-and-solve oracle."""
    entries = [0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5),
               Fraction(3, 4), Fraction(-5, 6)]
    for n in (1, 2, 2, 3):
        R = make_ring(0, n)
        for _ in range(4):
            mat = Matrix(R.field, [[rng.choice(entries) for _ in range(n)] for _ in range(n)])
            while mat.rank() < n:
                mat = Matrix(R.field, [[rng.choice(entries) for _ in range(n)]
                                       for _ in range(n)])
            g = GroupElement(mat)
            m = RingMap.from_matrix(R, mat.rows)
            for _ in range(2):
                f = random_poly(rng, R)
                assert apply_ring_map(m, f) == act_on_poly(g, f) == _ref_substitute(f, mat.rows)
                xi = random_diffop(rng, R, max_order=2, coeff_degree=2)
                moved = act_on_op(g, xi)
                assert moved == transport_via_coordinates(m, xi) == _transport_oracle(m, xi)


def test_prepared_action_keeps_the_guardrail():
    """The term guardrail refuses through act_on_op with the message that
    transport on a ring map gives, on the element's first action (which
    prepares it) and on a later one."""
    R = make_ring(0, 2)
    rows = [[1, 1], [1, 2]]
    m = RingMap.from_matrix(R, rows)
    for xi in (DiffOp.basis(R, (128, 128)),
               DiffOp.basis(R, (1, 0)) + DiffOp.basis(R, (128, 128))):
        with pytest.raises(DomainError) as via_map:
            transport_via_coordinates(m, xi)
        assert "guardrail" in str(via_map.value)
        g = GroupElement(Matrix(R.field, rows))
        for _ in range(2):
            with pytest.raises(DomainError) as via_element:
                act_on_op(g, xi)
            assert str(via_element.value) == str(via_map.value)
        small = DiffOp.basis(R, (20, 20))
        assert act_on_op(g, small) == transport_via_coordinates(m, small)


def test_element_prepares_its_substitution_once(rng, spy):
    """An element's substitution is prepared on its first action and never
    again: a second act_on_op, act_on_poly and is_identity prepare
    nothing."""
    calls = spy("prepare_substitution", poly, invariants)
    R = make_ring(0, 2)
    g = GroupElement(Matrix(R.field, [[2, 1], [Fraction(1, 2), Fraction(-3, 4)]]))
    ident = GroupElement(Matrix.identity(R.field, 2))
    assert calls == []  # building an element prepares nothing
    xi = random_diffop(rng, R, max_order=2, coeff_degree=2, allow_zero=False)
    first = act_on_op(g, xi)
    assert len(calls) == 1
    assert act_on_op(g, xi) == first
    assert act_on_poly(g, random_poly(rng, R)) is not None
    assert not g.is_identity()
    assert len(calls) == 1
    assert ident.is_identity() and act_on_op(ident, xi) is xi
    assert act_on_poly(ident, random_poly(rng, R)) is not None
    assert len(calls) == 2


def test_a_map_prepares_its_substitution_once(rng, spy):
    """A map prepares its substitution when it is made, and transports and
    substitutions along it prepare nothing; an element's ring map hands
    over the element's own record, and its actions prepare nothing more."""
    calls = spy("prepare_substitution", poly, invariants)
    R = make_ring(0, 2)
    rows = [[2, 1], [Fraction(1, 2), Fraction(-3, 4)]]
    m = RingMap.from_matrix(R, rows)
    assert len(calls) == 1
    for _ in range(4):
        transport_via_coordinates(m, random_diffop(rng, R, max_order=2, coeff_degree=2))
        apply_ring_map(m, random_poly(rng, R))
    assert len(calls) == 1
    g = GroupElement(Matrix(R.field, rows))
    sub = g.substitution()
    assert len(calls) == 2
    for _ in range(4):
        assert g.ring_map(R).substitution is sub
        act_on_op(g, random_diffop(rng, R, max_order=2, coeff_degree=2))
        act_on_poly(g, random_poly(rng, R))
    assert len(calls) == 2


def test_prepared_substitution_does_not_grow_with_operators(rng):
    """The record an element keeps depends on its matrix alone: acting on
    many operators of growing size leaves it equal to a fresh preparation."""
    R = make_ring(0, 3)
    g = GroupElement(Matrix(R.field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    act_on_op(g, DiffOp.partial(R, 0))
    sub = g.substitution()
    fresh = prepare_substitution(g.matrix.rows, g.inverse().matrix.rows, 0)
    for order in range(1, 5):
        act_on_op(g, random_diffop(rng, R, max_order=order, coeff_degree=order))
        act_on_poly(g, random_poly(rng, R, max_degree=order))
    assert g.substitution() is sub and sub == fresh


def test_level1_rigidity_coefficient_chain():
    """In the rank-one modular case the twist candidate must satisfy a
    coefficient recursion linking index i to 2i+1, which escapes every
    degree bound, so only the zero twist survives (checked by brute force
    over all low-degree candidates)."""
    R = make_ring(2, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    solutions = []
    for mask in range(2**9):
        a = R.from_terms({(i,): (mask >> i) & 1 for i in range(9)})
        if d.apply(a) == a * a:
            solutions.append(a)
    assert solutions == [R.zero()]
