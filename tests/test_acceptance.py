"""Acceptance suite: one test per criterion, exact checks only.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Every tolerance here is exact equality; nothing is
approximate anywhere in the package.
"""

import json
import pathlib
import random
from contextlib import contextmanager
from functools import partial
from itertools import product

import pytest

from weylops import (
    ArtinianAlgebra,
    DiffOp,
    FieldSpec,
    Matrix,
    alternating_multinomial_sum,
    is_invariant,
    matrix_mul_consistency,
    order_filtration,
    parse_operator,
    reynolds,
    socle_adjoint,
    standard_transpose,
    to_matrix,
    to_operator,
    transport_via_coordinates,
    twisted_transpose,
)
from weylops import exponents
from weylops.artinian import unvectorize
from weylops.invariants import FiniteGroup, GroupElement, act_on_op, equivariance_check
from weylops.poly import RingMap
from weylops.render import render_op
from conftest import (
    graded_piece,
    make_ring,
    random_diffop,
    random_exponent,
    random_poly,
    run_cli,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:>2}: {desc}", flush=True)
        raise
    print(f"[PASS] criterion {num:>2}: {desc}", flush=True)


def test_c01_weyl_relations():
    with criterion(1, "normalize(d_i x_j) = x_j d_i + delta_ij, chars 0/2/3"):
        for char in (0, 2, 3):
            R = make_ring(char, 3)
            for i in range(3):
                d = DiffOp.partial(R, i)
                for j in range(3):
                    x = R.variable(j)
                    expected = x * d + (1 if i == j else 0)
                    assert d * x == expected


def test_c02_composition_oracle():
    with criterion(2, "apply(mul(xi,eta), m) = apply(xi, apply(eta, m)), "
                      ">=500 pairs, monomials of degree <= 8"):
        rng = random.Random(202)
        pairs = 0
        failures = 0
        for char in (0, 2, 3, 5):
            for _ in range(125):
                n = rng.randint(1, 3)
                R = make_ring(char, n)
                xi = random_diffop(rng, R, max_order=4, coeff_degree=3)
                eta = random_diffop(rng, R, max_order=4, coeff_degree=3)
                prod = xi * eta
                for exp in exponents.iter_up_to_degree(n, 8):
                    m = R.monomial(exp)
                    if prod.apply(m) != xi.apply(eta.apply(m)):
                        failures += 1
                pairs += 1
        assert pairs >= 500
        assert failures == 0


def test_c03_alternating_multinomial_exhaustive():
    with criterion(3, "alternating multinomial sum vanishes for nonzero "
                      "sigma, |sigma| <= 10, n <= 3"):
        for n in (1, 2, 3):
            for sigma in exponents.iter_up_to_degree(n, 10):
                expected = 1 if sum(sigma) == 0 else 0
                assert alternating_multinomial_sum(sigma) == expected


def test_c04_transposition_suite():
    with criterion(4, "standard transposition: involutive, anti-mult, "
                      "fixes ring, preserves order and level (500 pairs)"):
        rng = random.Random(404)
        pairs = 0
        for char in (0, 2, 3, 5):
            R = make_ring(char, 2)
            phi = standard_transpose
            for _ in range(125):
                xi = random_diffop(rng, R, allow_zero=False)
                eta = random_diffop(rng, R, allow_zero=False)
                assert phi(phi(xi)) == xi
                assert phi(xi * eta) == phi(eta) * phi(xi)
                f = random_poly(rng, R)
                assert phi(DiffOp.from_poly(f)) == DiffOp.from_poly(f)
                assert phi(xi).order() == xi.order()
                if char:
                    assert phi(xi).level() == xi.level()
                pairs += 1
        assert pairs >= 500


def _op_of_exact_order(rng, R, n):
    xi = random_diffop(rng, R, max_order=n, coeff_degree=2)
    if xi.order() < n:
        alpha = random_exponent(rng, R.nvars, n)
        alpha = tuple(
            a + (n - sum(alpha) if i == 0 else 0) for i, a in enumerate(alpha)
        )
        xi = xi + DiffOp.basis(R, alpha)
    assert xi.order() == n
    return xi


def test_c05_graded_sign():
    with criterion(5, "phi(xi) + (-1)^(n+1) xi drops order, n <= 4, "
                      "standard and twisted"):
        rng = random.Random(505)
        for char in (0, 2, 3, 5):
            R = make_ring(char, 2)
            phi = standard_transpose
            for n in range(5):
                for _ in range(8):
                    xi = _op_of_exact_order(rng, R, n)
                    sign = 1 if (n + 1) % 2 == 0 else -1
                    assert (phi(xi) + sign * xi).order() <= n - 1
        R = make_ring(0, 2)
        x = R.variable(0)
        tw = partial(twisted_transpose, [x**2, R.zero()])
        for n in range(5):
            for _ in range(8):
                xi = _op_of_exact_order(rng, R, n)
                sign = 1 if (n + 1) % 2 == 0 else -1
                assert (tw(xi) + sign * xi).order() <= n - 1


def _sampled_gl2(rng, field, count):
    out = []
    p = field.characteristic
    while len(out) < count:
        rows = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        mat = Matrix(field, rows)
        if mat.rank() == 2:
            out.append(mat)
    return out


def _all_gl2(field):
    p = field.characteristic
    out = []
    for entries in product(range(p), repeat=4):
        mat = Matrix(field, [[entries[0], entries[1]], [entries[2], entries[3]]])
        if mat.rank() == 2:
            out.append(mat)
    return out


def test_c06a_charp_coordinate_invariance():
    with criterion(6, "(a) coordinate invariance of the transposition over "
                      "GL2(F2) exhaustively and 20 samples of GL2(F3)"):
        rng = random.Random(606)
        for p, mats in (
            (2, _all_gl2(FieldSpec(2))),
            (3, _sampled_gl2(rng, FieldSpec(3), 20)),
        ):
            R = make_ring(p, 2)
            assert p != 2 or len(mats) == 6
            for mat in mats:
                m = RingMap.from_matrix(R, mat.rows, inverse_rows=mat.inverse().rows)
                minv = RingMap.from_matrix(
                    R, mat.inverse().rows, inverse_rows=mat.rows
                )
                for _ in range(3):
                    terms = {}
                    for _ in range(rng.randint(1, 3)):
                        alpha = tuple(
                            rng.randrange(min(p**2, 5)) for _ in range(2)
                        )
                        terms[alpha] = random_poly(
                            rng, R, max_degree=2, allow_zero=False
                        )
                    xi = DiffOp.from_terms(R, terms)
                    assert xi.level() <= 2
                    lhs = transport_via_coordinates(
                        m, standard_transpose(transport_via_coordinates(minv, xi))
                    )
                    assert lhs == standard_transpose(xi)


def test_c06b_level1_rigidity_ansatz():
    with criterion(6, "(b) p=2, n=1 level-1 ansatz forces the zero twist; "
                      "coefficient recursion i -> 2i+1 escapes degree 16"):
        R = make_ring(2, 1)
        F = R.field
        d = DiffOp.partial(R, 0)
        degree_bound = 16

        # squaring is linear over F_2, which makes the constraint linear
        rng = random.Random(66)
        for _ in range(20):
            a = random_poly(rng, R, max_degree=8)
            b = random_poly(rng, R, max_degree=8)
            assert (a + b) ** 2 == a**2 + b**2

        # constraint matrix for a -> d(a) + a^2 on coefficients up to x^16
        ncols = degree_bound + 1
        nrows = 2 * degree_bound + 1
        cols = []
        for i in range(ncols):
            basis_poly = R.monomial((i,))
            image = d.apply(basis_poly) + basis_poly**2
            cols.append([image.coefficient((r,)) for r in range(nrows)])
        system = Matrix.from_columns(F, cols)
        assert system.nullspace() == []

        # brute force cross-check at a lower bound
        solutions = []
        for mask in range(2**9):
            a = R.from_terms({(i,): (mask >> i) & 1 for i in range(9)})
            if d.apply(a) == a * a:
                solutions.append(a)
        assert solutions == [R.zero()]

        # the index chain forced by the recursion leaves any finite bound
        chain = [0]
        while chain[-1] <= degree_bound:
            chain.append(2 * chain[-1] + 1)
        assert chain[-1] > degree_bound

        # and the degree-one relation pins the leading coefficient: an
        # image a + b*d of d satisfies x*(a+b*d) + (a+b*d)*x = 1 iff b = 1
        x = DiffOp.from_poly(R.variable(0))
        one = DiffOp.constant(R, 1)
        xv = R.variable(0)
        for a_poly in (R.zero(), xv**3, R.one() + xv):
            for b_poly in (R.zero(), R.one(), xv, R.one() + xv):
                cand = DiffOp.from_poly(a_poly) + DiffOp.from_poly(b_poly) * d
                holds = x * cand + cand * x == one
                assert holds == (b_poly == R.one())


def test_c07_char0_nonuniqueness():
    with criterion(7, "twist (x1^2) gives a second involution in char 0, "
                      "differing from the standard one on d1"):
        rng = random.Random(707)
        R = make_ring(0, 1)
        x = R.variable(0)
        twist = [x**2]
        phi = partial(twisted_transpose, twist)
        std = standard_transpose
        d = DiffOp.partial(R, 0)
        assert phi(d) != std(d)
        for _ in range(150):
            xi = random_diffop(rng, R, max_order=3, coeff_degree=3,
                               allow_zero=False)
            eta = random_diffop(rng, R, max_order=3, coeff_degree=3,
                                allow_zero=False)
            assert phi(phi(xi)) == xi
            assert phi(xi * eta) == phi(eta) * phi(xi)
            f = random_poly(rng, R)
            assert phi(DiffOp.from_poly(f)) == DiffOp.from_poly(f)
            assert phi(xi).order() == xi.order()


def test_c08_level_matrix_suite():
    with criterion(8, "level matrices: exact round trip and "
                      "multiplicativity, sizes <= 64"):
        rng = random.Random(808)
        from conftest import random_level_bounded_op

        for p in (2, 3):
            for e in (1, 2):
                for n in (1, 2):
                    if p ** (e * n) > 64:
                        continue
                    R = make_ring(p, n)
                    for _ in range(10):
                        xi = random_level_bounded_op(rng, R, e)
                        eta = random_level_bounded_op(rng, R, e)
                        m = to_matrix(xi, e)
                        assert to_operator(m) == xi
                        assert to_matrix(to_operator(m), e) == m
                        assert matrix_mul_consistency(xi, eta, e)


def test_c09_artinian_suite():
    with criterion(9, "artinian: dual-number dims (2,3,4); socle adjoint "
                      "involutive/anti-mult/fixes ring/preserves orders"):
        A2 = ArtinianAlgebra((2,), FieldSpec(0))
        filt2 = order_filtration(A2)
        assert filt2.dims[:3] == [2, 3, 4]
        assert filt2.dims[-1] == 4 and filt2.stabilized_at is not None

        for exps in ((4,), (2, 3)):
            A = ArtinianAlgebra(exps, FieldSpec(0))
            filt = order_filtration(A)
            top = len(filt.bases) - 1
            pieces = {n: graded_piece(filt, n) for n in range(top + 1)}
            mats = {
                n: [unvectorize(A.field, v, A.dim) for v in vecs]
                for n, vecs in pieces.items()
            }
            for mu in A.basis:
                mult = A.multiplication_operator({mu: 1})
                assert socle_adjoint(A, mult) == mult
            for n, ops in mats.items():
                for xi in ops:
                    adj = socle_adjoint(A, xi)
                    assert socle_adjoint(A, adj) == xi
                    assert filt.contains(adj, n)
            flat = [xi for ops in mats.values() for xi in ops]
            for xi in flat:
                for eta in flat:
                    assert socle_adjoint(A, xi * eta) == socle_adjoint(
                        A, eta
                    ) * socle_adjoint(A, xi)


def test_c10_invariant_ring_golden():
    with criterion(10, "sign-action golden: ten invariant generators, four "
                       "non-invariant witnesses, equivariance on 200 ops"):
        R = make_ring(0, 2, ("s", "t"))
        F = R.field
        ident = GroupElement(Matrix.identity(F, 2))
        minus = GroupElement(Matrix(F, [[-1, 0], [0, -1]]))
        G = FiniteGroup([ident, minus])
        s, t = R.gens()
        ds, dt = DiffOp.partial(R, 0), DiffOp.partial(R, 1)

        generators = [
            DiffOp.from_poly(s * s), DiffOp.from_poly(s * t),
            DiffOp.from_poly(t * t),
            s * ds, s * dt, t * ds, t * dt,
            ds * ds, ds * dt, dt * dt,
        ]
        assert all(is_invariant(G, g) for g in generators)
        assert ds * ds == 2 * DiffOp.basis(R, (2, 0))
        assert dt * dt == 2 * DiffOp.basis(R, (0, 2))

        witnesses = [DiffOp.from_poly(s), DiffOp.from_poly(t), ds, dt]
        assert all(not is_invariant(G, w) for w in witnesses)

        rng = random.Random(1010)
        for _ in range(200):
            xi = random_diffop(rng, R, max_order=2, coeff_degree=2)
            assert equivariance_check(G, xi)
            avg = reynolds(G, xi)
            assert is_invariant(G, avg)
            assert reynolds(G, avg) == avg
            assert is_invariant(G, standard_transpose(avg))


def test_c11_cli_round_trip_and_golden():
    with criterion(11, "parse/render round trip on 500 operators; JSON "
                       "output matches committed golden bytes"):
        rng = random.Random(1111)
        count = 0
        for char in (0, 2, 3, 5):
            for nvars in (1, 2, 3):
                R = make_ring(char, nvars)
                for _ in range(42):
                    xi = random_diffop(rng, R)
                    assert parse_operator(render_op(xi), R) == xi
                    count += 1
        assert count >= 500

        goldens = [
            ("normalize_weyl.json", ["--json", "normalize", "d1*x1"]),
            ("transpose_mixed.json",
             ["--json", "--char", "0", "--nvars", "1", "transpose",
              "x1^2*d[2] - 1/2*d[1] + x1"]),
            ("matrix_d_char2.json",
             ["--json", "--char", "2", "--nvars", "1", "matrix", "d1",
              "--e", "1"]),
            ("artinian_dual.json",
             ["--json", "--char", "0", "artinian", "--exponents", "2"]),
            ("reynolds_sign.json",
             ["--json", "--char", "0", "--vars", "s,t", "group", "--group",
              str(GOLDEN / "group_sign.json"), "reynolds", "s*d[1,0] + s"]),
            ("apply_char3.json",
             ["--json", "--char", "3", "--nvars", "2", "apply", "d[2,1]",
              "--to", "x1^2*x2 + x2^3"]),
        ]
        for name, args in goldens:
            code, out, _ = run_cli(args)
            assert code == 0
            assert out == (GOLDEN / name).read_text()
            json.loads(out)
