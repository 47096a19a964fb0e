"""Input checks of the field-view constructors: every public constructor
refuses a bad exponent, index, level, coefficient or characteristic with
``DomainError``; ``Polynomial(R, f.terms)`` and ``DiffOp(R, xi.terms)``
round-trip; ``==`` on a polynomial or an operator never raises; and the
variable count and the group-file size are refused before any work."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylops import ArtinianAlgebra, DiffOp, DomainError, FieldSpec, FrobeniusBasis
from weylops import Matrix, Polynomial, PolyRing, socle_adjoint, to_matrix
from weylops.poly import NVARS_LIMIT
from conftest import make_ring, run_cli, variable_operator

R = make_ring(0, 2)
R5 = make_ring(5, 1)
A = ArtinianAlgebra((2, 2), FieldSpec(0))

# each bad multi-exponent, for a two-variable ring (the other entry 1, so
# that only the bad one is at fault for ArtinianAlgebra too)
BAD_EXPONENTS = {
    "negative": (-1, 1),
    "float": (1.5, 1),
    "bool": (True, 1),
    "arity": (1, 0, 0),
    "not a sequence": 1,
}
BAD_INDICES = {"negative": -1, "float": 1.5, "bool": True, "arity": 2}
BAD_LEVELS = {"negative": -1, "float": 1.5, "bool": True}
BAD_COEFFICIENTS = {"text": "abc", "float": 0.5, "bool": True, "object": object()}
# a matrix of n rows and columns with n below 1 is empty
BAD_SIZES = {"zero": 0, "negative": -1}
# not an int, or too long to print: refused before any arithmetic
BAD_CHARACTERISTICS = {"float": 2.0, "text": "2", "None": None, "fraction": 3.5,
                       "bool": False, "huge": 10**5000, "huge negative": -10**5000}

EXPONENT_TAKERS = {
    "Polynomial": lambda a: Polynomial(R, {a: 1}),
    "PolyRing.monomial": lambda a: R.monomial(a),
    "PolyRing.from_terms": lambda a: R.from_terms({a: 1}),
    "DiffOp": lambda a: DiffOp(R, {a: 1}),
    "DiffOp.from_terms": lambda a: DiffOp.from_terms(R, {a: R.one()}),
    "DiffOp.basis": lambda a: DiffOp.basis(R, a),
    "ArtinianAlgebra": lambda a: ArtinianAlgebra(a, FieldSpec(0)),
    "ArtinianAlgebra.index": lambda a: A.index(a),
    "multiplication_operator": lambda a: A.multiplication_operator({a: 1}),
    "socle_adjoint unit": lambda a: socle_adjoint(A, variable_operator(A, 0),
                                                  unit={a: 1, (0, 0): 1}),
}
INDEX_TAKERS = {
    "PolyRing.variable": lambda i: R.variable(i),
    "DiffOp.partial": lambda i: DiffOp.partial(R, i),
    "ArtinianAlgebra.variable_operator": lambda i: variable_operator(A, i),
}
LEVEL_TAKERS = {
    "FrobeniusBasis": lambda e: FrobeniusBasis(R5, e),
    "to_matrix": lambda e: to_matrix(DiffOp.partial(R5, 0), e),
}
SIZE_TAKERS = {
    "Matrix": lambda n: Matrix(A.field, [[0] * n] * n),
    "Matrix.identity": lambda n: Matrix.identity(A.field, n),
    "Matrix.from_columns": lambda n: Matrix.from_columns(A.field, [[0] * n] * n),
}
COEFFICIENT_TAKERS = {
    "Polynomial": lambda c: Polynomial(R, {(1, 0): c}),
    "PolyRing.constant": lambda c: R.constant(c),
    "PolyRing.monomial": lambda c: R.monomial((1, 0), c),
    "PolyRing.from_terms": lambda c: R.from_terms({(1, 0): c}),
    "DiffOp": lambda c: DiffOp(R, {(1, 0): c}),
    "DiffOp.constant": lambda c: DiffOp.constant(R, c),
    "multiplication_operator": lambda c: A.multiplication_operator({(1, 0): c}),
}

CASES = [
    pytest.param(make, bad, id=f"{name}-{what} {kind}")
    for what, takers, bads in (("exponent", EXPONENT_TAKERS, BAD_EXPONENTS),
                               ("index", INDEX_TAKERS, BAD_INDICES),
                               ("level", LEVEL_TAKERS, BAD_LEVELS),
                               ("size", SIZE_TAKERS, BAD_SIZES),
                               ("coefficient", COEFFICIENT_TAKERS, BAD_COEFFICIENTS),
                               ("characteristic", {"FieldSpec": FieldSpec},
                                BAD_CHARACTERISTICS))
    for name, make in takers.items()
    for kind, bad in bads.items()
]


@pytest.mark.parametrize("make, bad", CASES)
def test_constructor_refuses(make, bad):
    with pytest.raises(DomainError):
        make(bad)


def test_artinian_defining_exponents_are_at_least_one():
    for exps in ((), (0, 2)):
        with pytest.raises(DomainError, match=">= 1"):
            ArtinianAlgebra(exps, FieldSpec(0))


def test_artinian_index_refuses_a_monomial_outside_the_basis():
    assert A.index((1, 1)) == 3 and A.index([1, 0]) == 2
    for algebra, mu in ((A, (2, 0)), (ArtinianAlgebra((2,), FieldSpec(0)), (5,))):
        with pytest.raises(DomainError, match="not in the basis"):
            algebra.index(mu)


def test_a_coefficient_outside_the_field_is_refused():
    # 1/5 has no residue mod 5
    with pytest.raises(DomainError, match="not invertible"):
        Polynomial(R5, {(1,): Fraction(1, 5)})


def test_coefficients_are_reduced_and_zeros_dropped():
    x = R5.variable(0)
    assert Polynomial(R5, {(1,): 7}) == 2 * x
    assert Polynomial(R5, {(1,): 7}).num == {(1,): 2}
    for zero in (0, Fraction(0), "0"):
        f = Polynomial(make_ring(0, 1), {(1,): zero})
        assert f.is_zero() and (f.den, f.num) == (1, {})
    assert Polynomial(R5, {(1,): 5}).is_zero()
    assert Polynomial(R, {(1, 0): "1/2"}) == R.variable(0) * Fraction(1, 2)
    assert DiffOp(R, {(1, 0): 0}).is_zero()


@st.composite
def _rings(draw):
    return make_ring(draw(st.sampled_from((0, 2, 5))), draw(st.integers(1, 2)))


def _exponents(ring):
    return st.tuples(*(st.integers(0, 3) for _ in range(ring.nvars)))


def _coefficients(p):
    """Ints and Fractions, with denominators invertible mod p."""
    dens = [d for d in (1, 2, 3, 4) if not p or d % p]
    return st.one_of(st.integers(-6, 6),
                     st.builds(Fraction, st.integers(-6, 6), st.sampled_from(dens)))


def _polys(draw, ring):
    return draw(st.dictionaries(_exponents(ring), _coefficients(ring.characteristic),
                                max_size=4))


def _same(a, b):
    """Equal cores, key order included (of the inner dicts too)."""
    assert (a.den, a.num) == (b.den, b.num)
    assert list(a.num) == list(b.num)
    for alpha, f in a.num.items():
        if isinstance(f, dict):
            assert list(f) == list(b.num[alpha])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_field_view_round_trips(data):
    ring = data.draw(_rings())
    f = Polynomial(ring, _polys(data.draw, ring))
    xi = DiffOp(ring, {alpha: Polynomial(ring, _polys(data.draw, ring))
                       for alpha in data.draw(st.lists(_exponents(ring), max_size=3))})
    _same(Polynomial(ring, f.terms), f)
    _same(DiffOp(ring, xi.terms), xi)
    assert Polynomial(ring, f.terms) == f and DiffOp(ring, xi.terms) == xi


def test_equality_never_raises():
    S = make_ring(0, 3)
    x1, d1 = R.variable(0), DiffOp.partial(R, 0)
    for a in (x1, d1):
        assert (a == "abc") is False and a != "abc"
        assert a not in [1, "a", 0.5, None]
        assert (a == Fraction(1, 3)) is False
    # another ring: polynomials and operators alike compare False
    assert (x1 == S.variable(0)) is False and x1 != S.variable(0)
    assert (d1 == DiffOp.partial(S, 0)) is False
    assert (d1 == S.variable(0)) is False and (S.variable(0) == d1) is False
    # over F_5, 1/5 does not coerce
    assert (R5.variable(0) == Fraction(1, 5)) is False
    assert (R.one() == "1") is True and DiffOp.from_poly(x1) == x1


def test_nvars_is_a_bounded_int():
    F = FieldSpec(0)
    assert PolyRing(F, NVARS_LIMIT).nvars == NVARS_LIMIT
    for nvars in (True, 2.0, 0, NVARS_LIMIT + 1, 10**9):
        with pytest.raises(DomainError, match="nvars"):
            PolyRing(F, nvars)


def test_var_names_is_not_one_string():
    F = FieldSpec(0)
    with pytest.raises(DomainError, match="not a string"):
        PolyRing(F, 2, "ab")
    assert PolyRing(F, 2, ["a", "b"]).var_names == ("a", "b")


def test_cli_refuses_a_large_nvars_at_once():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "weylops.cli", "--nvars", "1000000000",
                           "normalize", "1"], capture_output=True, text=True, env=env,
                          timeout=20)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"domain error: nvars must be an int from 1 to {NVARS_LIMIT}\n"


def test_cli_refuses_a_group_file_of_another_size(tmp_path):
    group_file = tmp_path / "g.json"
    group_file.write_text(json.dumps([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]))
    for sub in (["pseudoreflections"], ["reynolds", "x1"]):
        code, out, err = run_cli(["--nvars", "2", "group", "--group", str(group_file), *sub])
        assert (code, out) == (3, "")
        assert err == "domain error: group matrices are 3x3, but the ring has 2 variables\n"
