"""Shared deterministic random generators for the property suites, the
in-process CLI runner, the base-p^e digit split of a polynomial that the
polynomial and level-matrix suites use as an oracle, the binary sums that
the sum suites check ``core_sum`` against, the per-atom evaluator with
binary sums that the parser suite checks the evaluator and the scanner
against, the commutator as two products that the bracket suite checks
against, a spy that records the calls of a rebound function, the
benchmark's workload file loaded by path, the Gauss-Jordan elimination
on field values that the integer elimination is checked against, and the
helpers that only the tests call: the token list of a text, the
derivation part of an operator of order at most one, whether a group
fixes a polynomial, an Artinian variable's multiplication operator, a
graded piece of an order filtration, the order-preservation check of the
socle adjoint, and the graded-sign and derivation checks of a
transposition."""

import importlib.util
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import settings

from weylops import (
    DiffOp,
    DomainError,
    FieldSpec,
    FiniteGroup,
    ParseError,
    Polynomial,
    PolyRing,
)
from weylops.artinian import order, socle_adjoint
from weylops.cli import main
from weylops.diffop import canonical, core_mul, core_pow
from weylops.exponents import unit
from weylops.invariants import act_on_poly
from weylops.opparser import _DSUGAR, _error_at, _lex

# Property tests draw the same examples on every run (seeded from each
# test's own source), so the suite's wall time is comparable between runs.
settings.register_profile("weylops", derandomize=True)
settings.load_profile("weylops")

CHARACTERISTICS = (0, 2, 3, 5)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    """``perfbench/workloads.py``, loaded by path as a fresh module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(args):
    """Run the CLI in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def make_ring(char: int, nvars: int, names=None) -> PolyRing:
    return PolyRing(FieldSpec(char), nvars, names)


def random_coeff(rng: random.Random, field: FieldSpec):
    if field.is_modular:
        return rng.randrange(1, field.characteristic)
    return Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))


def random_exponent(rng, nvars, max_total):
    """Exponent tuple with total degree at most max_total."""
    total = rng.randint(0, max_total)
    exp = [0] * nvars
    for _ in range(total):
        exp[rng.randrange(nvars)] += 1
    return tuple(exp)


def random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=True):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exp = random_exponent(rng, ring.nvars, max_degree)
        terms[exp] = random_coeff(rng, ring.field)
    f = ring.from_terms(terms)
    if not allow_zero and f.is_zero():
        return ring.one()
    return f


def random_diffop(rng, ring, max_order=4, max_terms=3, coeff_degree=3,
                  coeff_terms=2, allow_zero=True):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        alpha = random_exponent(rng, ring.nvars, max_order)
        coeff = random_poly(rng, ring, max_degree=coeff_degree,
                            max_terms=coeff_terms, allow_zero=False)
        terms[alpha] = coeff
    op = DiffOp.from_terms(ring, terms)
    if not allow_zero and op.is_zero():
        return DiffOp.constant(ring, 1)
    return op


def tokenize(src: str):
    """The tokens of src as a list (see ``_lex``)."""
    return list(_lex(src))


def derivation_part(xi: DiffOp) -> DiffOp:
    """For order <= 1: the summand with the constant part removed."""
    if xi.order() > 1:
        raise DomainError("derivation part defined for order <= 1 only")
    return DiffOp._core(xi.ring, canonical(
        {a: f for a, f in xi.num.items() if sum(a) == 1}, xi.den
    ))


def is_invariant_poly(G: FiniteGroup, f: Polynomial) -> bool:
    """Whether every element fixes f, tested on the generators."""
    G.elements[0]._check_ring(f.ring)
    return all(act_on_poly(g, f) == f for g in G.generators)


def variable_operator(A, i: int):
    """The multiplication operator of the variable x_i on A."""
    return A.multiplication_operator({unit(i, A.nvars): 1})


def graded_piece(filt, n: int):
    """Vectors spanning a complement of level n-1 inside level n: none
    for n < 0 or past the top.  They are the filtration's integer pieces
    (residues over F_p)."""
    if 0 <= n < len(filt._pieces):
        return [list(v) for v in filt._pieces[n]]
    return []


def verify_order_preservation(A, xi, n: int) -> bool:
    """Check the adjoint of an order <= n operator again has order <= n."""
    if order(A, xi) > n:
        raise DomainError(f"operator is not in the order <= {n} subspace")
    return order(A, socle_adjoint(A, xi)) <= n


def check_graded_sign(xi: DiffOp, phi) -> bool:
    """Whether phi(xi) + (-1)^(n+1) xi drops order, n the order of xi.

    phi is any transposition function of one operator.  This is the
    statement that the induced map on the associated graded ring is the
    identity in even degrees and -1 in odd ones.
    """
    if xi.is_zero():
        raise DomainError("graded-sign check is undefined on the zero operator")
    n = xi.order()
    combo = phi(xi) + (xi if (n + 1) % 2 == 0 else -xi)
    return combo.order() <= n - 1


def derivation_formula_check(theta: DiffOp, phi) -> bool:
    """For a derivation, phi(theta) must equal -theta plus the
    multiplication operator by phi(theta)(1); phi is any transposition
    function of one operator."""
    if not theta.is_derivation():
        raise DomainError("input is not a derivation")
    image = phi(theta)
    constant = image.apply(theta.ring.one())
    return image + theta == DiffOp.from_poly(constant)


def reference_rref(F: FieldSpec, rows):
    """Gauss-Jordan elimination of a nonempty list of equal-length rows of
    values of F (``Fraction`` over Q, residues over F_p), each pivot row
    scaled to a leading 1: the reduced row echelon form as new rows of
    field values, and its pivot columns.  ``linalg.rref`` did this before
    it moved onto int rows."""
    p = F.characteristic
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / Fraction(rows[r][c])
        rows[r] = [inv * v % p if p else inv * v for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [(v - factor * w) % p if p else v - factor * w
                           for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def reference_rref_kernel(F: FieldSpec, rows, pivots):
    """Right kernel basis read off the rows of a reduced row echelon form
    (of field values) and its pivot columns: one vector per free column,
    with minus that column of the pivot rows in the pivot coordinates."""
    p = F.characteristic
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [F.zero()] * ncols
        vec[fc] = F.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc] % p if p else -rows[r][fc]
        basis.append(vec)
    return basis


def reference_bracket(a, b):
    """The commutator as two full products and a difference, the form
    ``diffop.bracket`` had before its fused kernel."""
    return a * b - b * a


def random_level_bounded_op(rng, ring, e, max_terms=3, coeff_degree=3):
    """Random operator of level at most e (support inside the p^e box)."""
    q = ring.characteristic**e
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randrange(q) for _ in range(ring.nvars))
        terms[alpha] = random_poly(rng, ring, max_degree=coeff_degree,
                                   max_terms=2, allow_zero=False)
    return DiffOp.from_terms(ring, terms)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def spy(monkeypatch):
    """``spy(name, module, *others)`` rebinds the function ``name`` of
    ``module``, in it and in each of ``others`` that holds the same
    function, to a wrapper that appends each call's arguments to a list,
    and returns that list.  ``check``, if given, sees the arguments before
    the call."""

    def install(name, module, *others, check=None):
        fn = getattr(module, name)
        calls = []

        def recorded(*args):
            if check is not None:
                check(*args)
            calls.append(args)
            return fn(*args)

        for owner in (module, *others):
            if getattr(owner, name, None) is fn:
                monkeypatch.setattr(owner, name, recorded)
        return calls

    return install


def frobenius_decompose(f: Polynomial, e: int) -> dict:
    """Write f as a combination of p^e-th powers against the monomials
    with exponents below p^e, returning {lambda: g_lambda}.

    Each exponent splits uniquely into base-p^e digit and quotient; the
    coefficient field F_p is perfect with p^e-th roots given by the
    identity, so the root polynomial g_lambda keeps the coefficients as
    they are.  Reassembling sum of g^(p^e) * x^lambda returns f exactly.
    """
    p = f.ring.characteristic
    if p == 0:
        raise DomainError("frobenius decomposition requires characteristic p > 0")
    if e < 0:
        raise DomainError("level e must be a natural number")
    q = p**e
    pieces: dict[tuple, dict] = {}
    for exp, c in f.terms.items():
        lam = tuple(b % q for b in exp)
        quot = tuple(b // q for b in exp)
        pieces.setdefault(lam, {})[quot] = c
    return {lam: Polynomial(f.ring, terms) for lam, terms in pieces.items()}


def frobenius_reassemble(ring: PolyRing, pieces: dict, e: int) -> Polynomial:
    """Inverse of :func:`frobenius_decompose`.  Over F_p, g^(p^e) scales
    exponents, so a root term c*x^mu of piece lambda lands at
    c*x^(p^e*mu + lambda); pieces keyed outside the digit box may meet."""
    p = ring.characteristic
    if p == 0:
        raise DomainError("requires characteristic p > 0")
    q = p**e
    out = {}
    for lam, g in pieces.items():
        ring.monomial(lam)  # refuses a wrong arity or a negative exponent
        for mu, c in g.terms.items():
            exp = tuple(q * m + b for m, b in zip(mu, lam))
            out[exp] = (out.get(exp, 0) + c) % p
    return Polynomial(ring, {exp: c for exp, c in out.items() if c})


def ref_poly_add(a: dict, b: dict, p: int) -> dict:
    """a + b for polynomial dicts of ints or Fractions, one key at a time:
    a's keys in order, b's new keys appended, a cancelled key dropped."""
    out = dict(a)
    for m, c in b.items():
        c = out.get(m, 0) + c
        if p:
            c %= p
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def ref_poly_scale(a: dict, c, p: int) -> dict:
    """c times a polynomial dict, c nonzero in the field."""
    return {m: v * c % p if p else v * c for m, v in a.items()}


def ref_poly_neg(a: dict, p: int) -> dict:
    """-a for a polynomial dict."""
    return ref_poly_scale(a, -1, p)


def ref_add(a: dict, b: dict, p: int) -> dict:
    """a + b for operator dicts (exponent -> polynomial dict), one term at
    a time as ``ref_poly_add`` adds coefficients, in its key order."""
    out = dict(a)
    for alpha, g in b.items():
        h = ref_poly_add(out.get(alpha, {}), g, p)
        if h:
            out[alpha] = h
        else:
            out.pop(alpha, None)
    return out


def ref_scale(a: dict, c, p: int) -> dict:
    """c times an operator dict, c nonzero in the field."""
    return {alpha: ref_poly_scale(f, c, p) for alpha, f in a.items()}


def ref_core_add(a, b, p: int):
    """The canonical sum of two cores (num, den): both brought to the lcm
    of the denominators, then added by ``ref_add``."""
    (xn, xd), (yn, yd) = a, b
    g = gcd(xd, yd)
    return canonical(
        ref_add(ref_scale(xn, yd // g, p), ref_scale(yn, xd // g, p), p), xd // g * yd
    )


def ref_core_neg(a, p: int):
    return ref_scale(a[0], -1, p), a[1]


def reference_evaluate(node, ring: PolyRing):
    """The parser's evaluator with binary sums: every atom becomes an
    operator core, and a product multiplies its factors one at a time
    through ``core_mul``, a sum adds its terms one at a time through
    ``ref_core_add``.  Its powers go through ``core_pow``, whose closed
    form for one-term bases has its own oracle in the integer-core
    suite."""
    p, n = ring.characteristic, ring.nvars
    zero = (0,) * n

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n))

    def scalar(c, den=1):
        if p:
            c %= p
            return ({zero: {zero: c}}, 1) if c else ({}, 1)
        return canonical({zero: {zero: c}} if c else {}, den)

    def ev(node):
        kind = node[0]
        if kind == "int":
            return scalar(node[1])
        if kind == "rat":
            num, den = node[1], node[2]
            if (den % p if p else den) == 0:
                raise DomainError("division by zero")
            return scalar(num * pow(den, -1, p)) if p else scalar(num, den)
        if kind == "name":
            name = node[1]
            if name in ring.var_names:
                return {zero: {unit(ring.var_names.index(name)): 1}}, 1
            sugar = _DSUGAR.match(name)
            if sugar:
                digits = sugar.group(1)
                if len(digits) <= len(str(n)) and int(digits) <= n:
                    return {unit(int(digits) - 1): {zero: 1}}, 1
            raise _error_at(f"unknown identifier {name!r}", node[2], node[3])
        if kind == "dop":
            alpha = node[1]
            if len(alpha) != n:
                raise _error_at(
                    f"d[...] needs {n} entries, got {len(alpha)}", node[2], node[3]
                )
            return {alpha: {zero: 1}}, 1
        if kind == "neg":
            return ref_core_neg(ev(node[1]), p)
        if kind == "sum":
            acc = ev(node[1])
            for negate, term in node[2]:
                value = ev(term)
                acc = ref_core_add(acc, ref_core_neg(value, p) if negate else value, p)
            return acc
        if kind == "prod":
            factors = node[1]
            acc = ev(factors[0])
            for factor in factors[1:]:
                acc = core_mul(acc, ev(factor), p)
            return acc
        if kind == "pow":
            acc = ev(node[1])
            for e in node[2]:
                acc = core_pow(acc, e, p, n)
            return acc
        raise ParseError(f"unknown AST node {kind!r}")

    return ev(node)
