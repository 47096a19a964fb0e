"""The folding evaluator against the per-atom reference evaluator.

``opparser.evaluate`` folds normal-ordered atoms into one term and the
folded terms of a sum into one accumulator; ``conftest.reference_evaluate``
multiplies and adds one atom at a time through the core functions.  Every
input must give the same core, or the same exception type and message.
"""

import random

import pytest
from hypothesis import example, given, strategies as st

from weylops import DomainError, WeylOpsError
from weylops._kernels import BINOM_BITS_LIMIT
from weylops.opparser import evaluate, parse
from conftest import CHARACTERISTICS, make_ring, reference_evaluate


def _outcome(evaluator, node, ring):
    try:
        return "value", evaluator(node, ring)
    except WeylOpsError as exc:
        return type(exc), str(exc)


def _same_outcome(text, ring):
    """Parse text and compare both evaluators on it; parse errors come
    before evaluation and are left out."""
    try:
        node = parse(text)
    except WeylOpsError:
        return None
    got = _outcome(evaluate, node, ring)
    assert got == _outcome(reference_evaluate, node, ring), text
    return got


def _atom(rng, n):
    roll = rng.random()
    if roll < 0.22:
        return f"x{rng.randint(1, n + 1) if rng.random() < 0.05 else rng.randint(1, n)}"
    if roll < 0.40:
        arity = n if rng.random() < 0.95 else rng.choice([n - 1, n + 1])
        big = rng.random() < 0.04
        entries = [rng.choice([20000, 30000, 100000000]) if big else rng.randint(0, 4)
                   for _ in range(arity)]
        return "d[" + ",".join(map(str, entries)) + "]"
    if roll < 0.50:
        return f"d{rng.randint(0 if rng.random() < 0.05 else 1, n + (rng.random() < 0.1))}"
    if roll < 0.62:
        return str(rng.choice([0, 1, 2, 3, 4, 5, 6, 10, 25, 10**30]))
    if roll < 0.74:
        den = 0 if rng.random() < 0.03 else rng.choice([1, 2, 3, 4, 5, 6, 7, 10])
        return f"{rng.randint(0, 9)}/{den}"
    if roll < 0.755:
        return rng.choice(["y", "d", "x0", "d01", "dx"])
    return None


def _expr(rng, n, depth=0):
    """Random expression text: sums of products of (negated, powered)
    atoms, parenthesized sums and the odd stray token."""
    terms = []
    for t in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 5)):
            atom = _atom(rng, n)
            if atom is None and depth < 2:
                # a parenthesized sum, raised at most to the square
                atom = f"({_expr(rng, n, depth + 1)})"
                if rng.random() < 0.15:
                    atom += f"^{rng.randint(0, 2)}"
            elif rng.random() < 0.15:
                atom = (atom or "x1") + f"^{rng.randint(0, 3)}" + (
                    f"^{rng.randint(0, 2)}" if rng.random() < 0.5 else "")
            atom = atom or "x1"
            if rng.random() < 0.12:
                atom = "-" * rng.randint(1, 2) + atom
            factors.append(atom)
        body = rng.choice(["*", " ", "*"]).join(factors)
        if t:
            terms.append(rng.choice([" + ", " - "]) + body)
        else:
            terms.append(("-" if rng.random() < 0.2 else "") + body)
    text = "".join(terms)
    if rng.random() < 0.03:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice([")", "(", "^", "/", "*", "?", "d[1,", "^-1"]) + text[cut:]
    return text


def test_fuzz_matches_the_reference_evaluator():
    rng = random.Random(20261019)
    rings = [make_ring(p, n) for n in (1, 2, 3) for p in CHARACTERISTICS]
    outcomes = {"value": 0, "error": 0, "parse": 0}
    for k in range(2000):
        ring = rings[k % 12]
        got = _same_outcome(_expr(rng, ring.nvars), ring)
        kind = "parse" if got is None else "value" if got[0] == "value" else "error"
        outcomes[kind] += 1
    # the inputs reach every kind of outcome
    assert min(outcomes.values()) >= 100, outcomes


_ATOMS = ["x1", "x2", "x1^2", "x2^3^2", "d1", "d2", "d[1,0]", "d[0,2]", "d[3,1]",
          "d[0,0]", "2", "3/4", "-x1", "-5/2", "0", "d[2]", "x3", "(x1+d2)", "d2^2"]


@given(p=st.sampled_from(CHARACTERISTICS),
       atoms=st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=7),
       negate=st.booleans())
@example(p=0, atoms=["d1", "x1", "d[2,0]", "x1^2"], negate=False)  # d after x
@example(p=2, atoms=["x2", "d[1,1]", "d[1,3]"], negate=False)  # C(2,1) = 0 mod 2
@example(p=0, atoms=["d[20000,0]", "d[20000,0]", "x3"], negate=False)  # refused first
@example(p=0, atoms=["x1^2^3", "d1"], negate=True)  # x1^6
def test_random_atom_orders_match_the_reference(p, atoms, negate):
    ring = make_ring(p, 2)
    text = ("-" if negate else "") + "*".join(atoms)
    _same_outcome(text, ring)
    _same_outcome(text + " + " + " ".join(reversed(atoms)), ring)


def test_folded_atoms_keep_their_refusals_and_zeros():
    R0, R2 = make_ring(0, 1), make_ring(2, 1)
    for text, binomial in (("d[20000]*d[20000]", "C(40000, 20000)"),
                           ("d[20000]*d[30000]", "C(50000, 20000)"),
                           ("d[30000]*d[20000]", "C(50000, 30000)")):
        assert _same_outcome(text, R0) == (
            DomainError,
            f"binomial {binomial} may exceed the guardrail of {BINOM_BITS_LIMIT} bits")
    # C(2, 1) = 2 is a Lucas zero; the refusal after it is never reached
    assert _same_outcome("d1*d1*d[20000]*d[20000]", R2) == ("value", ({}, 1))
    assert _same_outcome("0*d[20000]*d[20000]", R0) == ("value", ({}, 1))
    assert _same_outcome("x1^2^3", R0) == ("value", ({(0,): {(6,): 1}}, 1))
    assert _same_outcome("d[20000]*d[20000]*y", R0)[0] is DomainError
    assert _same_outcome("y*d[20000]*d[20000]", R0)[0] is not DomainError


@pytest.mark.parametrize("text", ["1/0", "x1*1/0", "1/0*y", "y*1/0", "x1 + 1/0 + y"])
def test_division_by_zero_in_reading_order(text):
    _same_outcome(text, make_ring(0, 1))
    _same_outcome(text, make_ring(3, 1))
