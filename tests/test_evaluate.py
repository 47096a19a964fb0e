"""The evaluator and the flat-text scanner against the per-atom
reference evaluator.

``opparser.evaluate`` multiplies atom by atom and adds each sum in one
``core_sum``; ``conftest.reference_evaluate`` adds one term at a time
through the binary sum oracle.  Every input must give the same core, or
the same exception type and message.  ``parse_operator`` scans flat text
in one pass, folding each term, and hands anything else to ``parse`` and
``evaluate``; through it, parse errors count too, and the key order at
both levels must be the evaluator's.
"""

import random
import re

import pytest
from hypothesis import example, given, strategies as st

from weylops import DomainError, ParseError, WeylOpsError, opparser
from weylops._kernels import BINOM_BITS_LIMIT
from weylops.opparser import _error_at, _scan, evaluate, parse, parse_operator
from conftest import CHARACTERISTICS, make_ring, reference_evaluate, tokenize


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
    outcomes = {"value": 0, "error": 0, "parse": 0, "scanned": 0}
    for k in range(2000):
        ring = rings[k % 12]
        text = _expr(rng, ring.nvars)
        got = _same_outcome(text, ring)
        kind = "parse" if got is None else "value" if got[0] == "value" else "error"
        outcomes[kind] += 1
        scanned = _scan(text, ring)
        if scanned is not None:
            # the fast path took this text, and agrees with the evaluator
            assert got == ("value", scanned), text
            outcomes["scanned"] += 1
    # the inputs reach every kind of outcome, and the scanner stays live
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


# -- the whole of parse_operator: scanner, fallback and parse errors --------


def _keys(core):
    """The key order of a core at both levels."""
    num, _ = core
    return [(alpha, list(f)) for alpha, f in num.items()]


def _front_end_outcome(text, ring):
    """parse_operator and reference_evaluate(parse(text)) on text: the same
    core with the same key order, or the same exception type and message."""
    try:
        op = parse_operator(text, ring)
        got = "value", (op.num, op.den)
    except WeylOpsError as exc:
        got = type(exc), str(exc)
    try:
        node = parse(text)
        want = "value", reference_evaluate(node, ring)
    except WeylOpsError as exc:
        want = type(exc), str(exc)
    assert got == want, text
    if got[0] == "value":
        assert _keys(got[1]) == _keys(evaluate(node, ring)), text
    return got


# texts on both sides of the line between flat and not flat
_BREAKERS = [
    "x1^2^3", "x1^23^4", "x1 ^ 2 ^ 3", "d1", "x1*d1*x1", "2*-x1", "x1 - -x2", "+x1",
    "*", "+", "/", "-", "3/0", "3/ 0", "d[1,0", "d[1, 0]", "d[ 2 ]", "d[]",
    "d[1,,0]", "d[+1]", "d[1_0]", "(x1)", "x1/2", "2^3", "d[1]^2", "x", "e",
    "d", "dx", "x1x2", "2x1", "x1 2", "\n", "\t", "1_0", "?", "- -",
    "d[20000]*d[20000]", "d[20000]*d[20000] + (", "d[20000] d[30000]*y",
    "1" * 4300, "1" * 4301, "2/" + "3" * 4301, "x1^" + "1" * 4301,
    "d[" + "1" * 4301 + "]", "0*d[20000]*d[20000]", "d[1]*d[1]",
]

# texts where a normal-ordered run of atoms meets one that is not, and
# one-term powers; kept apart from ``_BREAKERS`` so that the fuzz above
# draws the inputs it always drew
_FOLD_BOUNDARIES = [
    "x1 d[1] x1", "d[1]*x1^0", "-(x1)*d1*x1", "x1^2^3*d[1]*x1",
    "x1 d[1,0] x1", "d[1,0]*x1^0", "x1^2^3*d[1,0]*x1", "-x2^2 d2 x2^0 d[0,1]",
    "(2*x1)^3*d1", "(-3/4*x2)^5^2", "2^20000*0", "(1/2)^20000 - x1",
]


def _flat_term(rng, names, n):
    factors = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.3:
            name = rng.choice(names)
            factors.append(name + (f"^{rng.randint(0, 3)}" if rng.random() < 0.3 else ""))
        elif roll < 0.55:
            entries = [rng.choice([0, 0, 1, 2, 3, 20000]) if rng.random() < 0.05
                       else rng.randint(0, 3) for _ in range(n)]
            factors.append("d[" + rng.choice([",", ", "]).join(map(str, entries)) + "]")
        elif roll < 0.8:
            factors.append(str(rng.choice([0, 1, 2, 3, 5, 7, 10, 25, 10**30])))
        else:
            factors.append(f"{rng.randint(0, 9)}/{rng.choice([1, 2, 3, 4, 5, 6, 7, 10])}")
    return "".join(f + rng.choice(["*", "*", " * ", " "]) for f in factors)[:-1].rstrip(" *")


def _front_end_text(rng, names, n):
    """A flat text, now and then broken by one of ``_BREAKERS``."""
    text = ("-" if rng.random() < 0.3 else "") + _flat_term(rng, names, n)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", " - ", "+", "-"]) + _flat_term(rng, names, n)
    if rng.random() < 0.4:
        cut = rng.randrange(len(text) + 1)
        joint = rng.choice(["", " ", "*", " + "])
        text = text[:cut] + joint + rng.choice(_BREAKERS) + text[cut:]
    return text


def test_fuzz_parse_operator_matches_the_reference():
    rng = random.Random(2026102201)
    rings = [make_ring(p, n) for n in (1, 2, 3) for p in (0, 2, 3, 5, 1000003)]
    rings += [make_ring(p, 2, ("d", "e")) for p in (0, 3)]
    outcomes = {"value": 0, "error": 0, "parse": 0, "scanned": 0}
    for k in range(1800):
        ring = rings[k % len(rings)]
        text = _front_end_text(rng, ring.var_names, ring.nvars)
        got = _front_end_outcome(text, ring)
        kind = ("value" if got[0] == "value" else
                "parse" if got[0] is ParseError else "error")
        outcomes[kind] += 1
        outcomes["scanned"] += _scan(text, ring) is not None
    assert min(outcomes.values()) >= 100, outcomes


def test_every_breaker_alone_and_in_a_flat_sum():
    rings = [make_ring(p, 2, names) for p in (0, 3) for names in (None, ("d", "e"))]
    for text in _BREAKERS + _FOLD_BOUNDARIES:
        for ring in rings:
            for whole in (text, f"x1*{text}", f"{text} - 2*d[1,0]", f"-3/4*d[1,1] + {text}"):
                _front_end_outcome(whole, ring)


# one token per match, the lexer before numbers and names carried their
# "/NAT" and "^NAT" (the reference for ``tokenize``)
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<dsym>d\[[^\]]*\])"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^/()])|(?P<bad>.)")


def _reference_tokens(src):
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise _error_at(f"unexpected character {m.group()!r}", src, m.start())
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens + [("end", "", len(src))]


def test_tokens_match_the_one_token_per_match_lexer():
    rng = random.Random(2026102202)
    texts = list(_BREAKERS)
    for _ in range(500):
        n = rng.randint(1, 3)
        texts.append(_expr(rng, n))
        texts.append(_front_end_text(rng, [f"x{i}" for i in range(1, n + 1)], n))
        texts.append("".join(rng.choice("x1d[],0 9/^*+-()\n\t?_e") for _ in range(12)))
    for text in texts:
        outcomes = []
        for lexer in (tokenize, _reference_tokens):
            try:
                outcomes.append(lexer(text))
            except ParseError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], text


def test_flat_text_is_scanned_not_parsed(monkeypatch):
    ring = make_ring(0, 3)
    text = "-3/4*x1*x3^2*d[1,0,2] + x2 - 5 x1 d[0,1,0] + 7/2*x1^2*d[1,1,1]"
    want = evaluate(parse(text), ring)
    monkeypatch.setattr(opparser, "parse", None)
    op = parse_operator(text, ring)
    assert (op.num, op.den) == want and _keys(want) == _keys((op.num, op.den))
