"""Expression parser for operators and polynomials.

Grammar (precedence from loosest to tightest):

    expr    := product (('+' | '-') product)*
    product := unary (['*'] unary)*          juxtaposition is a product
    unary   := '-' unary | power
    power   := atom ('^' NATURAL)*
    atom    := NATURAL ['/' NATURAL] | IDENT | DSYM | '(' expr ')'

The product is noncommutative and left-associative.  ``^`` chains left
to right, so ``x1^2^3`` is ``(x1^2)^3 = x1^6``.  ``d[a1,...,an]`` names a
divided-power basis operator; ``d1``, ``d2``, ... are sugar for the unit
exponents (unless shadowed by a declared variable name).  Rational
literals are a single token pair ``NAT/NAT``; there is no general
division.  The AST is plain tuples and is evaluated into the integer core
of an operator over a given ring, ``NAT/NAT`` becoming a numerator over a
denominator.  Sums, products and powers are flat n-ary nodes evaluated
left to right, so long chains cost no recursion depth; real nesting
(parentheses and unary minus) is refused beyond ``MAX_DEPTH`` levels.

``evaluate`` multiplies atom by atom: every atom becomes an operator
core, and products, powers, sums and negations go through the core
functions of :mod:`weylops.diffop`, so each error comes in reading order.

``parse_operator`` reads flat text in one scanning pass, with no token
list and no AST.  Flat text is an optional leading ``-`` and terms joined
by ``+`` and ``-``, each a product (``*`` or juxtaposition) of ``NAT``,
``NAT/NAT``, ``d[...]`` and ring variables with at most one ``^NAT``, and
no variable after a nonzero ``d``.  The scanner folds each factor into
one pending term, a scalar times x^m times d^[beta], composing ``d``
atoms by d^[beta]*d^[gamma] = C(beta+gamma, beta)*d^[beta+gamma] with
the binomials of the term kernels.  A sign closes the term into a part
of one ``core_sum``, so value and key order are ``evaluate``'s.  At
anything else (a parenthesis, a ``^`` chain, ``dN`` sugar or a name the
ring lacks, a sign after ``*`` or after a sign, a dangling operator, a
number past Python's digit limit, a zero denominator, a refused
binomial) it returns without raising, and the text is parsed from the
start by the descent and evaluated.  So every refusal, with its message
and in its reading order, comes from the full grammar.

Nothing here estimates what evaluation costs: the term kernels refuse
work past ``_kernels.WORK_LIMIT`` themselves, and ``core_pow`` sizes the
coefficient of a one-term power.  Scanned atoms form no kernel product and
so draw nothing from that bound.
"""

from __future__ import annotations

import re

from ._kernels import _binom
from .diffop import DiffOp, canonical, core_mul, core_pow, core_sum
from .errors import DomainError, ParseError
from .poly import PolyRing

# The one lexical grammar, read by the scanner and by the descent.  A
# number may carry "/NAT" and a name "^NAT", the factors of flat text;
# ``_lex`` splits such a match back into its three tokens.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<num>\d+) (?: \s* (?P<slash>/) \s* (?P<den>\d+) )?
      | (?P<dsym>d\[[^\]]*\])
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*) (?: \s* (?P<caret>\^) \s* (?P<exp>\d+) )?
      | (?P<op>[-+*^/()])
      | (?P<bad>\S)
    )
""",
    re.VERBOSE,
)

# a match's last group -> its tokens, as (group, token kind)
_TOKENS_OF = {
    "den": (("num", "num"), ("slash", "op"), ("den", "num")),
    "exp": (("ident", "ident"), ("caret", "op"), ("exp", "num")),
}

_DSYM_BODY = re.compile(r"d\[([0-9, ]*)\]\Z")

# Deepest nesting of parentheses and unary minus signs the parser accepts.
MAX_DEPTH = 100


def _error_at(message, src, offset):
    """A ParseError placed at the 1-based line and column of src[offset]."""
    line = src.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - src.rfind("\n", 0, offset))


def _natural(text, src, offset):
    """int(text) for a run of digits; past Python's digit limit, a parse
    error placed at offset."""
    try:
        return int(text)
    except ValueError:
        raise _error_at(f"number of {len(text)} digits is too long",
                        src, offset) from None


def _lex(src: str):
    """The tokens of src as (kind, text, offset) tuples, one match of
    ``_TOKEN_RE`` at a time, ending with an ("end", "", len(src)) token.  A
    character no token starts with raises when the lexer reaches it."""
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise _error_at(f"unexpected character {m[kind]!r}", src, m.start(kind))
        for group, token in _TOKENS_OF.get(kind, ((kind, kind),)):
            yield token, m[group], m.start(group)
    yield "end", "", len(src)


_ATOM_STARTERS = {"num", "ident", "dsym"}


class _Parser:
    """Recursive descent over the tokens of src; ``tok`` is the next one.

    Tokens are lexed one at a time, as the descent reaches them, and every
    check of a token is made before the next one is lexed.  So the error
    reported is the one at the lowest column: a character the lexer
    refuses is reported only when no grammar error comes before it, and
    wins over a grammar error at its own column.
    """

    def __init__(self, src):
        self.src = src
        self.tokens = _lex(src)
        self.tok = next(self.tokens)
        self.depth = 0

    def advance(self):
        tok = self.tok
        self.tok = next(self.tokens)
        return tok

    def natural(self) -> int:
        """Consume a number token; past Python's digit limit, a parse error."""
        _, text, offset = self.tok
        value = _natural(text, self.src, offset)
        self.advance()
        return value

    def error(self, message):
        raise _error_at(message, self.src, self.tok[2])

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels")

    # Only an op token's text can be one of the operator characters, so the
    # checks below compare text alone.

    # expr := product (('+'|'-') product)*
    def parse_expr(self):
        first = self.parse_product()
        rest = []
        while self.tok[1] == "+" or self.tok[1] == "-":
            negate = self.advance()[1] == "-"
            rest.append((negate, self.parse_product()))
        return ("sum", first, rest) if rest else first

    # product := unary (['*'] unary)*
    def parse_product(self):
        factors = [self.parse_unary()]
        while True:
            kind, text, _ = self.tok
            if text == "*":
                self.advance()
            elif kind not in _ATOM_STARTERS and text != "(":
                return ("prod", factors) if len(factors) > 1 else factors[0]
            factors.append(self.parse_unary())

    # unary := '-' unary | power
    def parse_unary(self):
        if self.tok[1] == "-":
            self.advance()
            self.enter()
            node = ("neg", self.parse_unary())
            self.depth -= 1
            return node
        return self.parse_power()

    # power := atom ('^' NATURAL)*
    def parse_power(self):
        base = self.parse_atom()
        exponents = []
        while self.tok[1] == "^":
            self.advance()
            if self.tok[0] != "num":
                if self.tok[1] == "-":
                    self.error("negative exponent")
                self.error("exponent must be a natural number")
            exponents.append(self.natural())
        return ("pow", base, exponents) if exponents else base

    def parse_atom(self):
        kind, text, offset = self.tok
        if kind == "num":
            num = self.natural()
            if self.tok[1] == "/":
                self.advance()
                if self.tok[0] != "num":
                    self.error("expected a natural number after '/'")
                return ("rat", num, self.natural())
            return ("int", num)
        if kind == "dsym":
            body = _DSYM_BODY.match(text)
            if body is None:
                raise _error_at("malformed d[...] symbol", self.src, offset)
            inner = body.group(1).strip()
            if not inner:
                raise _error_at("empty d[...] symbol", self.src, offset)
            parts = [part.strip() for part in inner.split(",")]
            if not all(part.isdigit() for part in parts):
                raise _error_at("d[...] entries must be naturals", self.src, offset)
            alpha = tuple(_natural(part, self.src, offset) for part in parts)
            self.advance()
            return ("dop", alpha, self.src, offset)
        if kind == "ident":
            self.advance()
            return ("name", text, self.src, offset)
        if text == "(":
            self.advance()
            self.enter()
            node = self.parse_expr()
            if self.tok[1] != ")":
                self.error("expected ')'")
            self.advance()
            self.depth -= 1
            return node
        if text == "/":
            self.error("'/' is only allowed inside rational literals")
        self.error(f"unexpected token {text!r}" if text else "unexpected end of input")


def parse(src: str):
    """Parse source text into an AST of nested tuples; name and d[...] nodes
    carry the source and their offset, to place the errors evaluation finds."""
    parser = _Parser(src)
    node = parser.parse_expr()
    if parser.tok[0] != "end":
        parser.error(f"trailing input {parser.tok[1]!r}")
    return node


_DSUGAR = re.compile(r"d([1-9][0-9]*)\Z")


def evaluate(node, ring: PolyRing):
    """Evaluate an AST into the integer core (num, den) of an operator over
    the given ring (see :mod:`weylops.diffop`); ``a/b`` is the numerator a
    over the denominator b.

    Every atom becomes a core; a product multiplies its factors one at a
    time through ``core_mul``, a power applies ``core_pow`` once per
    exponent, and a sum or a negation is one ``core_sum``.
    """
    p, n = ring.characteristic, ring.nvars
    index = {name: i for i, name in enumerate(ring.var_names)}
    zero = (0,) * n

    def unit(i):
        return (0,) * i + (1,) + (0,) * (n - 1 - i)

    def ev(node):
        kind = node[0]
        if kind == "int" or kind == "rat":
            c, den = node[1], node[2] if kind == "rat" else 1
            if not (den % p if p else den):
                raise DomainError("division by zero")
            if p:
                c, den = c * pow(den, -1, p) % p, 1
            return canonical({zero: {zero: c}}, den) if c else ({}, 1)
        if kind == "name":
            name = node[1]
            if name in index:
                return {zero: {unit(index[name]): 1}}, 1
            sugar = _DSUGAR.match(name)
            digits = sugar and sugar.group(1)
            # no leading zero, so more digits than n has means past n
            if not digits or len(digits) > len(str(n)) or int(digits) > n:
                raise _error_at(f"unknown identifier {name!r}", node[2], node[3])
            return {unit(int(digits) - 1): {zero: 1}}, 1
        if kind == "dop":
            alpha = node[1]
            if len(alpha) != n:
                raise _error_at(f"d[...] needs {n} entries, got {len(alpha)}",
                                node[2], node[3])
            return {alpha: {zero: 1}}, 1
        if kind == "neg":
            return core_sum(((*ev(node[1]), -1),), p)
        if kind == "sum":
            return core_sum([(*ev(node[1]), 1)] + [
                (*ev(term), -1 if negate else 1) for negate, term in node[2]], p)
        if kind == "prod":
            acc = ev(node[1][0])
            for factor in node[1][1:]:
                acc = core_mul(acc, ev(factor), p)
            return acc
        if kind == "pow":
            acc = ev(node[1])
            for e in node[2]:
                acc = core_pow(acc, e, p, n)
            return acc
        raise ParseError(f"unknown AST node {kind!r}")

    return ev(node)


def _compose_d(num, beta, gamma, p):
    """num times C(beta + gamma, beta), the coefficient of
    d^[beta] * d^[gamma] = C(beta + gamma, beta) * d^[beta + gamma]; beta
    becomes beta + gamma in place.  One variable at a time, as diffop_mul
    builds its rows, and no binomial once num is zero."""
    for i, g in enumerate(gamma):
        if g:
            b = beta[i]
            if b and num:
                num *= _binom(b + g, b, p)
                if p:
                    num %= p
            beta[i] = b + g
    return num


def _scan(src: str, ring: PolyRing):
    """The core of flat text (module docstring), folded in one pass over
    the matches of ``_TOKEN_RE``; None for any other text and for any text
    ``evaluate`` refuses.  Raises nothing."""
    p, n = ring.characteristic, ring.nvars
    index = {name: i for i, name in enumerate(ring.var_names)}
    matches = _TOKEN_RE.findall(src)
    # a leading minus (the op group, 7, of the first match) negates the
    # first factor
    negate = bool(matches) and matches[0][7] == "-"
    parts = []
    c = 1  # the pending term num/den * x^mono * d^[beta] is added c times
    num, den, mono, beta, plain = -1 if negate else 1, 1, [0] * n, [0] * n, True
    want = True  # a factor must come next
    try:
        for digits, _, denom, dsym, name, _, exp, op, _ in (
                matches[1:] if negate else matches):
            if digits:
                num *= int(digits)
                if denom:
                    b = int(denom)
                    if not (b % p if p else b):
                        return None
                    if p:
                        num *= pow(b, -1, p)
                    else:
                        den *= b
            elif name:
                i = index.get(name)
                if i is None or not plain:
                    return None
                mono[i] += int(exp) if exp else 1
            elif dsym:
                if not _DSYM_BODY.match(dsym):
                    return None
                gamma = tuple(map(int, dsym[2:-1].split(",")))
                if len(gamma) != n:
                    return None
                num = _compose_d(num, beta, gamma, p)
                plain = plain and not any(gamma)
            elif want:
                return None
            elif op == "*":
                want = True
                continue
            elif op == "+" or op == "-":
                if num:
                    parts.append(({tuple(beta): {tuple(mono): num}}, den, c))
                c = 1 if op == "+" else -1
                num, den, mono, beta, plain = 1, 1, [0] * n, [0] * n, True
                want = True
                continue
            else:
                return None
            if p:
                num %= p
            want = False
    except (ValueError, DomainError):
        # a d[...] entry that is not a natural, a number past Python's
        # digit limit, or a binomial refused
        return None
    if want:
        return None
    if num:
        parts.append(({tuple(beta): {tuple(mono): num}}, den, c))
    return core_sum(parts, p)


def parse_operator(src: str, ring: PolyRing) -> DiffOp:
    """The operator that src denotes: flat text by one scanning pass, any
    other text, and every refusal, by ``parse`` and ``evaluate``."""
    core = _scan(src, ring)
    if core is None:
        core = evaluate(parse(src), ring)
    return DiffOp._core(ring, core)


def parse_polynomial(src: str, ring: PolyRing):
    """Parse text that must denote a multiplication operator."""
    op = parse_operator(src, ring)
    if op.is_zero():
        return ring.zero()
    if op.order() != 0:
        raise ParseError("expected a polynomial, found derivative symbols")
    return op.constant_term()
