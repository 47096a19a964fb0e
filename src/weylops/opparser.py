"""Expression parser for operators and polynomials.

Grammar (precedence from loosest to tightest):

    expr    := product (('+' | '-') product)*
    product := unary (['*'] unary)*          juxtaposition is a product
    unary   := '-' unary | power
    power   := atom ('^' NATURAL)*
    atom    := NATURAL ['/' NATURAL] | IDENT | DSYM | '(' expr ')'

The product is noncommutative and left-associative.  ``d[a1,...,an]``
names a divided-power basis operator; ``d1``, ``d2``, ... are sugar for
the unit exponents (unless shadowed by a declared variable name).
Rational literals are a single token pair ``NAT/NAT``; there is no
general division.  The AST is plain tuples and is evaluated into the
integer core of an operator over a given ring, ``NAT/NAT`` becoming a
numerator over a denominator.  Sums, products and powers are flat n-ary
nodes evaluated left to right, so long chains cost no recursion depth;
real nesting (parentheses and unary minus) is refused beyond
``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import re

from .diffop import DiffOp, canonical, core_add, core_mul, core_neg, core_pow
from .errors import DomainError, ParseError
from .poly import PolyRing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<dsym>d\[[^\]]*\])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^/()])
""",
    re.VERBOSE,
)

_DSYM_BODY = re.compile(r"d\[([0-9, ]*)\]\Z")

# Deepest nesting of parentheses and unary minus signs the parser accepts.
MAX_DEPTH = 100

# Largest estimated term pairs e * t * C(e+t-1, t) of a parsed power base^e.
POWER_PAIRS_LIMIT = 1 << 16


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(src: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


_ATOM_STARTERS = {"num", "ident", "dsym"}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def natural(self) -> int:
        """Consume a number token; past Python's digit limit, a parse error."""
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"number of {len(tok.text)} digits is too long",
                             tok.line, tok.column) from None

    def error(self, message):
        tok = self.current
        raise ParseError(message, tok.line, tok.column)

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels")

    def expect_op(self, text):
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            self.error(f"expected {text!r}")
        return self.advance()

    # expr := product (('+'|'-') product)*
    def parse_expr(self):
        first = self.parse_product()
        rest = []
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            rest.append((op == "-", self.parse_product()))
        return ("sum", first, rest) if rest else first

    # product := unary (['*'] unary)*
    def parse_product(self):
        factors = [self.parse_unary()]
        while True:
            tok = self.current
            if tok.kind == "op" and tok.text == "*":
                self.advance()
            elif not (
                tok.kind in _ATOM_STARTERS or (tok.kind == "op" and tok.text == "(")
            ):
                return ("prod", factors) if len(factors) > 1 else factors[0]
            factors.append(self.parse_unary())

    # unary := '-' unary | power
    def parse_unary(self):
        if self.current.kind == "op" and self.current.text == "-":
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
        while self.current.kind == "op" and self.current.text == "^":
            self.advance()
            tok = self.current
            if tok.kind != "num":
                if tok.kind == "op" and tok.text == "-":
                    self.error("negative exponent")
                self.error("exponent must be a natural number")
            exponents.append(self.natural())
        return ("pow", base, exponents) if exponents else base

    def parse_atom(self):
        tok = self.current
        if tok.kind == "num":
            num = self.natural()
            nxt = self.current
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                if self.current.kind != "num":
                    self.error("expected a natural number after '/'")
                return ("rat", num, self.natural())
            return ("int", num)
        if tok.kind == "dsym":
            self.advance()
            body = _DSYM_BODY.match(tok.text)
            if body is None:
                raise ParseError("malformed d[...] symbol", tok.line, tok.column)
            inner = body.group(1).strip()
            if not inner:
                raise ParseError("empty d[...] symbol", tok.line, tok.column)
            try:
                alpha = tuple(int(part) for part in inner.split(","))
            except ValueError:
                raise ParseError(
                    "d[...] entries must be naturals", tok.line, tok.column
                ) from None
            return ("dop", alpha, tok.line, tok.column)
        if tok.kind == "ident":
            self.advance()
            return ("name", tok.text, tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            self.enter()
            node = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        if tok.kind == "op" and tok.text == "/":
            self.error("'/' is only allowed inside rational literals")
        self.error(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input")


def parse(src: str):
    """Parse source text into an AST of nested tuples."""
    parser = _Parser(tokenize(src))
    node = parser.parse_expr()
    if parser.current.kind != "end":
        parser.error(f"trailing input {parser.current.text!r}")
    return node


_DSUGAR = re.compile(r"d([1-9][0-9]*)\Z")


def evaluate(node, ring: PolyRing):
    """Evaluate an AST into the integer core (num, den) of an operator over
    the given ring (see :mod:`weylops.diffop`); ``a/b`` is the numerator a
    over the denominator b."""
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
            name, line, col = node[1], node[2], node[3]
            if name in ring.var_names:
                return {zero: {unit(ring.var_names.index(name)): 1}}, 1
            sugar = _DSUGAR.match(name)
            if sugar:
                i = int(sugar.group(1))
                if 1 <= i <= n:
                    return {unit(i - 1): {zero: 1}}, 1
            raise ParseError(f"unknown identifier {name!r}", line, col)
        if kind == "dop":
            alpha, line, col = node[1], node[2], node[3]
            if len(alpha) != n:
                raise ParseError(
                    f"d[...] needs {n} entries, got {len(alpha)}", line, col
                )
            return {alpha: {zero: 1}}, 1
        if kind == "neg":
            return core_neg(ev(node[1]), p)
        if kind == "sum":
            acc = ev(node[1])
            for negate, term in node[2]:
                value = ev(term)
                acc = core_add(acc, core_neg(value, p) if negate else value, p)
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
                _refuse_large_power(acc[0], e)
                acc = core_pow(acc, e, p, n)
            return acc
        raise ParseError(f"unknown AST node {kind!r}")

    return ev(node)


def _refuse_large_power(base: dict, e: int):
    """Refuse base^e, before any product, when the base has t >= 2 terms and
    e * t * C(e+t-1, t) exceeds POWER_PAIRS_LIMIT.  Multiplying in one factor
    at a time meets t * C(e+t-1, t) term pairs if the k-th power has the
    C(k+t-1, t-1) terms of a commutative one, and normal ordering an order-1
    base gives each pair up to e terms.  A single-term base is never refused,
    so ``d[1000]^2`` is one product of two monomials."""
    t = sum(map(len, base.values()))
    if t < 2 or e < 2:
        return
    c = 1
    for i in range(1, t + 1):
        c = c * (e + i - 1) // i  # C(e+i-1, i), increasing in i
        if e * t * c > POWER_PAIRS_LIMIT:
            raise DomainError(
                f"a power of an operator with {t} terms exceeds the guardrail "
                f"of {POWER_PAIRS_LIMIT} estimated term pairs"
            )


def parse_operator(src: str, ring: PolyRing) -> DiffOp:
    return DiffOp._core(ring, evaluate(parse(src), ring))


def parse_polynomial(src: str, ring: PolyRing):
    """Parse text that must denote a multiplication operator."""
    op = parse_operator(src, ring)
    if op.is_zero():
        return ring.zero()
    if op.order() != 0:
        raise ParseError("expected a polynomial, found derivative symbols")
    return op.constant_term()
