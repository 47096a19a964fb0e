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
``MAX_DEPTH`` levels.  Nothing here estimates what evaluation costs: the
term kernels refuse work past ``_kernels.WORK_LIMIT`` themselves.
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
  | (?P<bad>.)
""",
    re.VERBOSE,
)

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


def tokenize(src: str):
    """The tokens of src as (kind, text, offset) tuples, ending with an
    ("end", "", len(src)) token."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise _error_at(f"unexpected character {m.group()!r}", src, m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


_ATOM_STARTERS = {"num", "ident", "dsym"}


class _Parser:
    """Recursive descent over the tokens of src; ``tok`` is the next one."""

    def __init__(self, src):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.tok = self.tokens[0]
        self.depth = 0

    def advance(self):
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def natural(self) -> int:
        """Consume a number token; past Python's digit limit, a parse error."""
        _, text, offset = self.advance()
        return _natural(text, self.src, offset)

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
            self.advance()
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
            name = node[1]
            if name in ring.var_names:
                return {zero: {unit(ring.var_names.index(name)): 1}}, 1
            sugar = _DSUGAR.match(name)
            if sugar:
                digits = sugar.group(1)
                # no leading zero, so more digits than n has means past n
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
                acc = core_pow(acc, e, p, n)
            return acc
        raise ParseError(f"unknown AST node {kind!r}")

    return ev(node)


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
