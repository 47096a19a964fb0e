"""Command-line front end.

Every subcommand reads expressions in the ``d[...]`` syntax of
:mod:`weylops.opparser` over a session ring configured by the top-level
flags, and writes either canonical text or versioned JSON.  Exit codes:
0 success, 1 usage, 2 parse error, 3 violated mathematical precondition.
A usage error, in click's wording, quotes the offending value, which is cut
short when long.  The arguments are read against one table, ``COMMANDS``.
"""

from __future__ import annotations

import json
import os
import sys

from . import artinian as art
from . import invariants as inv
from . import levelmatrix as lvm
from . import render
from .diffop import bracket as op_bracket
from .errors import DomainError, ParseError, WeylOpsError
from .field import FieldSpec
from .linalg import Matrix
from .opparser import parse_operator, parse_polynomial
from .poly import PolyRing
from .transpose import AntiAutomorphism


class SessionConfig:
    """Ring and output settings shared by the subcommands."""

    __slots__ = ("characteristic", "nvars", "var_names", "json_output")

    def __init__(self, characteristic: int = 0, nvars: int = 1,
                 var_names: tuple | None = None, json_output: bool = False):
        self.characteristic, self.nvars = characteristic, nvars
        self.var_names, self.json_output = var_names, json_output

    def ring(self) -> PolyRing:
        return PolyRing(FieldSpec(self.characteristic), self.nvars, self.var_names)


def _json_text(payload, what: str = "an exponent") -> str:
    """The payload as JSON; an integer too long to print is refused as
    ``what``."""
    try:
        return json.dumps(payload, indent=2)
    except ValueError:
        raise render.too_many_digits(what) from None


def _emit(cfg: SessionConfig, value, text, payload, what: str = "an exponent"):
    """Print value in the one form asked for: ``text(value)``, or
    ``payload(value)`` as JSON."""
    if cfg.json_output:
        print(_json_text(payload(value), what))
    else:
        print(text(value))


def _scalar_payload(kind: str):
    """The JSON payload of a scalar answer of this kind, as a function of
    the value."""
    return lambda value: {"schema": render.SCHEMA, "kind": kind, "value": value}


def cli(characteristic=0, nvars=1, var_names=None, json_output=False):
    """Exact differential operator calculator (divided-power form)."""
    names = None if var_names is None else tuple(s.strip() for s in var_names.split(","))
    return (SessionConfig(characteristic, len(names) if names else nvars, names,
                          json_output),)


def normalize(cfg: SessionConfig, expr):
    """Parse an operator expression and print its normal form."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, op, render.render_op, render.op_json)


def apply_cmd(cfg: SessionConfig, expr, target):
    """Apply an operator to a polynomial."""
    ring = cfg.ring()
    op = parse_operator(expr, ring)
    f = parse_polynomial(target, ring)
    _emit(cfg, op.apply(f), render.render_poly, render.poly_json)


def transpose(cfg: SessionConfig, expr, twist=None):
    """Transpose an operator (standard, or twisted with --twist)."""
    ring = cfg.ring()
    op = parse_operator(expr, ring)
    if twist is None:
        phi = AntiAutomorphism.standard(ring)
    else:
        polys = [parse_polynomial(s, ring) for s in twist.split(",")]
        phi = AntiAutomorphism.twisted(ring, polys)
    _emit(cfg, phi(op), render.render_op, render.op_json)


def order(cfg: SessionConfig, expr):
    """Order of an operator (-1 for zero)."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, op.order(), lambda v: render.int_text(v, "the order"),
          _scalar_payload("order"), "the order")


def level(cfg: SessionConfig, expr):
    """Level of an operator (characteristic p only)."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, op.level(), str, _scalar_payload("level"))


def bracket_cmd(cfg: SessionConfig, left, right):
    """Commutator of two operators."""
    ring = cfg.ring()
    result = op_bracket(parse_operator(left, ring), parse_operator(right, ring))
    _emit(cfg, result, render.render_op, render.op_json)


def matrix_cmd(cfg: SessionConfig, expr, level_e):
    """Level-e matrix of an operator over the p^e-th powers."""
    op = parse_operator(expr, cfg.ring())
    m = lvm.to_matrix(op, level_e)
    if cfg.json_output:
        print(_json_text(render.level_matrix_json(m)))
    else:
        print(f"level {m.e} matrix, size {m.basis.size}, "
              f"basis {list(m.basis.monomials)}")
        for lam, row in zip(m.basis.monomials, m.entries):
            cells = "  ".join(render.render_poly(v) for v in row)
            print(f"{list(lam)}: {cells}")


def artinian_cmd(cfg: SessionConfig, exps):
    """Order filtration and socle adjoint on a monomial quotient."""
    try:
        exponents = tuple(int(s) for s in exps.split(","))
    except ValueError:
        raise ParseError(f"bad exponent list {exps!r}") from None
    A = art.ArtinianAlgebra(exponents, FieldSpec(cfg.characteristic))
    filt = art.order_filtration(A)
    d = A.dim
    if cfg.json_output:
        payload = {
            "schema": render.SCHEMA,
            "kind": "artinian",
            "characteristic": cfg.characteristic,
            "exponents": list(exponents),
            "dimension": d,
            "filtration_dims": filt.dims,
            "stabilized_at": filt.stabilized_at,
            "pairing": render.scalar_matrix_json(A.gram()),
            "adjoint": render.scalar_matrix_json(art.adjoint_table(A)),
        }
        print(_json_text(payload))
    else:
        print(f"algebra dimension {d}, basis of {len(A.basis)} monomials")
        dims = " ".join(str(v) for v in filt.dims)
        print(f"filtration dims: {dims} (stable at order {filt.stabilized_at})")
        print("socle pairing:")
        for row in A.gram().rows:
            print("  " + " ".join(str(v) for v in row))


def group_cmd(cfg: SessionConfig, group_file):
    """Finite linear group actions on operators."""
    try:
        with open(group_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read group file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"group file is not valid JSON: {exc}") from None
    # data[0] is read only once it has passed as a list: all() goes in order
    if not (isinstance(data, list) and all(
            isinstance(rows, list) and len(rows) == len(data[0]) > 0
            and all(isinstance(row, list) and len(row) == len(rows) for row in rows)
            and all(isinstance(v, (int, str)) and not isinstance(v, bool)
                    for row in rows for v in row) for rows in data)):
        raise ParseError("group file must be a JSON list of nonempty square "
                         "matrices of one size: lists of rows of integers or strings")
    field = FieldSpec(cfg.characteristic)
    return cfg, inv.FiniteGroup([inv.GroupElement(Matrix(field, rows)) for rows in data])


def pseudoreflections(cfg: SessionConfig, G):
    """List the pseudoreflections in the group."""
    refl = G.pseudoreflections()
    if cfg.json_output:
        print(_json_text({
            "schema": render.SCHEMA,
            "kind": "pseudoreflections",
            "count": len(refl),
            "elements": [render.scalar_matrix_json(g.matrix) for g in refl],
        }))
    else:
        print(f"{len(refl)} pseudoreflection(s)")
        for g in refl:
            print("  " + "; ".join(
                " ".join(str(v) for v in row)
                for row in g.matrix.rows
            ))


def invariant_check(cfg: SessionConfig, G, expr):
    """Whether an operator is fixed by the whole group."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, inv.is_invariant(G, op), lambda v: "true" if v else "false",
          _scalar_payload("invariant"))


def reynolds_cmd(cfg: SessionConfig, G, expr):
    """Group average of an operator."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, inv.reynolds(G, op), render.render_op, render.op_json)


# A command is (handler, positional names, options, sub-commands or None); an
# option, flag: (parameter, type, required, help), a bool taking no value.  A
# handler gets its parent's handler's result, then its positionals and options.
# A command with positionals takes an unknown option as one (an expression may
# start with "-", as "-d[1]" does).  ROOT reads the global options first.
COMMANDS = {
    "normalize": (normalize, ("EXPR",), {}, None),
    "apply": (apply_cmd, ("EXPR",), {
        "--to": ("target", str, True, "Polynomial the operator acts on.")}, None),
    "transpose": (transpose, ("EXPR",), {"--twist": (
        "twist", str, False, "Comma-separated twist polynomials, one per variable "
        "(characteristic 0 only).")}, None),
    "order": (order, ("EXPR",), {}, None),
    "level": (level, ("EXPR",), {}, None),
    "bracket": (bracket_cmd, ("LEFT", "RIGHT"), {}, None),
    "matrix": (matrix_cmd, ("EXPR",), {
        "--e": ("level_e", int, True, "Level of the matrix representation.")}, None),
    "artinian": (artinian_cmd, (), {"--exponents": (
        "exps", str, True, "Comma-separated defining exponents, e.g. 2,3.")}, None),
    "group": (group_cmd, (), {
        "--group": ("group_file", str, True, "JSON file: list of row-major matrices.")}, {
        "pseudoreflections": (pseudoreflections, (), {}, None),
        "invariant-check": (invariant_check, ("EXPR",), {}, None),
        "reynolds": (reynolds_cmd, ("EXPR",), {}, None)}),
}
ROOT = (cli, (), {
    "--char": ("characteristic", int, False, "Field characteristic: 0 or a prime."),
    "--nvars": ("nvars", int, False, "Number of variables."),
    "--vars": ("var_names", str, False,
               "Comma-separated variable names (default x1,x2,...)."),
    "--json": ("json_output", bool, False, "Emit versioned JSON instead of text."),
}, COMMANDS)


class _Usage(Exception):
    """A usage error: exit code 1."""


def _help(path: str, node, options: dict) -> str:
    """A command's help, in click's layout."""
    handler, names, _, commands = node
    usage = " ".join([path, "[OPTIONS]", *names, *["COMMAND [ARGS]..."] * bool(commands)])
    sections = {"Options": [(flag + {int: " INTEGER", str: " TEXT"}.get(kind, ""),
                             about + "  [required]" * required)
                            for flag, (_, kind, required, about) in options.items()]}
    if commands:
        sections["Commands"] = sorted((k, c[0].__doc__) for k, c in commands.items())
    text = f"Usage: {usage}\n\n  {handler.__doc__}"
    for title, rows in sections.items():
        width = max(len(left) for left, _ in rows)
        text += f"\n\n{title}:" + "".join(f"\n  {a:<{width}}  {b}" for a, b in rows)
    return text


def _run(path: str, node, args: list, context: tuple = ()) -> None:
    """Read one command's arguments, with click's checks in click's order, and
    run its handler; with sub-commands, go on to the one named next."""
    handler, names, options, commands = node
    options = {**options, "--help": ("help", bool, False, "Show this message and exit.")}
    if commands and not args:
        raise _Usage(_help(path, node, options))
    given, positional, rest = {}, [], iter(args)
    for token in rest:
        flag, eq, value = token.partition("=")
        if token == "--":
            positional += rest
        elif flag in options:
            if options[flag][1] is bool:
                if eq:
                    raise _Usage(f"Option {flag!r} does not take a value.")
                value = True
            elif not eq and (value := next(rest, None)) is None:
                raise _Usage(f"Option {flag!r} requires an argument.")
            given[flag] = value
        elif token[:1] == "-" and len(token) > 1 and not names:
            raise _Usage(f"No such option {flag if token[:2] == '--' else token[:2]!r}.")
        else:
            positional.append(token)
            positional += rest if commands else ()
    if given.pop("--help", False):
        return print(_help(path, node, options))
    values = {}
    for flag, value in given.items():
        try:
            values[options[flag][0]] = options[flag][1](value)
        except ValueError:
            raise _Usage(f"Invalid value for {flag!r}: {value!r} is not a valid "
                         "integer.") from None
    if len(positional) < len(names):
        raise _Usage(f"Missing argument {names[len(positional)]!r}.")
    for flag, (_, _, required, _) in options.items():
        if required and flag not in given:
            raise _Usage(f"Missing option {flag!r}.")
    extra = positional[len(names):] if commands is None else ()
    if extra:
        raise _Usage(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                     f"({' '.join(extra)})")
    if commands is None:
        return handler(*context, *positional, **values)
    if not positional:
        raise _Usage("Missing command.")
    name, *args = positional
    if name not in commands:
        raise _Usage(f"No such command {name!r}.")
    _run(f"{path} {name}", commands[name], args, handler(*context, **values))


# longest usage-error message printed whole; a longer one, such as one that
# quotes a long option value, keeps its start and end only
USAGE_ECHO_LIMIT = 160


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        _run("weylops", ROOT, sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except _Usage as exc:
        message, half = str(exc), USAGE_ECHO_LIMIT // 2
        if len(message) > USAGE_ECHO_LIMIT:
            message = f"{message[:half]} ... {message[-half:]}"
        print(f"usage error: {message}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except WeylOpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone; the flush at exit writes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
