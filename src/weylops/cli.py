"""Command-line front end.

Every subcommand reads expressions in the ``d[...]`` syntax of
:mod:`weylops.opparser` over a session ring configured by the top-level
flags, and writes either canonical text or versioned JSON.  Exit codes:
0 success, 1 usage, 2 parse error, 3 violated mathematical precondition.
A usage error quotes the offending value, which is cut short when long.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import click

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


@dataclass
class SessionConfig:
    """Ring and output settings shared by the subcommands."""

    characteristic: int = 0
    nvars: int = 1
    var_names: tuple | None = None
    json_output: bool = False

    def ring(self) -> PolyRing:
        return PolyRing(
            FieldSpec(self.characteristic), self.nvars, self.var_names
        )


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
        click.echo(_json_text(payload(value), what))
    else:
        click.echo(text(value))


# commands that read expressions take an argument such as "-d[1]" as the
# expression, where click would read it as an unknown option
EXPR_SETTINGS = {"ignore_unknown_options": True}


def _scalar_payload(kind: str):
    """The JSON payload of a scalar answer of this kind, as a function of
    the value."""
    return lambda value: {"schema": render.SCHEMA, "kind": kind, "value": value}


@click.group()
@click.option("--char", "characteristic", type=int, default=0,
              help="Field characteristic: 0 or a prime.")
@click.option("--nvars", type=int, default=1, help="Number of variables.")
@click.option("--vars", "var_names", default=None,
              help="Comma-separated variable names (default x1,x2,...).")
@click.option("--json", "json_output", is_flag=True,
              help="Emit versioned JSON instead of text.")
@click.pass_context
def cli(ctx, characteristic, nvars, var_names, json_output):
    """Exact differential operator calculator (divided-power form)."""
    names = None
    if var_names is not None:
        names = tuple(s.strip() for s in var_names.split(","))
        nvars = len(names)
    ctx.obj = SessionConfig(
        characteristic=characteristic,
        nvars=nvars,
        var_names=names,
        json_output=json_output,
    )


@cli.command(context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.pass_obj
def normalize(cfg: SessionConfig, expr):
    """Parse an operator expression and print its normal form."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, op, render.render_op, render.op_json)


@cli.command("apply", context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.option("--to", "target", required=True,
              help="Polynomial the operator acts on.")
@click.pass_obj
def apply_cmd(cfg: SessionConfig, expr, target):
    """Apply an operator to a polynomial."""
    ring = cfg.ring()
    op = parse_operator(expr, ring)
    f = parse_polynomial(target, ring)
    _emit(cfg, op.apply(f), render.render_poly, render.poly_json)


@cli.command(context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.option("--twist", default=None,
              help="Comma-separated twist polynomials, one per variable "
                   "(characteristic 0 only).")
@click.pass_obj
def transpose(cfg: SessionConfig, expr, twist):
    """Transpose an operator (standard, or twisted with --twist)."""
    ring = cfg.ring()
    op = parse_operator(expr, ring)
    if twist is None:
        phi = AntiAutomorphism.standard(ring)
    else:
        polys = [parse_polynomial(s, ring) for s in twist.split(",")]
        phi = AntiAutomorphism.twisted(ring, polys)
    _emit(cfg, phi(op), render.render_op, render.op_json)


@cli.command(context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.pass_obj
def order(cfg: SessionConfig, expr):
    """Order of an operator (-1 for zero)."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, op.order(), lambda v: render.int_text(v, "the order"),
          _scalar_payload("order"), "the order")


@cli.command(context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.pass_obj
def level(cfg: SessionConfig, expr):
    """Level of an operator (characteristic p only)."""
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, op.level(), str, _scalar_payload("level"))


@cli.command("bracket", context_settings=EXPR_SETTINGS)
@click.argument("left")
@click.argument("right")
@click.pass_obj
def bracket_cmd(cfg: SessionConfig, left, right):
    """Commutator of two operators."""
    ring = cfg.ring()
    result = op_bracket(parse_operator(left, ring), parse_operator(right, ring))
    _emit(cfg, result, render.render_op, render.op_json)


@cli.command("matrix", context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.option("--e", "level_e", type=int, required=True,
              help="Level of the matrix representation.")
@click.pass_obj
def matrix_cmd(cfg: SessionConfig, expr, level_e):
    """Level-e matrix of an operator over the p^e-th powers."""
    op = parse_operator(expr, cfg.ring())
    m = lvm.to_matrix(op, level_e)
    if cfg.json_output:
        click.echo(_json_text(render.level_matrix_json(m)))
    else:
        click.echo(f"level {m.e} matrix, size {m.basis.size}, "
                   f"basis {list(m.basis.monomials)}")
        for lam, row in zip(m.basis.monomials, m.entries):
            cells = "  ".join(render.render_poly(v) for v in row)
            click.echo(f"{list(lam)}: {cells}")


@cli.command("artinian")
@click.option("--exponents", "exps", required=True,
              help="Comma-separated defining exponents, e.g. 2,3.")
@click.pass_obj
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
        click.echo(_json_text(payload))
    else:
        click.echo(f"algebra dimension {d}, basis of {len(A.basis)} monomials")
        dims = " ".join(str(v) for v in filt.dims)
        click.echo(f"filtration dims: {dims} (stable at order {filt.stabilized_at})")
        click.echo("socle pairing:")
        for row in A.gram().rows:
            click.echo("  " + " ".join(str(v) for v in row))


def _load_group(path, field: FieldSpec) -> inv.FiniteGroup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read group file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"group file is not valid JSON: {exc}") from None
    # data[0] is read only once it has passed as a list: all() goes in order
    if not (isinstance(data, list) and all(
            isinstance(rows, list) and len(rows) == len(data[0]) > 0
            and all(isinstance(row, list) and len(row) == len(rows) for row in rows)
            and all(isinstance(v, (int, float, str)) and not isinstance(v, bool)
                    for row in rows for v in row) for rows in data)):
        raise ParseError("group file must be a JSON list of nonempty square "
                         "matrices of one size: lists of rows of numbers or strings")
    return inv.FiniteGroup([inv.GroupElement(Matrix(field, rows)) for rows in data])


@cli.group("group")
@click.option("--group", "group_file", required=True,
              help="JSON file: list of row-major matrices.")
@click.pass_context
def group_cmd(ctx, group_file):
    """Finite linear group actions on operators."""
    cfg: SessionConfig = ctx.obj
    ctx.obj = (cfg, _load_group(group_file, FieldSpec(cfg.characteristic)))


@group_cmd.command()
@click.pass_obj
def pseudoreflections(obj):
    """List the pseudoreflections in the group."""
    cfg, G = obj
    refl = G.pseudoreflections()
    if cfg.json_output:
        click.echo(_json_text({
            "schema": render.SCHEMA,
            "kind": "pseudoreflections",
            "count": len(refl),
            "elements": [render.scalar_matrix_json(g.matrix) for g in refl],
        }))
    else:
        click.echo(f"{len(refl)} pseudoreflection(s)")
        for g in refl:
            click.echo("  " + "; ".join(
                " ".join(str(v) for v in row)
                for row in g.matrix.rows
            ))


@group_cmd.command("invariant-check", context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.pass_obj
def invariant_check(obj, expr):
    """Whether an operator is fixed by the whole group."""
    cfg, G = obj
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, inv.is_invariant(G, op), lambda v: "true" if v else "false",
          _scalar_payload("invariant"))


@group_cmd.command("reynolds", context_settings=EXPR_SETTINGS)
@click.argument("expr")
@click.pass_obj
def reynolds_cmd(obj, expr):
    """Group average of an operator."""
    cfg, G = obj
    op = parse_operator(expr, cfg.ring())
    _emit(cfg, inv.reynolds(G, op), render.render_op, render.op_json)


# longest usage-error message printed whole; click quotes option values
# whole, so a longer one keeps its start and end only
USAGE_ECHO_LIMIT = 160


def _clipped(message: str) -> str:
    if len(message) <= USAGE_ECHO_LIMIT:
        return message
    half = USAGE_ECHO_LIMIT // 2
    return f"{message[:half]} ... {message[-half:]}"


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 1
    except click.exceptions.UsageError as exc:
        click.echo(f"usage error: {_clipped(exc.format_message())}", err=True)
        return 1
    except click.exceptions.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        return 2
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return 3
    except WeylOpsError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
