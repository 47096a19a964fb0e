"""Expression grammar, render round trips, CLI surface and exit codes."""

import json
import math
import pathlib

import pytest

from weylops import DiffOp, ParseError, parse_operator, parse_polynomial
from weylops.cli import main
from weylops.opparser import MAX_DEPTH
from weylops.render import render_op, render_poly
from conftest import CHARACTERISTICS, make_ring, random_diffop

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_parse_variable_and_weyl_product():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert parse_operator("x1", R) == DiffOp.from_poly(x)
    assert parse_operator("d1*x1", R) == x * d + 1
    assert parse_operator("(x1*d1)^2", R) == (x * d) * (x * d)


def test_juxtaposition_and_precedence():
    R = make_ring(0, 2)
    x, y = R.gens()
    d1 = DiffOp.partial(R, 0)
    assert parse_operator("2x1", R) == DiffOp.from_poly(2 * x)
    assert parse_operator("x1 x2", R) == DiffOp.from_poly(x * y)
    assert parse_operator("(x1+1)(x1-1)", R) == DiffOp.from_poly(x * x - 1)
    # power binds tighter than unary minus, which binds tighter than product
    assert parse_operator("-x1^2", R) == DiffOp.from_poly(-(x**2))
    assert parse_operator("-x1*x2", R) == DiffOp.from_poly(-x * y)
    assert parse_operator("x1+x2*x1", R) == DiffOp.from_poly(x + y * x)
    # product is noncommutative and left-associative
    assert parse_operator("d1 x1 d1", R) == (d1 * x) * d1


def test_rational_literals():
    R = make_ring(0, 1)
    x = R.variable(0)
    assert parse_operator("3/4*x1", R) == DiffOp.from_poly(R.constant("3/4") * x)
    R5 = make_ring(5, 1)
    assert parse_operator("3/4", R5) == DiffOp.constant(R5, 3 * pow(4, 3, 5))
    with pytest.raises(ParseError):
        parse_operator("x1/2", R)


def test_divided_power_symbols():
    R = make_ring(2, 2)
    assert parse_operator("d[3,1]", R) == DiffOp.basis(R, (3, 1))
    assert parse_operator("d2", R) == DiffOp.partial(R, 1)
    with pytest.raises(ParseError):
        parse_operator("d[1]", R)  # arity mismatch
    with pytest.raises(ParseError):
        parse_operator("d[]", R)


def test_parse_errors_carry_position():
    R = make_ring(0, 1)
    with pytest.raises(ParseError) as info:
        parse_operator("x1 + ?", R)
    assert info.value.line == 1
    assert info.value.column == 6
    with pytest.raises(ParseError) as info:
        parse_operator("x1 + y9", R)
    assert "y9" in str(info.value)
    with pytest.raises(ParseError):
        parse_operator("x1^-2", R)
    with pytest.raises(ParseError):
        parse_operator("x1 x2 +", R)


def test_parse_polynomial_rejects_operators():
    R = make_ring(0, 1)
    assert parse_polynomial("x1^2 - 1", R) == R.variable(0) ** 2 - 1
    with pytest.raises(ParseError):
        parse_polynomial("d1", R)


def test_render_round_trip_random(rng):
    count = 0
    for char in CHARACTERISTICS:
        for nvars in (1, 2, 3):
            R = make_ring(char, nvars)
            for _ in range(42):
                xi = random_diffop(rng, R)
                assert parse_operator(render_op(xi), R) == xi
                count += 1
    assert count >= 500


def test_render_zero_and_signs():
    R = make_ring(0, 1)
    x = R.variable(0)
    d = DiffOp.partial(R, 0)
    assert render_op(DiffOp.zero(R)) == "0"
    assert render_poly(R.zero()) == "0"
    assert render_op(x * d + 1) == "x1*d[1] + 1"
    assert render_op(-(x * d) - 1) == "-x1*d[1] - 1"
    assert render_op((x + 1) * DiffOp.basis(R, (2,))) == "(x1 + 1)*d[2]"
    assert render_poly(R.constant("-1/2") * x + 1) == "-1/2*x1 + 1"


def _run(args):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_cli_normalize_text():
    code, out, _ = _run(["normalize", "d1*x1"])
    assert code == 0
    assert out == "x1*d[1] + 1\n"


def test_cli_transpose_text():
    code, out, _ = _run(["transpose", "d1"])
    assert code == 0
    assert out == "-d[1]\n"


def test_cli_apply_text():
    code, out, _ = _run(["apply", "d[2]", "--to", "x1^4"])
    assert code == 0
    assert out == "6*x1^2\n"


def test_cli_twisted_transpose():
    code, out, _ = _run(["transpose", "d1", "--twist", "x1^2"])
    assert code == 0
    assert out == "-d[1] + x1^2\n"


def test_cli_order_level_bracket():
    assert _run(["order", "x1*d[1] + d[3]"]) == (0, "3\n", "")
    code, out, _ = _run(["--char", "2", "level", "d[2]"])
    assert (code, out) == (0, "2\n")
    code, out, _ = _run(["bracket", "d1", "x1"])
    assert (code, out) == (0, "1\n")


def test_cli_exit_codes(tmp_path):
    assert _run(["normalize", "d1*"])[0] == 2  # parse error
    assert _run(["level", "d1"])[0] == 3  # char-0 precondition
    assert _run(["--char", str(10**25), "normalize", "x1"])[0] == 3  # too large
    assert _run(["transpose", "--twist", "x1", "d1", "--char", "2"])[0] == 1
    code, _, err = _run(["--char", "2", "transpose", "d1", "--twist", "x1"])
    assert code == 3  # no twists in characteristic p
    assert _run(["nosuchcommand"])[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("[not json")
    assert _run(["group", "--group", str(bad), "pseudoreflections"])[0] == 2


def test_cli_size_limits():
    # d[N] only meets the two lowest divided powers of x1, however large N is
    assert _run(["normalize", "d[100000000]*x1"]) == (
        0, "x1*d[100000000] + d[99999999]\n", "")
    for exps in ("40,40", "17", "1000000000"):
        code, out, err = _run(["artinian", "--exponents", exps])
        assert (code, out) == (3, "")
        assert "guardrail" in err and "Traceback" not in err


def test_cli_huge_binomials():
    # C(2*10^8, 10^8) is 4 mod 5 by Lucas' theorem; over Q it is refused
    assert _run(["--char", "5", "normalize", "d[100000000]*d[100000000]"]) == (
        0, "4*d[200000000]\n", "")
    assert _run(["--char", "5", "apply", "d[100000000]",
                 "--to", "x1^200000000"]) == (0, "4*x1^100000000\n", "")
    code, out, err = _run(["normalize", "d[100000000]^2"])
    assert (code, out) == (3, "")
    assert "guardrail" in err and "Traceback" not in err
    code, out, _ = _run(["normalize", "d[1000]^2"])
    assert (code, out) == (0, f"{math.comb(2000, 1000)}*d[2000]\n")


def test_cli_sign_group_reynolds_of_a_huge_order():
    # -I is monomial: d[N,0] meets one divided power of one linear form
    group_file = str(GOLDEN / "group_sign.json")
    assert _run(["--nvars", "2", "group", "--group", group_file,
                 "reynolds", "d[1000000,0]"]) == (0, "d[1000000,0]\n", "")


def test_cli_dense_transport_guardrail(tmp_path):
    # rotation by a third of a turn: each of its two non-identity elements
    # has an inverse with one dense row, so d[300,0] meets at most 301 terms
    group_file = tmp_path / "c3.json"
    group_file.write_text("[[[1, 0], [0, 1]], [[0, -1], [1, -1]], [[-1, 1], [-1, 0]]]")
    base = ["--nvars", "2", "group", "--group", str(group_file), "reynolds"]
    code, out, err = _run(base + ["d[300,0]"])
    assert (code, err) == (0, "") and out.count("d[") == 301
    code, out, err = _run(base + ["d[1000000,0]"])
    assert (code, out) == (3, "")
    assert "guardrail" in err and "Traceback" not in err


def test_cli_coefficient_past_the_printing_limit():
    # every binomial factor is small, but the product's coefficient is not
    for args in (["normalize", "d[100]^60"], ["--json", "normalize", "d[100]^60"]):
        code, out, err = _run(args)
        assert (code, out) == (3, "")
        assert "decimal digits" in err and "Traceback" not in err


def test_cli_long_flat_chains():
    # sums, differences, products and power chains evaluate left to right
    assert _run(["normalize", "+".join(["x1"] * 2000)]) == (0, "2000*x1\n", "")
    assert _run(["normalize", "-".join(["x1"] * 2001)]) == (0, "-1999*x1\n", "")
    assert _run(["normalize", "*".join(["x1"] * 3000)]) == (0, "x1^3000\n", "")
    assert _run(["normalize", "x1" + "^1" * 3000]) == (0, "x1\n", "")


def test_cli_deep_nesting_refused():
    deep = MAX_DEPTH
    assert _run(["normalize", "(" * deep + "x1" + ")" * deep]) == (0, "x1\n", "")
    assert _run(["normalize", "--", "-" * deep + "x1"]) == (0, "x1\n", "")
    for expr in ("(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1",
                 "(" * (deep + 1) + "x1" + ")" * (deep + 1)):
        code, out, err = _run(["normalize", "--", expr])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: nesting deeper than")
        assert "Traceback" not in err


def test_cli_group_commands():
    group_file = str(GOLDEN / "group_sign.json")
    code, out, _ = _run(
        ["--vars", "s,t", "group", "--group", group_file, "pseudoreflections"]
    )
    assert code == 0
    assert out.startswith("0 pseudoreflection")
    code, out, _ = _run(
        ["--vars", "s,t", "group", "--group", group_file,
         "invariant-check", "s*d[1,0]"]
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = _run(
        ["--vars", "s,t", "group", "--group", group_file, "invariant-check", "s"]
    )
    assert (code, out) == (0, "false\n")


def test_cli_artinian_text():
    code, out, _ = _run(["artinian", "--exponents", "2"])
    assert code == 0
    assert "filtration dims: 2 3 4" in out


@pytest.mark.parametrize(
    "name, args",
    [
        ("normalize_weyl.json", ["--json", "normalize", "d1*x1"]),
        (
            "transpose_mixed.json",
            ["--json", "--char", "0", "--nvars", "1",
             "transpose", "x1^2*d[2] - 1/2*d[1] + x1"],
        ),
        (
            "matrix_d_char2.json",
            ["--json", "--char", "2", "--nvars", "1", "matrix", "d1", "--e", "1"],
        ),
        ("artinian_dual.json", ["--json", "--char", "0", "artinian", "--exponents", "2"]),
        (
            "reynolds_sign.json",
            ["--json", "--char", "0", "--vars", "s,t", "group", "--group",
             str(GOLDEN / "group_sign.json"), "reynolds", "s*d[1,0] + s"],
        ),
        (
            "apply_char3.json",
            ["--json", "--char", "3", "--nvars", "2", "apply", "d[2,1]",
             "--to", "x1^2*x2 + x2^3"],
        ),
    ],
)
def test_cli_golden_json(name, args):
    expected = (GOLDEN / name).read_text()
    code, out, _ = _run(args)
    assert code == 0
    assert out == expected
    json.loads(out)  # stays well-formed


def test_cli_output_is_byte_stable():
    args = ["--json", "normalize", "x1*d[1] + 1/3*d[2] - 2"]
    first = _run(args)
    second = _run(args)
    assert first == second
