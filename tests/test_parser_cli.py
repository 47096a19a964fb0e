"""Expression grammar, render round trips, CLI surface and exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from weylops import DiffOp, DomainError, ParseError, parse_operator, parse_polynomial
from weylops.opparser import MAX_DEPTH, parse, tokenize
from weylops.render import op_json, render_op, render_poly
from conftest import CHARACTERISTICS, make_ring, random_diffop, run_cli

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


def test_parse_errors_on_a_later_line():
    R = make_ring(0, 1)
    for text, message in (("x1 +\n  y9", "unknown identifier 'y9' (line 2, column 3)"),
                          ("x1 *\n\n d1 ?", "unexpected character '?' (line 3, column 5)"),
                          ("x1 +\n d[1,2]", "d[...] needs 1 entries, got 2 "
                                             "(line 2, column 2)"),
                          ("(x1\n", "expected ')' (line 2, column 1)")):
        with pytest.raises(ParseError) as info:
            parse_operator(text, R)
        assert str(info.value) == message


def test_parse_errors_in_reading_order():
    """The descent lexes one token at a time, so the error at the lowest
    column is reported, whether the grammar or the lexer finds it; at one
    column the lexer's message wins."""
    for text, message in (
            ("x1 + ) ?", "unexpected token ')' (line 1, column 6)"),
            ("(x1 ?", "unexpected character '?' (line 1, column 5)"),
            ("x1 + ?", "unexpected character '?' (line 1, column 6)"),
            ("x1 ^ ) ?", "exponent must be a natural number (line 1, column 6)"),
            ("3 / x1 ?", "expected a natural number after '/' (line 1, column 5)"),
            ("d[a] ?", "malformed d[...] symbol (line 1, column 1)"),
            ("d[] ?", "empty d[...] symbol (line 1, column 1)"),
            ("x1 )\n?", "trailing input ')' (line 1, column 4)"),
            ("x1 +\n ) ?", "unexpected token ')' (line 2, column 2)"),
            (f"{'7' * 5000} ?", "number of 5000 digits is too long (line 1, column 1)")):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message, text
    # tokenize still lexes the whole text first
    with pytest.raises(ParseError, match="unexpected character '\\?' \\(line 1, column 8\\)"):
        tokenize("x1 + ) ?")


def test_cli_reports_the_first_error_in_reading_order():
    code, out, err = run_cli(["normalize", "x1 + ) ?"])
    assert (code, out) == (2, "")
    assert "unexpected token ')' (line 1, column 6)" in err


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


def _graded_lex_desc(exps):
    return sorted(exps, key=lambda e: (sum(e), e), reverse=True)


def test_json_from_the_core_matches_the_field_view(rng):
    # op_json reads the integer core; the reference prints the Fraction
    # (or residue) of each coefficient of the Polynomial view
    for char in CHARACTERISTICS:
        for nvars in (1, 2):
            R = make_ring(char, nvars)
            for _ in range(30):
                xi = random_diffop(rng, R)
                terms = xi.terms
                expected = [
                    {"exponent": list(alpha),
                     "coefficient": [
                         {"exponent": list(m), "coefficient": str(terms[alpha].terms[m])}
                         for m in _graded_lex_desc(terms[alpha].terms)]}
                    for alpha in _graded_lex_desc(terms)
                ]
                assert op_json(xi)["terms"] == expected


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


def test_cli_normalize_text():
    code, out, _ = run_cli(["normalize", "d1*x1"])
    assert code == 0
    assert out == "x1*d[1] + 1\n"


def test_cli_transpose_text():
    code, out, _ = run_cli(["transpose", "d1"])
    assert code == 0
    assert out == "-d[1]\n"


def test_cli_apply_text():
    code, out, _ = run_cli(["apply", "d[2]", "--to", "x1^4"])
    assert code == 0
    assert out == "6*x1^2\n"


def test_cli_twisted_transpose():
    code, out, _ = run_cli(["transpose", "d1", "--twist", "x1^2"])
    assert code == 0
    assert out == "-d[1] + x1^2\n"


def test_cli_order_level_bracket():
    assert run_cli(["order", "x1*d[1] + d[3]"]) == (0, "3\n", "")
    code, out, _ = run_cli(["--char", "2", "level", "d[2]"])
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(["bracket", "d1", "x1"])
    assert (code, out) == (0, "1\n")


def test_cli_expressions_starting_with_minus():
    # a negative answer reads back as an argument, with or without "--"
    assert run_cli(["normalize", "-d[1]"]) == (0, "-d[1]\n", "")
    assert run_cli(["apply", "-d1", "--to", "-x1"]) == (0, "1\n", "")
    assert run_cli(["bracket", "x1", "-d1"]) == (0, "1\n", "")
    assert run_cli(["--nvars", "2", "transpose", "-x1*d2"]) == (0, "x1*d[0,1]\n", "")
    assert run_cli(["normalize", "--", "-d[1]"]) == (0, "-d[1]\n", "")
    # a misspelled option is still a usage error
    for args in (["normalize", "--jsn", "d1"], ["apply", "d1", "--too", "x1"],
                 ["order", "d1", "--char", "2"]):
        code, out, err = run_cli(args)
        assert (code, out) == (1, "") and err.startswith("usage error:")


def test_cli_exit_codes(tmp_path):
    assert run_cli(["normalize", "d1*"])[0] == 2  # parse error
    assert run_cli(["level", "d1"])[0] == 3  # char-0 precondition
    assert run_cli(["--char", str(10**25), "normalize", "x1"])[0] == 3  # too large
    assert run_cli(["transpose", "--twist", "x1", "d1", "--char", "2"])[0] == 1
    code, _, err = run_cli(["--char", "2", "transpose", "d1", "--twist", "x1"])
    assert code == 3  # no twists in characteristic p
    assert run_cli(["nosuchcommand"])[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("[not json")
    assert run_cli(["group", "--group", str(bad), "pseudoreflections"])[0] == 2


def test_cli_size_limits():
    # d[N] only meets the two lowest divided powers of x1, however large N is
    assert run_cli(["normalize", "d[100000000]*x1"]) == (
        0, "x1*d[100000000] + d[99999999]\n", "")
    for exps in ("40,40", "17", "1000000000"):
        code, out, err = run_cli(["artinian", "--exponents", exps])
        assert (code, out) == (3, "")
        assert "guardrail" in err and "Traceback" not in err


def test_rational_literal_edge_cases():
    R = make_ring(0, 1)
    code, out, err = run_cli(["normalize", "1/0"])
    assert (code, out) == (3, "") and "division by zero" in err
    assert run_cli(["--char", "5", "normalize", "1/10*x1"])[0] == 3
    assert run_cli(["--char", "5", "normalize", "1/3*x1"]) == (0, "2*x1\n", "")
    for text in ("0/7*x1", "0/7"):
        zero = parse_operator(text, R)
        assert zero.is_zero() and zero.den == 1
    assert render_op(parse_operator("6/4*d1", R)) == "3/2*d[1]"
    three_halves = parse_operator("6/4", R)
    assert (three_halves.num, three_halves.den) == ({(0,): {(0,): 3}}, 2)
    cancelled = parse_operator("-3/6*x1*d1 + 1/2*x1*d1", R)
    assert cancelled.is_zero() and cancelled.den == 1


def test_cli_long_number_literals():
    # Python refuses to convert more than 4300 digits; that is a parse error
    digits = "7" * 5000
    for expr, column in ((digits, 1), (f"{digits}/3", 1), (f"1/{digits}", 3),
                         (f"x1^{digits}", 4)):
        code, out, err = run_cli(["normalize", expr])
        assert (code, out) == (2, "")
        assert f"number of 5000 digits is too long (line 1, column {column})" in err
        assert "Traceback" not in err


def test_cli_long_derivative_indices():
    # d<N> past nvars is an unknown identifier however many digits N has
    ones = "1" * 4400
    code, out, err = run_cli(["normalize", f"d{ones}"])
    assert (code, out) == (2, "")
    assert f"unknown identifier 'd{ones}' (line 1, column 1)" in err
    assert "Traceback" not in err
    code, out, err = run_cli(["normalize", f"x1*d[{ones}]"])
    assert (code, out) == (2, "")
    assert "number of 4400 digits is too long (line 1, column 4)" in err
    assert "Traceback" not in err
    assert run_cli(["normalize", "d[1,,2]"])[2].startswith(
        "parse error: d[...] entries must be naturals")


def test_cli_huge_binomials():
    # C(2*10^8, 10^8) is 4 mod 5 by Lucas' theorem; over Q it is refused
    for expr in ("d[100000000]*d[100000000]", "d[100000000]^2"):
        assert run_cli(["--char", "5", "normalize", expr]) == (
            0, "4*d[200000000]\n", "")
    assert run_cli(["--char", "5", "apply", "d[100000000]",
                    "--to", "x1^200000000"]) == (0, "4*x1^100000000\n", "")
    code, out, err = run_cli(["normalize", "d[100000000]^2"])
    assert (code, out) == (3, "")
    assert "guardrail" in err and "Traceback" not in err
    code, out, _ = run_cli(["normalize", "d[1000]^2"])
    assert (code, out) == (0, f"{math.comb(2000, 1000)}*d[2000]\n")


def test_cli_powers_answered_by_their_coefficients():
    # the kernels bound each product by its own work, so powers with small
    # products are answered whatever their exponent
    x1 = {(k,): math.comb(40, k) for k in range(41)}
    x2 = {(a, b): math.factorial(19) // (math.factorial(a) * math.factorial(b)
                                         * math.factorial(19 - a - b))
          for a in range(20) for b in range(20 - a)}
    x3 = {(k,): math.comb(38, k) for k in range(39)}
    for args, nvars, terms in ((["normalize", "(x1+1)^40"], 1, x1),
                               (["--nvars", "2", "normalize", "(x1+x2+1)^19"], 2, x2),
                               (["normalize", "(x1+1)^2^19"], 1, x3)):
        expected = DiffOp.from_poly(make_ring(0, nvars).from_terms(terms))
        assert run_cli(args) == (0, render_op(expected) + "\n", "")


def test_cli_work_bound_refuses_in_time(tmp_path):
    # each of these ran for minutes or longer before the kernels counted
    # their work; a subprocess with a timeout fails instead of hanging
    group_file = tmp_path / "c3.json"
    group_file.write_text("[[[1, 0], [0, 1]], [[0, -1], [1, -1]], [[-1, 1], [-1, 0]]]")
    c3 = ["--nvars", "2", "group", "--group", str(group_file), "reynolds"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for args in (["--char", "5", "normalize", "d[100000000]*x1^100000000"],
                 ["--char", "5", "transpose", "x1^100000000*d[100000000]"],
                 c3 + ["x1^100000"],
                 # a substitution lifted by 2^N and an image power 4^N
                 # built before either was sized
                 _scaled_swap(tmp_path) + ["x1^100000000"],
                 # a one-term power squared without bound before its
                 # coefficient was sized
                 ["normalize", "2^10000000000"],
                 ["normalize", "(2*x1)^10000000000"]):
        done = subprocess.run([sys.executable, "-m", "weylops.cli", *args],
                              capture_output=True, text=True, env=env, timeout=20)
        assert (done.returncode, done.stdout) == (3, "")
        assert "guardrail" in done.stderr and "Traceback" not in done.stderr


def _scaled_swap(tmp_path):
    """The group {1, g}, g: x1 -> 2*x2, x2 -> x1/2, whose substitution is
    the integer image 2*x2 over 1 and x1 over 2, ready for a ``reynolds``
    operand."""
    group_file = tmp_path / "scaled_swap.json"
    group_file.write_text('[[[1, 0], [0, 1]], [[0, "1/2"], [2, 0]]]')
    return ["--nvars", "2", "group", "--group", str(group_file), "reynolds"]


def test_cli_substitution_powers_sized_first(tmp_path):
    # under the scaled swap x1^N goes to (2*x2)^N and d[0,N] to (2*d1)^[N],
    # each image over its own denominator 1: the powers sized are the 2^N
    # that the answer holds, refused from N = 16384 on, past 2^14 bits
    base = _scaled_swap(tmp_path)
    assert run_cli(base + ["x1^3*d[1,0]"]) == (
        0, "1/2*x1^3*d[1,0] + 2*x2^3*d[0,1]\n", "")
    half = 2 ** 8191
    assert run_cli(base + ["x1^8192"]) == (0, f"1/2*x1^8192 + {half}*x2^8192\n", "")
    assert run_cli(base + ["d[0,8192]"]) == (0, f"{half}*d[8192,0] + 1/2*d[0,8192]\n", "")
    for text in ("x1^16384", "d[0,16384]"):
        code, out, err = run_cli(base + [text])
        assert (code, out) == (3, "") and "guardrail of 16384 bits" in err


def test_cli_transport_powers_reduced_as_formed(tmp_path):
    # over F_5 the divided power (3*d1)^[N] took 3^N whole before reducing
    # it mod 5, and ran past the timeout
    group_file = tmp_path / "c4.json"
    group_file.write_text("[[[1, 0], [0, 1]], [[2, 0], [0, 1]], [[4, 0], [0, 1]], "
                          "[[3, 0], [0, 1]]]")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "weylops.cli", "--char", "5", "--nvars", "2", "group",
         "--group", str(group_file), "reynolds", "d[100000000,0] + d[100000001,1]"],
        capture_output=True, text=True, env=env, timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (0, "d[100000000,0]\n", "")


def test_cli_group_file_must_hold_matrices(tmp_path):
    # a bare row was a TypeError traceback; a row of strings was read digit
    # by digit, "10" as the row 1, 0; empty, ragged, non-square and mixed
    # sizes were domain errors (exit 3); a float, which no field takes, was
    # one too
    for i, text in enumerate(("[[5]]", '[["10", "01"]]', "[[[1, true]]]",
                              '[[[1, {"a": 1}]]]', '{"g": [[1]]}', "[[1, [2]]]",
                              "[[]]", "[[[]]]", "[[[1, 2], [3]]]", "[[[1, 2]]]",
                              "[[[1]], [[1, 0], [0, 1]]]", "[[[1, 0], [0, 1]], [[1]]]",
                              "[[[1.0]], [[-1.0]]]", "[[[NaN]]]", "[[[1e400]]]")):
        group_file = tmp_path / f"bad{i}.json"
        group_file.write_text(text)
        code, out, err = run_cli(["--nvars", "1", "group", "--group", str(group_file),
                                  "pseudoreflections"])
        assert (code, out) == (2, ""), text
        assert err.startswith("parse error: group file must be") and err.count("\n") == 1
    # well formed, but no group
    for text, message in (("[]", "at least the identity"),
                          ("[[[1, 1], [1, 1]]]", "must be invertible")):
        group_file = tmp_path / "nogroup.json"
        group_file.write_text(text)
        code, out, err = run_cli(["--nvars", "2", "group", "--group", str(group_file),
                                  "pseudoreflections"])
        assert (code, out) == (3, "") and message in err, text


def test_cli_matrix_level_checked_before_the_work():
    # a level past the size guardrail is refused before p^(e*n) is formed
    # (3^(10^8) alone ran past the timeout, and 3^(10^7) was too long to
    # print in the refusal); a negative level is not a natural number
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for level, message in (("10000000", "guardrail"), ("100000000", "guardrail"),
                           ("-1", "natural number")):
        done = subprocess.run(
            [sys.executable, "-m", "weylops.cli", "--char", "3", "matrix", "d[1]",
             "--e", level],
            capture_output=True, text=True, env=env, timeout=20)
        assert (done.returncode, done.stdout) == (3, "")
        assert message in done.stderr and "Traceback" not in done.stderr
        assert len(done.stderr) < 100


def test_cli_usage_error_clips_long_values():
    # click quotes a bad option value whole; 5000 digits echoed 5 kB
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    nines = "9" * 5000
    for args, option in ((["--char", "3", "matrix", "d[1]", "--e", nines], "--e"),
                         (["--nvars", nines, "normalize", "x1"], "--nvars")):
        done = subprocess.run([sys.executable, "-m", "weylops.cli", *args],
                              capture_output=True, text=True, env=env, timeout=20)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith(f"usage error: Invalid value for '{option}': '999")
        assert done.stderr.endswith("999' is not a valid integer.\n")
        assert len(done.stderr) < 200


def test_cli_sign_group_reynolds_of_a_huge_order():
    # -I is monomial: d[N,0] meets one divided power of one linear form
    group_file = str(GOLDEN / "group_sign.json")
    assert run_cli(["--nvars", "2", "group", "--group", group_file,
                    "reynolds", "d[1000000,0]"]) == (0, "d[1000000,0]\n", "")


def test_cli_dense_transport_guardrail(tmp_path):
    # rotation by a third of a turn: each of its two non-identity elements
    # has an inverse with one dense row, so d[300,0] meets at most 301 terms
    group_file = tmp_path / "c3.json"
    group_file.write_text("[[[1, 0], [0, 1]], [[0, -1], [1, -1]], [[-1, 1], [-1, 0]]]")
    base = ["--nvars", "2", "group", "--group", str(group_file), "reynolds"]
    code, out, err = run_cli(base + ["d[300,0]"])
    assert (code, err) == (0, "") and out.count("d[") == 301
    code, out, err = run_cli(base + ["d[1000000,0]"])
    assert (code, out) == (3, "")
    assert "guardrail" in err and "Traceback" not in err


def test_cli_coefficient_past_the_printing_limit():
    # every binomial factor is small, but the product's coefficient is not
    for args in (["normalize", "d[100]^60"], ["--json", "normalize", "d[100]^60"]):
        code, out, err = run_cli(args)
        assert (code, out) == (3, "")
        assert "decimal digits" in err and "Traceback" not in err


# a ^ chain multiplies exponents: N^N has ~4800 digits, past Python's 4300
_N = "9" * 2400
_HUGE = f"x1^{_N}^{_N}"
# eight exponents of 4000 digits each, one closed-form power per exponent
_CHAIN = "x1" + f"^{'9' * 4000}" * 8


@pytest.mark.parametrize("args", [
    ["--nvars", "1", "normalize", _HUGE],
    ["--nvars", "1", "--json", "normalize", _HUGE],
    ["--nvars", "1", "apply", "d1", "--to", _HUGE],
    ["--char", "3", "transpose", f"{_HUGE}*d1"],
    ["--nvars", "1", "bracket", _HUGE, "d1"],
    ["--nvars", "1", "normalize", f"d[2]*{_HUGE}"],
    ["--nvars", "1", "normalize", _CHAIN],
], ids=["normalize", "normalize-json", "apply", "transpose", "bracket", "binomial",
        "chain"])
def test_cli_integers_past_the_printing_limit(args):
    code, out, err = run_cli(args)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert ("guardrail" if "d[2]" in args[-1] else "decimal digits") in err


def test_cli_order_past_the_printing_limit():
    # over F_p with p ~ 2.7e24 and a = p^176 (4300 digits), d[a]^10000 is
    # (10000a)!/(a!)^10000 * d[10000a], and the factor is 10000! mod p by
    # Lucas' theorem, nonzero: an order of 4304 digits
    p = 2701059125633088797802439
    for json_flag in ([], ["--json"]):
        code, out, err = run_cli(["--char", str(p), *json_flag, "order",
                                  f"d[{p**176}]^10000"])
        assert (code, out) == (3, "")
        assert "the order has more than" in err and "Traceback" not in err


def test_cli_renders_only_the_printed_form(monkeypatch):
    from weylops import render

    def refuse(*args):
        raise AssertionError("rendered a form that is not printed")

    commands = (["normalize", "d1*x1"], ["apply", "d1", "--to", "x1^2"],
                ["transpose", "x1*d1"], ["bracket", "d1", "x1"])
    for flag, skipped in (([], ("op_json", "poly_json")),
                          (["--json"], ("render_op", "render_poly"))):
        with monkeypatch.context() as m:
            for name in skipped:
                m.setattr(render, name, refuse)
            for args in commands:
                code, out, err = run_cli([*flag, *args])
                assert (code, err) == (0, ""), args


def test_cli_long_flat_chains():
    # sums, differences, products and power chains evaluate left to right
    assert run_cli(["normalize", "+".join(["x1"] * 2000)]) == (0, "2000*x1\n", "")
    assert run_cli(["normalize", "-".join(["x1"] * 2001)]) == (0, "-1999*x1\n", "")
    assert run_cli(["normalize", "*".join(["x1"] * 3000)]) == (0, "x1^3000\n", "")
    assert run_cli(["normalize", "x1" + "^1" * 3000]) == (0, "x1\n", "")


def test_cli_deep_nesting_refused():
    deep = MAX_DEPTH
    assert run_cli(["normalize", "(" * deep + "x1" + ")" * deep]) == (0, "x1\n", "")
    assert run_cli(["normalize", "--", "-" * deep + "x1"]) == (0, "x1\n", "")
    for expr in ("(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1",
                 "(" * (deep + 1) + "x1" + ")" * (deep + 1)):
        code, out, err = run_cli(["normalize", "--", expr])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: nesting deeper than")
        assert "Traceback" not in err


def test_variable_names_must_read_back():
    # "a-b" would render 2*x3 as 2*a-b, which reads back as 2a - b
    for names in (["a", "b", "a-b"], [""], ["x 2"], ["1a"], ["x1", "d[1]"]):
        with pytest.raises(DomainError):
            make_ring(0, len(names), names)
    for names in ("", "x 2", "1a", "a,b,a-b"):
        code, out, err = run_cli(["--vars", names, "normalize", "1"])
        assert (code, out) == (3, "")
        assert "is not an identifier" in err and "Traceback" not in err
    R = make_ring(0, 3, ["s", "_t0", "Tt_9"])
    xi = parse_operator("2*Tt_9*d[1,0,0] + s*_t0", R)
    assert parse_operator(render_op(xi), R) == xi


def test_cli_group_commands():
    group_file = str(GOLDEN / "group_sign.json")
    code, out, _ = run_cli(
        ["--vars", "s,t", "group", "--group", group_file, "pseudoreflections"]
    )
    assert code == 0
    assert out.startswith("0 pseudoreflection")
    code, out, _ = run_cli(
        ["--vars", "s,t", "group", "--group", group_file,
         "invariant-check", "s*d[1,0]"]
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(
        ["--vars", "s,t", "group", "--group", group_file, "invariant-check", "s"]
    )
    assert (code, out) == (0, "false\n")


def test_cli_artinian_text():
    code, out, _ = run_cli(["artinian", "--exponents", "2"])
    assert code == 0
    assert "filtration dims: 2 3 4" in out


# a two-variable level-2 matrix over F_3 (81x81): several terms in one
# cell, root monomials past the digit box, and many empty cells
MATRIX_CHAR3_E2 = ["--char", "3", "--nvars", "2", "matrix",
                   "x1^2*x2*d[4,1] + 2*x1*x2^3*d[3,5] - d[8,0] + x2^4*d[0,2] + x1",
                   "--e", "2"]


# brackets with polynomial terms on both sides over Q, and over F_2 with
# leading binomials that vanish (C(2, 1) for x1*d1 against x1^3*d1)
BRACKETS = {
    "bracket_char0": ["--char", "0", "--nvars", "2", "bracket",
                      "x1^2*d[2,1] - 1/3*x2*d1 + x1^3",
                      "x2^2*d[1,1] + 2*x1*x2 - 3/2*d[0,2]"],
    "bracket_char2": ["--char", "2", "--nvars", "2", "bracket",
                      "x1*d1 + x1^2*x2*d[1,2] + x2^3",
                      "x1^3*d1 + x2*d[0,1] + x1*d[2,0]"],
}


def test_cli_golden_matrix_text():
    expected = (GOLDEN / "matrix_char3_e2.txt").read_text()
    assert run_cli(MATRIX_CHAR3_E2) == (0, expected, "")


@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_cli_golden_bracket_text(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_cli(BRACKETS[name]) == (0, expected, "")


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
        ("matrix_char3_e2.json", ["--json", *MATRIX_CHAR3_E2]),
        *((f"{name}.json", ["--json", *args]) for name, args in sorted(BRACKETS.items())),
    ],
)
def test_cli_golden_json(name, args):
    expected = (GOLDEN / name).read_text()
    code, out, _ = run_cli(args)
    assert code == 0
    assert out == expected
    json.loads(out)  # stays well-formed


def test_cli_output_is_byte_stable():
    args = ["--json", "normalize", "x1*d[1] + 1/3*d[2] - 2"]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second
