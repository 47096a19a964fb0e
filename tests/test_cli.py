"""The CLI's argument reader: click's wording and order of checks for every
command, the modules a start loads, and a closed stdout."""

import os
import pathlib
import subprocess
import sys

import pytest

import weylops.cli
from conftest import run_cli

GROUP_FILE = str(pathlib.Path(__file__).parent / "golden" / "group_sign.json")
G = ["--nvars", "2", "group", "--group", GROUP_FILE]
LEVEL_1 = "level 1 matrix, size 3, basis [(0,), (1,), (2,)]\n"
ARTINIAN_2 = ("algebra dimension 2, basis of 2 monomials\n"
              "filtration dims: 2 3 4 (stable at order 2)\nsocle pairing:\n  0 1\n  1 0\n")


def ok(out):
    return 0, out, ""


def usage(message):
    return 1, "", f"usage error: {message}\n"


def extra(*args):
    return usage(f"Got unexpected extra argument{'s' * (len(args) > 1)} ({' '.join(args)})")


def bad_int(option, value):
    return usage(f"Invalid value for {option!r}: {value!r} is not a valid integer.")


# per command: an option before and after the expression, --opt=value, "--"
# then "-d[1]", a missing argument or option, an extra argument, an unknown
# option (taken as an expression, so extra or a parse error, where the command
# reads one) and a bad integer; the answers are click's
PARITY = {
    "normalize": [
        (["--char", "2", "normalize", "2*d1 + x1"], ok("x1\n")),
        (["normalize", "2*d1 + x1", "--char", "2"], extra("--char", "2")),
        (["--char=2", "normalize", "2*d1 + x1"], ok("x1\n")),
        (["normalize", "--", "-d[1]"], ok("-d[1]\n")),
        (["normalize"], usage("Missing argument 'EXPR'.")),
        (["normalize", "d1", "x1"], extra("x1")),
        (["normalize", "d1", "--bogus"], extra("--bogus")),
        (["normalize", "--bogus"],
         (2, "", "parse error: unknown identifier 'bogus' (line 1, column 3)\n")),
        (["--char", "two", "normalize", "d1"], bad_int("--char", "two")),
    ],
    "apply": [
        (["apply", "d[2]", "--to", "x1^4"], ok("6*x1^2\n")),
        (["apply", "--to", "x1^4", "d[2]"], ok("6*x1^2\n")),
        (["apply", "d[2]", "--to=x1^4"], ok("6*x1^2\n")),
        (["apply", "--to", "x1", "--", "-d[1]"], ok("-1\n")),
        (["apply", "--to", "x1"], usage("Missing argument 'EXPR'.")),
        (["apply", "d1"], usage("Missing option '--to'.")),
        (["apply", "d1", "--to", "x1", "x2"], extra("x2")),
        (["apply", "d1", "--to", "x1", "--bogus"], extra("--bogus")),
        (["apply", "d1", "--to"], usage("Option '--to' requires an argument.")),
        (["--nvars", "two", "apply", "d1", "--to", "x1"], bad_int("--nvars", "two")),
    ],
    "transpose": [
        (["transpose", "d1", "--twist", "x1^2"], ok("-d[1] + x1^2\n")),
        (["transpose", "--twist", "x1^2", "d1"], ok("-d[1] + x1^2\n")),
        (["transpose", "d1", "--twist=x1^2"], ok("-d[1] + x1^2\n")),
        (["transpose", "--twist", "x1^2", "--", "-d[1]"], ok("d[1] - x1^2\n")),
        (["transpose"], usage("Missing argument 'EXPR'.")),
        (["transpose", "d1", "x1"], extra("x1")),
        (["transpose", "d1", "--twisted", "x1"], extra("--twisted", "x1")),
        (["--nvars=two", "transpose", "d1"], bad_int("--nvars", "two")),
    ],
    "order": [
        (["--json", "order", "d[3]"],
         ok('{\n  "schema": "weyl-op/1",\n  "kind": "order",\n  "value": 3\n}\n')),
        (["order", "d[3]", "--json"], extra("--json")),
        (["order", "--", "-d[1]"], ok("1\n")),
        (["order"], usage("Missing argument 'EXPR'.")),
        (["order", "d1", "x1"], extra("x1")),
        (["order", "d1", "--bogus"], extra("--bogus")),
        (["--nvars", "1.5", "order", "d1"], bad_int("--nvars", "1.5")),
    ],
    "level": [
        (["--char", "2", "level", "d[2]"], ok("2\n")),
        (["level", "d[2]", "--char", "2"], extra("--char", "2")),
        (["--char=2", "level", "--", "-d[2]"], ok("2\n")),
        (["--char", "2", "level"], usage("Missing argument 'EXPR'.")),
        (["--char", "2", "level", "d1", "x1"], extra("x1")),
        (["--char", "2", "level", "d1", "--bogus"], extra("--bogus")),
        (["--char", "", "level", "d1"], bad_int("--char", "")),
    ],
    "bracket": [
        (["--char", "2", "bracket", "d[2]", "x1^3"], ok("x1^2*d[1] + x1\n")),
        (["bracket", "d1", "x1", "--char", "2"], extra("--char", "2")),
        (["bracket", "--", "-d[1]", "-x1"], ok("1\n")),
        (["bracket"], usage("Missing argument 'LEFT'.")),
        (["bracket", "d1"], usage("Missing argument 'RIGHT'.")),
        (["bracket", "d1", "x1", "x2"], extra("x2")),
        (["bracket", "d1", "x1", "--bogus"], extra("--bogus")),
        (["--char", "3.0", "bracket", "d1", "x1"], bad_int("--char", "3.0")),
    ],
    "matrix": [
        (["--char", "3", "matrix", "d[1]", "--e", "1"],
         ok(LEVEL_1 + "[0]: 0  1  0\n[1]: 0  0  2\n[2]: 0  0  0\n")),
        (["--char", "3", "matrix", "--e", "1", "d[1]"],
         ok(LEVEL_1 + "[0]: 0  1  0\n[1]: 0  0  2\n[2]: 0  0  0\n")),
        (["--char", "3", "matrix", "d[1]", "--e=1"],
         ok(LEVEL_1 + "[0]: 0  1  0\n[1]: 0  0  2\n[2]: 0  0  0\n")),
        (["--char", "3", "matrix", "--e", "1", "--", "-d[1]"],
         ok(LEVEL_1 + "[0]: 0  2  0\n[1]: 0  0  1\n[2]: 0  0  0\n")),
        (["--char", "3", "matrix", "--e", "1"], usage("Missing argument 'EXPR'.")),
        (["--char", "3", "matrix", "d[1]"], usage("Missing option '--e'.")),
        (["--char", "3", "matrix", "d[1]", "x1", "--e", "1"], extra("x1")),
        (["--char", "3", "matrix", "d[1]", "--e", "1", "--bogus"], extra("--bogus")),
        (["--char", "3", "matrix", "d[1]", "--e", "one"], bad_int("--e", "one")),
        (["--char", "3", "matrix", "d[1]", "--e"], usage("Option '--e' requires an argument.")),
    ],
    "artinian": [
        (["artinian", "--exponents", "2"], ok(ARTINIAN_2)),
        (["artinian", "--exponents=2"], ok(ARTINIAN_2)),
        (["artinian", "--exponents", "2", "--char", "2"], usage("No such option '--char'.")),
        (["artinian", "--exponents", "2", "--", "-d[1]"], extra("-d[1]")),
        (["artinian"], usage("Missing option '--exponents'.")),
        (["artinian", "--exponents", "2", "x"], extra("x")),
        (["artinian", "--bogus"], usage("No such option '--bogus'.")),
        (["artinian", "-d[1]"], usage("No such option '-d'.")),
        (["artinian", "--exponents", "two"], (2, "", "parse error: bad exponent list 'two'\n")),
        (["--char", "two", "artinian", "--exponents", "2"], bad_int("--char", "two")),
    ],
    "group": [
        (G + ["pseudoreflections"], ok("0 pseudoreflection(s)\n")),
        (["--nvars", "2", "group", f"--group={GROUP_FILE}", "pseudoreflections"],
         ok("0 pseudoreflection(s)\n")),
        (G + ["--", "pseudoreflections"], ok("0 pseudoreflection(s)\n")),
        (["group", "pseudoreflections"], usage("Missing option '--group'.")),
        (G, usage("Missing command.")),
        (G + ["nosuch"], usage("No such command 'nosuch'.")),
        (["group", "--bogus"], usage("No such option '--bogus'.")),
        (["group", "--group"], usage("Option '--group' requires an argument.")),
        (["--nvars", "2.0", "group", "--group", GROUP_FILE, "pseudoreflections"],
         bad_int("--nvars", "2.0")),
    ],
    "group pseudoreflections": [
        (["--json", *G, "pseudoreflections"],
         ok('{\n  "schema": "weyl-op/1",\n  "kind": "pseudoreflections",\n'
            '  "count": 0,\n  "elements": []\n}\n')),
        (G + ["pseudoreflections", "--json"], usage("No such option '--json'.")),
        (G + ["pseudoreflections", "--", "-d[1]"], extra("-d[1]")),
        (G + ["pseudoreflections", "x"], extra("x")),
        (G + ["pseudoreflections", "--bogus"], usage("No such option '--bogus'.")),
    ],
    "group invariant-check": [
        (["--json", *G, "invariant-check", "x1"],
         ok('{\n  "schema": "weyl-op/1",\n  "kind": "invariant",\n  "value": false\n}\n')),
        (G + ["invariant-check", "x1", "--json"], extra("--json")),
        (G + ["invariant-check", "--", "-x1*d[1,0]"], ok("true\n")),
        (G + ["invariant-check"], usage("Missing argument 'EXPR'.")),
        (G + ["invariant-check", "x1", "x2"], extra("x2")),
        (G + ["invariant-check", "x1", "--bogus"], extra("--bogus")),
        (G + ["invariant-check", "--bogus"],
         (2, "", "parse error: unknown identifier 'bogus' (line 1, column 3)\n")),
    ],
    "group reynolds": [
        (["--nvars=2", "group", "--group", GROUP_FILE, "reynolds", "x1*d[1,0] + x1"],
         ok("x1*d[1,0]\n")),
        (G + ["reynolds", "x1", "--json"], extra("--json")),
        (G + ["reynolds", "--", "-x1*d[1,0]"], ok("-x1*d[1,0]\n")),
        (G + ["reynolds"], usage("Missing argument 'EXPR'.")),
        (G + ["reynolds", "x1", "x2"], extra("x2")),
        (G + ["reynolds", "x1", "--bogus"], extra("--bogus")),
        (["--nvars", "x", *G[2:], "reynolds", "x1"], bad_int("--nvars", "x")),
    ],
}
# the options each command's --help must name
HELP_OPTIONS = {
    "": ["--char", "--nvars", "--vars", "--json"], "apply": ["--to"],
    "transpose": ["--twist"], "matrix": ["--e"], "artinian": ["--exponents"],
    "group": ["--group"],
}


def test_parity_table_covers_every_command():
    paths = {f"group {name}" for name in weylops.cli.COMMANDS["group"][3]}
    assert set(PARITY) == set(weylops.cli.COMMANDS) | paths


@pytest.mark.parametrize("path", sorted(PARITY))
def test_cli_reads_arguments_as_click_did(path):
    for args, expected in PARITY[path]:
        assert run_cli(args) == expected, args


@pytest.mark.parametrize("path", ["", *sorted(PARITY)])
def test_cli_help_names_every_option(path):
    words = path.split()
    args = G + words[1:] if words[:1] == ["group"] else G[:2] + words
    code, out, err = run_cli(args + ["--help"])
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["Usage: weylops", *words, "[OPTIONS]"]))
    for option in HELP_OPTIONS.get(path, []) + ["--help"]:
        assert f"\n  {option} " in out, option


def test_cli_whole_command_cases():
    code, out, err = run_cli([])
    assert (code, out) == (1, "") and err.startswith("usage error: Usage: weylops [OPTIONS]")
    assert run_cli(["group", "--group", GROUP_FILE]) == usage("Missing command.")
    # a misspelled option alone is read as the expression
    assert run_cli(["normalize", "--jsn"]) == (
        2, "", "parse error: unknown identifier 'jsn' (line 1, column 3)\n")


def test_cli_interrupt_exits_1(monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(weylops.cli, "parse_operator", interrupted)
    assert run_cli(["normalize", "d1"]) == (1, "", "\n")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def test_cli_import_loads_only_the_standard_library():
    # a .pth file may load third-party modules at start; only what the import
    # adds is checked against the standard library
    code = ("import sys; before = set(sys.modules); import weylops.cli; "
            "print(' '.join(sorted(sys.modules))); print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, added = (line.split() for line in done.stdout.splitlines())
    assert not {"click", "dataclasses", "inspect"} & set(loaded)
    allowed = set(sys.stdlib_module_names) | set(sys.builtin_module_names) | {"weylops"}
    assert [name for name in added if name.split(".")[0] not in allowed] == []


def test_cli_closed_stdout_exits_1_quietly():
    # an 81 x 81 matrix written to a pipe whose reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylops.cli", "--nvars", "2", "--char", "3", "matrix",
         "d[1,1]", "--e", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
