"""The examples in README.md, run: each ``$ weylops ...`` line of a ``sh``
block against the lines printed under it, and the library example against
the comment on each ``print`` line (the text before two spaces); and the
public-surface table against ``weylops.__all__``."""

import contextlib
import importlib
import io
import pathlib
import re
import shlex

import weylops
from conftest import run_cli

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _cli_examples():
    """(argv, expected stdout) of each ``$ weylops`` line."""
    out = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            if command.startswith("weylops "):
                out.append((shlex.split(command)[1:], printed))
    return out


def test_cli_examples_match():
    examples = _cli_examples()
    assert len(examples) >= 6
    for argv, printed in examples:
        assert run_cli(argv) == (0, printed, ""), argv


def test_library_example_matches():
    (code,) = [b for b in _blocks("python") if "print(" in b]
    expected = [line.split("# ", 1)[1].split("  ")[0]
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_public_surface_table_is_all():
    section = README.split("## Public surface\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert names == weylops.__all__
    for name in names:
        module = re.search(rf"^\| `{name}` \| `(\w+)` \|", section, re.M).group(1)
        assert name in vars(importlib.import_module(f"weylops.{module}")), name
