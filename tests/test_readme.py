"""README drift: the CLI lines that README marks with ``# ->`` and its
library example run as written and give the values README states."""

import re
import shlex
from pathlib import Path

import pytest

from iterk.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(after: str, lang: str = "") -> str:
    """The body of the first fenced block after the text ``after``."""
    fence = re.compile(r"^```" + lang + r"\n(.*?)^```", re.S | re.M)
    return fence.search(README, README.index(after)).group(1)


CLI_LINES = [
    line for line in fenced_block("Maps come in as definition strings").splitlines()
    if "# ->" in line
]


def test_the_cli_block_has_six_checked_lines():
    if len(CLI_LINES) != 6:
        pytest.fail(f"expected 6 '# ->' lines in README's CLI block, got {CLI_LINES}")


@pytest.mark.parametrize("line", CLI_LINES, ids=lambda line: line.split()[1])
def test_cli_line(line, tmp_path, capsys):
    # the table lines read README's own addition-mod-3 table
    table = tmp_path / "mod3.tbl"
    table.write_text(fenced_block("Addition modulo 3 is:"))
    command, stated = line.split("# ->")
    want = re.split(r"[,;]", stated)[0].strip()  # the value, before any remark
    argv = [str(table) if a == "mod3.tbl" else a for a in shlex.split(command)]
    if argv[0] != "iterk":
        pytest.fail(f"not an iterk command: {line}")
    code = main(argv[1:])
    out = capsys.readouterr().out.strip()
    if (code, out) != (0, want):
        pytest.fail(f"{command.strip()}: exit {code}, printed {out!r}; README says {want!r}")


def test_library_example():
    namespace, checked = {}, 0
    for line in fenced_block("## Library example", "python").splitlines():
        code, _, comment = line.partition("#")
        if not comment.strip():
            exec(code, namespace)
            continue
        got, want = eval(code, namespace), eval(comment, {})
        if got != want:
            pytest.fail(f"{code.strip()} gives {got!r}; README says {comment.strip()}")
        checked += 1
    if checked != 3:
        pytest.fail(f"expected 3 stated values in the library example, checked {checked}")
