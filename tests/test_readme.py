"""The command-line examples in README.md, run and checked line by line."""

import re
import shlex
from pathlib import Path

import pytest

from opfold import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(command, expected lines, prefix only) per `opfold ...` line of the
    README's text blocks; a block that ends in `...` shows a prefix."""
    out = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(),
                            re.MULTILINE | re.DOTALL):
        lines = block.splitlines()
        truncated = lines[-1] == "..."
        if truncated:
            lines.pop()
        starts = [i for i, line in enumerate(lines)
                  if line.startswith("opfold ")]
        for start, end in zip(starts, starts[1:] + [len(lines)]):
            shown = lines[start + 1:end]
            while shown and not shown[-1]:
                shown.pop()
            out.append((lines[start], shown,
                        truncated and end == len(lines)))
    return out


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 5
    assert EXAMPLES[-1][2]  # the density example shows its first rows only


@pytest.mark.parametrize("command, shown, prefix", EXAMPLES,
                         ids=[e[0] for e in EXAMPLES])
def test_readme_example(command, shown, prefix, capsys, monkeypatch):
    monkeypatch.delenv("OPFOLD_SEED", raising=False)
    rc = cli.main(shlex.split(command)[1:])
    printed = capsys.readouterr().out.splitlines()
    assert rc == 0
    if prefix:
        printed = printed[:len(shown)]
    assert printed == shown
