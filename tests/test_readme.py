import re
from pathlib import Path

import pytest

from salient import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _cookbook_lines():
    """(argv, expected stdout) for each `salient ...` line of the README
    whose comment starts with integers, such as `# 1 1 1 6 216`."""
    out = []
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"salient (.+?)\s+# ((?:\d+\b[ ,]*)+).*", line)
        if match:
            numbers = re.findall(r"\d+", match.group(2))
            out.append((match.group(1).split(), " ".join(numbers) + "\n"))
    return out


COOKBOOK = _cookbook_lines()


def test_the_cookbook_has_its_checked_lines():
    assert len(COOKBOOK) == 12


@pytest.mark.parametrize("argv, expected", COOKBOOK,
                         ids=[" ".join(argv) for argv, _ in COOKBOOK])
def test_cookbook_line(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
