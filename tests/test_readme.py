import importlib
import re
from pathlib import Path

import pytest

import salient
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


def test_every_dotted_name_in_the_readme_resolves():
    # each `module.name`, `Class.method` and `salient.module` the README
    # quotes must exist, so a deleted or renamed helper cannot stay
    # documented; the compiled twin salient._ckernels may be unbuilt
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                       README.read_text(encoding="utf-8"))
    assert len(names) > 20
    missing = []
    for name in names:
        head, *rest = name.removeprefix("salient.").split(".")
        try:
            holder = (getattr(salient, head, None) if head[0].isupper()
                      else importlib.import_module(f"salient.{head}"))
        except ImportError:
            if head != "_ckernels":
                missing.append(name)
            continue
        for part in rest:
            holder = getattr(holder, part, None)
        if holder is None:
            missing.append(name)
    assert missing == []
