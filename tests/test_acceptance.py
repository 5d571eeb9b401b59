"""The acceptance gate: one test per verification block.

Every block runs at its stated tolerance (all comparisons are exact integer
equality) through salient.acceptance, the same functions the CLI subcommand
``verify`` executes. Each test prints a one-line pass/fail verdict.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from salient import acceptance
from salient.errors import GuardExceeded


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in acceptance.CRITERIA],
    ids=[f"{num:02d}-{name}" for num, name, _ in acceptance.CRITERIA])
def test_acceptance(number, name, capsys):
    ok, message, seconds = acceptance.run_suite(name)
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d} {name}: {verdict} "
              f"({seconds:.1f}s) {message}")
    assert ok, f"criterion {number} ({name}): {message}"


def test_run_suite_reports_salient_errors(monkeypatch):
    def tripped_guard():
        raise GuardExceeded("orbit of 10 members exceeds limit 5")

    monkeypatch.setitem(acceptance.SUITES, "count-triple", tripped_guard)
    ok, message, _ = acceptance.run_suite("count-triple")
    assert not ok
    assert message == "orbit of 10 members exceeds limit 5"


def test_verify_fails_corrupted_table_under_optimize():
    # python -O strips assert statements; the suites must still fail
    script = ("import sys\n"
              "from salient import acceptance, cli\n"
              "assert False, 'asserts are live'\n"
              "acceptance.SINGLETON_SEQUENCE[6] += 1\n"
              "sys.exit(cli.main(['verify', '--suite', 'singletons']))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL  4 singletons: n=6: brute=90"), \
        proc.stdout
