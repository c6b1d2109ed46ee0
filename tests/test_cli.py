"""The ``bseries`` command line tool, run as the process ``pyproject.toml`` declares."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_verify_prints_the_report_and_exits_on_the_expected_verdict():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("BSERIES_CATALOG", None)

    def run(*args):  # as the console script calls it: main() reads sys.argv
        cmd = [sys.executable, "-c", "import sys; from bseries.cli import main; sys.exit(main())", *args]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    # a record that verifies, at deep_quadratic's depth: the verdict its status implies
    done = run("verify", "conj6.1-111", "--digits", "150")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "conj6.1-111: PASS (status CONJECTURAL, expected PASS)"
    assert lines[1:4] == ["  tail mode: certified", "  terms: 6776", "  attempts: 1"]
    assert lines[4].startswith("  digits matched: ") and int(lines[4].split(": ")[1]) >= 150
    assert lines[5].startswith("  time: ") and lines[5].endswith(" s")
    # a CITED record with no certified tail is INCONCLUSIVE, not the PASS its status implies
    done = run("verify", "sec1-g1a")
    assert done.returncode == 1 and done.stdout.startswith("sec1-g1a: INCONCLUSIVE"), done.stdout
    # an unknown record and a bad command line
    assert run("verify", "no-such-record").returncode == 2
    assert run("verify", "sec1-z", "--digits", "0").returncode == 2
