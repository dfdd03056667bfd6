"""The CLI contract on every installed interpreter.

The interpreter running the tests, and each other Python from 3.10 on
that pyenv has installed (under ``$PYENV_ROOT/versions``, by default
``~/.pyenv/versions``), runs ``contract_check.py`` under ``python`` and
``python -O``.  The script rebuilds every golden and text report, so no
result may rest on an ``assert``.  Those interpreters need no pytest,
sympy or hypothesis: the script uses the standard library alone.  A
version that is not installed is skipped.  The running interpreter also
runs it under a fixed non-default ``PYTHONHASHSEED``, so no report may
depend on the iteration order of a set of strings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "contract_check.py"
MINORS = (10, 11, 12, 13, 14)


def interpreter(minor):
    """An installed Python 3.minor other than the running one, or None."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    running = os.path.realpath(sys.executable)
    found = [p for p in sorted(versions.glob(f"3.{minor}.*/bin/python")) if os.path.realpath(p) != running]
    return found[-1] if found else None


def check_contract(python, **variables):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), **variables)
    for flags in ([], ["-O"]):
        proc = subprocess.run([str(python), *flags, str(SCRIPT)], capture_output=True, text=True, env=env, timeout=300)
        lines = proc.stdout.splitlines()
        assert (proc.returncode, proc.stderr) == (0, ""), (python, flags, proc.stdout, proc.stderr)
        assert len(lines) == 1 and lines[0].endswith(", failed 0"), (python, flags, lines)


def test_contract_holds_on_running_interpreter():
    check_contract(sys.executable)


def test_contract_holds_under_fixed_hash_seed():
    check_contract(sys.executable, PYTHONHASHSEED="12345")


@pytest.mark.parametrize("minor", MINORS, ids=lambda m: f"3.{m}")
def test_contract_holds_on_other_interpreters(minor):
    python = interpreter(minor)
    if python is None:
        pytest.skip(f"no other Python 3.{minor} is installed")
    check_contract(python)
