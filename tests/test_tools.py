"""The CI checks in tools/: the source lint and the golden-transcript replay,
run on this tree and on broken inputs that they must reject."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINT = str(ROOT / "tools" / "lint_src.py")
REPLAY = str(ROOT / "tools" / "replay_goldens.py")


def run_python(*args, env=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_lint_passes_on_this_tree():
    run = run_python(LINT)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


@pytest.mark.parametrize(
    "module, line, found",
    [
        ("linalg.py", "assert True", "assert statement"),
        ("linalg.py", "raise AssertionError('bug')", "raise AssertionError"),
        ("words.py", "print('x')", "print call"),
        ("words.py", "sys.stderr.write('x')", "sys.stderr"),
        ("words.py", "from sys import stdout", "import of sys.stdout or sys.stderr"),
        ("cli.py", "assert True", "assert statement"),
        ("words.py", "_f = functools.cache(len)", "unbounded cache"),
        ("cli.py", "from functools import cache", "unbounded cache"),
        ("search.py", "@lru_cache(maxsize=None)\ndef f(): pass", "unbounded cache"),
        ("laurent.py", "_f = functools.lru_cache(None)(len)", "unbounded cache"),
    ],
)
def test_lint_fails_on_a_copy_with_one_finding(tmp_path, module, line, found):
    package = tmp_path / "lpifc"
    shutil.copytree(ROOT / "src" / "lpifc", package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    text = path.read_text()
    path.write_text(f"{text}\n{line}\n")
    run = run_python(LINT, str(package))
    assert run.returncode == 1
    assert run.stdout == f"{found} at {path}:{text.count(chr(10)) + 2}\n"


def test_lint_allows_output_in_cli(tmp_path):
    package = tmp_path / "lpifc"
    shutil.copytree(ROOT / "src" / "lpifc", package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / "cli.py"
    path.write_text(path.read_text() + "\nprint('x')\nsys.stdout.write('x')\n")
    assert run_python(LINT, str(package)).returncode == 0


def test_replay_goldens_through_the_module():
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = run_python(REPLAY, sys.executable, "-m", "lpifc.cli", env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_replay_goldens_rejects_a_wrong_command():
    run = run_python(REPLAY, sys.executable, "-c", "print('not lpifc')")
    assert run.returncode == 1
    assert "differs from its golden transcript" in run.stdout
    assert run_python(REPLAY).returncode == 2
