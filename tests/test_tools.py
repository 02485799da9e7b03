"""The CI checks in tools/: the source lint and the golden-transcript replay,
run on this tree and on broken inputs that they must reject; the benchmark
margin report on synthetic records; and the check that every def and class
in the library has a caller outside the tests."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lpifc

ROOT = Path(__file__).resolve().parents[1]
LINT = str(ROOT / "tools" / "lint_src.py")
REPLAY = str(ROOT / "tools" / "replay_goldens.py")
MARGIN = str(ROOT / "tools" / "bench_margin.py")


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


# -- the benchmark margin report -----------------------------------------------------


def _record(workload, seed, passes, metrics, trace=0):
    """A result record as perfbench/run.py writes it, reduced to the fields
    the report reads."""
    return {"workload": workload, "seed": seed, "trace": trace,
            "passes": [{"wall_s": wall_s, "ref_ms": [2.8] * samples} for wall_s, samples in passes],
            "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}


def test_bench_margin_reports_each_record(tmp_path):
    metrics = {"wall_s": 0.66123456, "query_p50_ms": 78.8, "query_p95_ms": 405.5,
               "peak_rss_mb": 36.5, "setup_s": 0.3}
    first, second = tmp_path / "algebra-seed3-trace0.json", tmp_path / "queries-seed12-trace0.json"
    first.write_text(json.dumps(_record("algebra", 3, [(0.41, 3), (0.3912345, 2), (0.5, 4)], metrics)))
    # A run whose passes all failed reports no metric.
    second.write_text(json.dumps(_record("queries", 12, [], {})))
    run = run_python(MARGIN, str(first), str(second))
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        "workload  seed  passes  min_ref_samples  fastest_raw_pass_s  wall_s    query_p50_ms"
        "  query_p95_ms  peak_rss_mb  setup_s",
        "algebra   3     3       2                0.3912              0.661235  78.8          405.5"
        "         36.5         0.3",
        "queries   12    0       -                -                   -         -             -"
        "             -            -",
    ]


def test_bench_margin_rejects_a_traced_or_missing_record(tmp_path):
    traced = tmp_path / "algebra-seed1-trace1.json"
    traced.write_text(json.dumps(_record("algebra", 1, [], {}, trace=1)))
    assert run_python(MARGIN).returncode == 2
    for path in (traced, tmp_path / "missing.json"):
        run = run_python(MARGIN, str(path))
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr.startswith(f"error: {path}: ")


# -- dead code: a def or class that only tests call -------------------------------

WORD = re.compile(r"[A-Za-z_]\w*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree: ast.AST) -> Counter:
    """How often each name occurs in the tree: as a name, an attribute, an
    imported name, or a word of a string other than a docstring (the
    benchmark's tracer names functions in strings)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node) is not None}
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            uses.update(WORD.findall(node.value))
    return uses


def unreferenced_defs(package: Path, *others: Path) -> list[str]:
    """Each def or class in PACKAGE whose name occurs in PACKAGE and OTHERS
    only inside its own definition.  Dunder methods and lpifc.__all__ are
    exempt."""
    def parsed(root):
        return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(root.rglob("*.py"))]

    own = parsed(package)
    total = Counter()
    for _, tree in own + [pair for root in others for pair in parsed(root)]:
        total += _uses(tree)
    return [f"{node.name} at {path.name}:{node.lineno}"
            for path, tree in own for node in ast.walk(tree)
            if isinstance(node, DEFS) and not re.fullmatch(r"__\w+__", node.name)
            and node.name not in lpifc.__all__ and total[node.name] == _uses(node)[node.name]]


def test_every_library_def_has_a_caller_outside_the_tests():
    assert unreferenced_defs(ROOT / "src" / "lpifc", ROOT / "perfbench") == []


def test_dead_code_check_flags_a_def_that_only_calls_itself(tmp_path):
    package = tmp_path / "lpifc"
    shutil.copytree(ROOT / "src" / "lpifc", package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / "words.py"
    text = path.read_text()
    path.write_text(f'{text}\n\ndef _orphan(n):\n    """_orphan"""\n    return _orphan(n - 1)\n')
    assert unreferenced_defs(package, ROOT / "perfbench") == [
        f"_orphan at words.py:{text.count(chr(10)) + 3}"
    ]
