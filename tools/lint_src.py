"""Static checks on the library source, run by CI and by the test suite.

Invalid input raises an lpifc.errors exception; an assert would vanish under
``python -O``, so the library has none.  A bug is signalled with
errors.InternalError, not with a raised AssertionError.  The CLI's stdout
and stderr bytes are pinned, so only cli.py writes them: the rest of the
library has no print call and no sys.stdout/stderr.  A cache in the library
has a bound, so no functools.cache and no lru_cache(maxsize=None).

Usage: python tools/lint_src.py [PACKAGE_DIR]   (default: src/lpifc)
Prints one line per finding and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import ast
import pathlib
import sys

DEFAULT_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lpifc"


def _unbounded_cache(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name == "cache" for a in node.names)
    if (isinstance(node, ast.Attribute) and node.attr == "cache"
            and isinstance(node.value, ast.Name) and node.value.id == "functools"):
        return True
    if not (isinstance(node, ast.Call) and "lru_cache" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))):
        return False
    maxsize = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in maxsize)


def finding(node: ast.AST, path: pathlib.Path) -> str | None:
    if isinstance(node, ast.Assert):
        return "assert statement"
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "AssertionError":
            return "raise AssertionError"
    if _unbounded_cache(node):
        return "unbounded cache"
    if path.name == "cli.py":
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        return "print call"
    if (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name) and node.value.id == "sys"):
        return f"sys.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
            alias.name in ("stdout", "stderr") for alias in node.names):
        return "import of sys.stdout or sys.stderr"
    return None


def findings(package: pathlib.Path) -> list[str]:
    return [f"{finding(node, path)} at {path}:{node.lineno}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if finding(node, path)]


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[0]) if argv else DEFAULT_PACKAGE
    found = findings(package)
    for where in found:
        print(where)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
