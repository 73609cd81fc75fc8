#!/usr/bin/env python3
"""Unused and duplicated module-level imports, stdlib ``ast`` only.

The slice of ``ruff check`` (F401 / F811) that can run where neither
ruff nor mypy is installed: ``python tools/check_imports.py src/repro``
prints one ``path:line: message`` per finding and exits 1 if there is
any.  A name counts as used when the module reads it, lists it in
``__all__``, or carries ``# noqa: F401`` on its import line; a package
``__init__`` re-exports what it imports.  Imports inside functions are
not examined (the lazy ones are deliberate and may repeat).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple


def _module_imports(body, nested=False) -> Iterator[Tuple[str, int, bool]]:
    """``(bound name, line, nested)`` per import at module level,
    *nested* for the ones under a top-level ``if`` / ``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    yield bound, node.lineno, nested
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, field, []), True)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body, True)


def check_file(path: Path) -> List[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # __all__ = [...] names count as uses
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    findings, seen = [], {}
    for name, line, nested in _module_imports(tree.body):
        if "noqa: F401" in lines[line - 1]:
            continue
        if not nested and name in seen:
            findings.append(
                f"{path}:{line}: {name!r} already imported on line {seen[name]}"
            )
        seen.setdefault(name, line)
        if name not in used and path.name != "__init__.py":
            findings.append(f"{path}:{line}: {name!r} imported but unused")
    return findings


def check_tree(root: Path) -> List[str]:
    return [
        finding for path in sorted(root.rglob("*.py"))
        for finding in check_file(path)
    ]


if __name__ == "__main__":
    found = [f for arg in sys.argv[1:] or ["src/repro"]
             for f in check_tree(Path(arg))]
    print("\n".join(found) if found else "imports clean")
    sys.exit(1 if found else 0)
