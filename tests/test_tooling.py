"""The import pass of ``tools/check_imports.py`` runs with tier-1, so a
stale import fails where the work is done (the build container has
neither ruff nor mypy; CI runs the same script before them)."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_imports", REPO / "tools" / "check_imports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_has_no_unused_or_duplicated_imports():
    assert _checker().check_tree(REPO / "src" / "repro") == []


def test_checker_finds_what_it_is_for(tmp_path):
    (tmp_path / "__init__.py").write_text("from os import path\n")
    (tmp_path / "module.py").write_text(
        "from __future__ import annotations\n"
        "import math, json\n"
        "import json\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Tuple\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    np = None\n"
        "__all__ = ['Tuple']\n"
        "def f(x: List[int]):\n"
        "    import math\n"
        "    return json.dumps(x), np\n"
    )
    findings = [
        line.split(": ", 1)[1] for line in _checker().check_tree(tmp_path)
    ]
    assert findings == [
        "'math' imported but unused",
        "'json' already imported on line 2",
    ]


def _imports(path):
    """``{module: {names}}`` of every import statement in *path*
    (``import x`` records ``{x: set()}``)."""
    import ast

    found = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            found.setdefault(node.module, set()).update(
                alias.name for alias in node.names
            )
    return found


def test_only_the_storage_module_knows_the_layout():
    # The kernels define Segment / Columns and read through them; the
    # storage module builds them.  Nothing flows the other way, apart
    # from the one function the fan-out's workers re-map a shard with.
    source = REPO / "src" / "repro"
    storage = {"repro.ads.storage", "repro.ads.index"}
    for name in ("pure.py", "np_kernel.py", "__init__.py"):
        imports = _imports(source / "ads" / "kernels" / name)
        assert not storage & set(imports), name
        assert not {"storage", "index"} & imports.get("repro.ads", set())
    parallel = _imports(source / "ads" / "kernels" / "parallel.py")
    assert parallel["repro.ads.storage"] == {"map_file_columns"}
    assert "repro.ads.index" not in parallel
    mappers = [
        str(path.relative_to(source))
        for path in sorted(source.rglob("*.py"))
        if "mmap" in _imports(path)
    ]
    assert mappers == ["ads/storage.py"]
    assert not (source / "ads" / "mmap_io.py").exists()
