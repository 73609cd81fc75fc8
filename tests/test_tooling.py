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
