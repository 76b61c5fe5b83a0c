"""Every narrative demo runs to completion, and the package exports what they use."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fourfree

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _top_level_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "fourfree"
        for alias in node.names
    }


def test_package_exports_exactly_what_demos_and_readme_import():
    used = set()
    for demo in DEMOS:
        used |= _top_level_imports(demo.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _top_level_imports(block)
    assert set(fourfree.__all__) == used
    # the exports load lazily: each resolves to an object, none is bound but these
    assert not any(isinstance(getattr(fourfree, name), types.ModuleType) for name in fourfree.__all__)
    bound = {
        name
        for name, value in vars(fourfree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= used
    # and importing the package alone loads none of its submodules
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, fourfree; print(sorted(m for m in sys.modules if m.startswith('fourfree.')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
