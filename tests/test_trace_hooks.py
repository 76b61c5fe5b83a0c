"""The benchmark's ``--trace 1`` hooks name real functions, reached through the names they patch.

``bench/traced.py`` replaces each hook with ``t.patch(owner, "name", ...)``.  A
hook that no longer exists, or that its module reaches through an alias or an
attribute instead of its own global name, would silently drop that layer's
spans; these tests read the patch calls with ``ast`` and check both.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def _patches() -> list[tuple[str, str]]:
    """(owner, hook name) of every ``t.patch(owner, "name", ...)`` in ``bench/traced.py``."""
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    return [
        (ast.unparse(node.args[0]), node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "patch"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "t"
    ]


PATCHES = _patches()


def _names_in_calls(path: Path) -> set[str]:
    """Bare names a module calls, or passes to a call, e.g. ``f(x)`` and ``g(f, x)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            for expr in (node.func, *node.args):
                if isinstance(expr, ast.Name):
                    names.add(expr.id)
    return names


def test_patch_calls_found():
    assert ("cli", "find_mono_triples") in PATCHES
    assert ("sumset", "all_colourings_forced") in PATCHES
    assert ("verifier.TripleReport", "describe") in PATCHES


@pytest.mark.parametrize("owner, name", PATCHES, ids=[f"{o}.{n}" for o, n in PATCHES])
def test_hook_exists_and_is_reached_by_its_name(owner, name):
    module_name, *attrs = owner.split(".")
    module = importlib.import_module(f"fourfree.{module_name}")
    target = module
    for attr in attrs:
        target = getattr(target, attr)
    assert callable(getattr(target, name, None)), f"{owner}.{name} does not exist"
    if not attrs:
        # the wrapper replaces the module global, so the module must look it up by that name
        assert name in _names_in_calls(Path(module.__file__)), f"{owner} never calls {name} by name"
