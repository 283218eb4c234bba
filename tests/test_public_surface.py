"""The public surface: every exported name resolves, the README quick start
runs, and no private helper is left without a caller."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ptsense

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ptsense"
MODULES = sorted(m.name for m in pkgutil.iter_modules(ptsense.__path__))


@pytest.mark.parametrize("module", ["ptsense"] + [f"ptsense.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    # perfbench's tracer calls getattr on each name of a module's __all__
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_resource_cutoff_names_are_gone():
    # xi and zeta have a value at every point, so no mask of defined points and no exception for
    # undefined ones is exported
    from ptsense import errors, metrology

    exported = set(ptsense.__all__) | set(metrology.__all__) | set(vars(errors))
    assert not {"resource_ratios", "UndefinedResourceMetrics"} & exported


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_orphaned_private_helpers():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    used = {name for tree in trees for name in _references(tree)}
    orphans = sorted(name for tree in trees for name in _private_definitions(tree) if name not in used)
    assert orphans == []
