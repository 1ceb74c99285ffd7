"""Every module of the package uses every name it imports.

`__init__.py` re-exports the public API and is not checked. An import whose
line carries `noqa: F401` is kept on purpose (a name the layer tracer wraps
in that module) and is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mapfsat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import binds, with its line; `__future__` imports and
    names on a `noqa: F401` line are left out."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # `import a.b` binds `a`
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in string annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_no_module_imports_a_name_it_never_uses():
    assert {p.name for p in MODULES} >= {"encoding.py", "solvers.py", "diagrams.py"}
    unused = []
    for module in MODULES:
        source = module.read_text()
        tree = ast.parse(source)
        used = used_names(tree)
        unused += [f"{module.name}:{line} {name}"
                   for name, line in imported_names(tree, source.splitlines()).items()
                   if name not in used]
    assert unused == []
