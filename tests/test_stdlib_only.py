"""The package imports nothing outside the standard library, and its
modules import one another only down a fixed order of layers."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "compoundbasis"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _absolute_imports(path)
        if module not in sys.stdlib_module_names and module != "compoundbasis"
    ]
    assert foreign == []


# Each module may import only the modules before it.
LAYERS = ("partitions", "symfunc", "transition", "golden", "verify", "cli")


def _relative_imports(path: Path):
    """Every ``from .x import ...`` in the file, function-local ones included;
    ``from . import ...`` yields the package root as ``""``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.lineno, node.module or ""


def test_modules_import_down_the_layers():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    upward = [
        f"{name}.py:{line}: {target or 'compoundbasis'}"
        for rank, name in enumerate(LAYERS)
        for line, target in _relative_imports(SRC / f"{name}.py")
        if target not in LAYERS[:rank] and not (name == "cli" and target == "")
    ]
    assert upward == []
