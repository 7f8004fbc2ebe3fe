import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gainregion

MODULES = ["gainregion"] + [
    f"gainregion.{info.name}" for info in pkgutil.iter_modules(gainregion.__path__)
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_library_modules_declare_their_exports():
    assert set(MODULES) - set(EXPORTING) == {"gainregion.cli"}


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


ROOT = Path(__file__).resolve().parents[1]
SCANNED = [path for part in ("src/gainregion", "tests", "tools")
           for path in sorted((ROOT / part).glob("*.py"))]


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names the module imports and never reads, apart from ``__future__``
    imports and the names its ``__all__`` lists."""
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= {c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(imported - read - exported)


def test_every_imported_name_is_read():
    unread = {}
    for path in SCANNED:
        names = _unread_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}
