import importlib
import pkgutil

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
