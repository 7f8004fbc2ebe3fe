import importlib
import os
import pkgutil
import subprocess
import sys
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


# Runs in a fresh interpreter: the test process has imported verify already.
_LAZY_RUN = """
import sys
import gainregion

assert "gainregion.verify" not in sys.modules
lazy = {name: getattr(gainregion, name) for name in (
    "null_constraints", "projected_mrt", "two_user_combination", "verify_gain_equivalence")}
from gainregion import verify

for name, value in lazy.items():
    assert value is getattr(verify, name), name
"""


def test_nullshape_names_resolve_before_nullshape_is_imported():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _LAZY_RUN], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
