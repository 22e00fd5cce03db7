"""The package runs without networkx.

The install lines name numpy, pytest, pytest-benchmark and hypothesis only,
so every ``repro`` module must import in an interpreter where networkx
cannot be imported.  The one graph routine the package needs is
:func:`repro.graph.topological_order`; graph oracles live in
``tests/oracles.py`` and ``tests/test_lowering.py``, written without it.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Blocks networkx, then imports every module of the package.  Each module
#: is imported before ``walk_packages`` looks inside it, so an import error
#: surfaces here instead of being swallowed by the walk.
_IMPORT_ALL = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None
import repro
names = []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    names.append(info.name)
print(len(names))
"""


def test_every_module_imports_without_networkx():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout) > 50
    assert "networkx" not in completed.stderr
