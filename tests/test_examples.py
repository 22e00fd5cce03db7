"""The shipped examples cannot rot.

``examples/custom_pass.py`` runs end to end (it is the quick one: one
scenario); every other example is imported without running its ``main``,
so a public name it uses that disappears fails here.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
IMPORTED = sorted(path for path in EXAMPLES_DIR.glob("*.py")
                  if path.name != "custom_pass.py")


def test_custom_pass_runs_end_to_end(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "custom_pass.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "custom pass ran" in out
    assert "pipeline profile (ecg-wearable)" in out
    assert "path-feasibility" in out


@pytest.mark.parametrize("path", IMPORTED, ids=lambda path: path.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example_import")
    assert callable(namespace.get("main"))
