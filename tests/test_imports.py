"""Each module imports first in a fresh interpreter, so no import cycle hides
behind the order in which the other tests happen to import them."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = ["colline"] + sorted(
    f"colline.{name[:-3]}"
    for name in os.listdir(os.path.join(SRC, "colline"))
    if name.endswith(".py") and name != "__init__.py"
)


def test_every_module_is_listed():
    assert {"colline.engine", "colline.predicates", "colline.serialize"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
