"""Every module of the package imports cleanly when it is the first one imported."""

import os
import subprocess
import sys
from pathlib import Path

import tsgan

# Run in a fresh interpreter: for each module, forget every tsgan module, then
# import that one first. An import cycle shows only for some entry points, so
# a test session that happens to import the package in a lucky order hides it.
_PROBE = """
import importlib, pkgutil, sys
import tsgan
names = ["tsgan", *(m.name for m in pkgutil.walk_packages(tsgan.__path__, "tsgan."))]
for name in names:
    for loaded in [k for k in sys.modules if k == "tsgan" or k.startswith("tsgan.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as e:
        print(f"{name}: {type(e).__name__}: {e}")
print(len(names), "modules")
"""


def test_every_module_imports_first():
    package = Path(tsgan.__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    result = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    *failures, count = result.stdout.splitlines()
    assert failures == []
    assert count == f"{len(list(package.rglob('*.py')))} modules"  # one per source file
