"""Importing hydrovarx loads scipy.linalg and no other public scipy subpackage,
and exports exactly the names its ``__all__`` lists."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# scipy.linalg plus the modules any scipy import loads; private scipy._*
# modules are allowed too
ALLOWED = {"linalg", "__config__", "version"}


def test_import_loads_only_scipy_linalg():
    code = ("import sys, hydrovarx, hydrovarx.cli\n"
            "print('\\n'.join(m for m in sys.modules if m.startswith('scipy.')))")
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    subpackages = {name.split(".")[1] for name in out.split()}
    assert "linalg" in subpackages
    assert sorted(p for p in subpackages
                  if p not in ALLOWED and not p.startswith("_")) == []


def test_all_lists_each_public_name_once():
    import hydrovarx

    names = hydrovarx.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(hydrovarx, name) and not name.startswith("_")
               for name in names)
    # and every public name the package imports is listed
    public = {name for name, value in vars(hydrovarx).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(names)
