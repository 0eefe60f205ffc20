"""Importing hydrovarx loads LAPACK's compiled ``scipy.linalg._flapack`` and
no public scipy subpackage, not even ``scipy.linalg``, and exports exactly
the names its ``__all__`` lists."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the modules any scipy import loads; private scipy._* modules are allowed too
ALLOWED = {"__config__", "version"}
FLAPACK = "scipy.linalg._flapack"
# what importing the scipy.linalg package brings in
NOT_LOADED = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py",
              "numpy.testing", "numpy.ma")


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports from ``src``; its stdout."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_only_scipy_linalg():
    modules = set(run_python("import sys, hydrovarx, hydrovarx.cli\n"
                             "print('\\n'.join(sys.modules))").split())
    assert FLAPACK in modules
    assert [name for name in NOT_LOADED if name in modules] == []
    subpackages = {name.split(".")[1] for name in modules - {FLAPACK}
                   if name.startswith("scipy.")}
    assert sorted(p for p in subpackages
                  if p not in ALLOWED and not p.startswith("_")) == []


def test_dposv_comes_from_flapack_and_is_shared_with_scipy_linalg():
    # the direct load is taken here, so the short cold start cannot vanish
    # silently, and a later scipy.linalg import reuses the module
    run_python("import sys\n"
               "from hydrovarx import solver\n"
               "assert 'scipy.linalg' not in sys.modules\n"
               f"flapack = sys.modules[{FLAPACK!r}]\n"
               "assert solver.dposv is flapack.dposv\n"
               "import scipy.linalg.lapack\n"
               f"assert sys.modules[{FLAPACK!r}] is flapack\n"
               "assert solver.dposv is scipy.linalg.lapack.dposv\n")


def test_a_failed_direct_load_falls_back_to_the_same_routine_and_bits(tmp_path):
    fit = ("import hashlib, sys\n"
           "import numpy as np\n"
           "from hydrovarx import (LagSpec, Penalty, SynthSpec, build_design,\n"
           "                       fit, simulate, solver)\n"
           "print('scipy.linalg' in sys.modules)\n"
           "import scipy.linalg.lapack\n"
           "print(solver.dposv is scipy.linalg.lapack.dposv)\n"
           "frame, _ = simulate(SynthSpec(\n"
           "    n=400, phi=np.array([[[0.5, 0.2], [0.1, 0.4]]]),\n"
           "    beta=np.array([[[0.3], [0.0]]]), seed=3))\n"
           "model = fit(build_design(frame, LagSpec(3, 2)), Penalty(1.0, 0.5))\n"
           "print(hashlib.sha256(model.coeffs.tobytes() + model.nu.tobytes()\n"
           "                     + model.scaled_coeffs.tobytes()).hexdigest(),\n"
           "      model.n_iter, model.support)\n")
    # the direct load looks in scipy's first package directory, an empty one
    # here; scipy's own import searches on and finds the file
    broken = f"import scipy\nscipy.__path__.insert(0, {str(tmp_path)!r})\n"
    direct = run_python(fit).splitlines()
    fallback = run_python(broken + fit).splitlines()
    assert direct[:2] == ["False", "True"]
    assert fallback[:2] == ["True", "True"]  # the public import ran
    assert fallback[2] == direct[2]


def test_the_loader_registers_nothing_when_the_file_is_missing(monkeypatch, tmp_path):
    import scipy.linalg.lapack
    from hydrovarx.solver import _flapack_dposv

    monkeypatch.delitem(sys.modules, FLAPACK)
    assert _flapack_dposv(str(tmp_path)) is scipy.linalg.lapack.dposv
    assert FLAPACK not in sys.modules


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
