"""The package's public surface."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import anoma
from anoma import _bands

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in anoma.__all__ if not hasattr(anoma, name)]
    assert not missing


def test_every_traced_layer_function_resolves():
    # bench/tracer.py patches these by name; a rename must not leave the
    # traced benchmark wrapping nothing
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, name in tracer.LAYER_FUNCTIONS:
        owner = importlib.import_module(module_name)
        if "." in name:
            cls_name, name = name.split(".")
            # the tracer patches methods in the class body itself
            owner = vars(getattr(owner, cls_name))
            found = name in owner
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append((module_name, name))
    assert not missing
    assert "to_dense" in vars(_bands.BandedMatrix)


# run in a fresh interpreter: what `import anoma.cli` loads, then the
# kernels behind the three LAPACK routines and the two banded solves
# against dense numpy, then what a later `import scipy.linalg` finds
STARTUP_CHILD = """
import json, sys
import anoma.cli
heavy = ["scipy", "scipy.linalg", "numpy.f2py", "numpy.testing"]
loaded = [name for name in heavy if name in sys.modules]
import numpy as np
from anoma import _bands
rng = np.random.default_rng(3)
n = 12
a = _bands.BandedMatrix(rng.normal(size=(4, n)), 2, 1)
s = a.matmul(a.T) + _bands.diagonal(np.full(n, float(n)))
sd, ad = s.to_dense(), a.to_dense()
logdet = bool(np.isclose(_bands.logdet2_sym_pd(s),
                         np.linalg.slogdet(sd)[1] / np.log(2.0)))
slogdet = _bands.slogdet2_general(a)
ref = np.linalg.slogdet(ad)
general_logdet = bool(slogdet[0] == ref[0] and np.isclose(
    slogdet[1], ref[1] / np.log(2.0)))
off = rng.uniform(-1.0, 1.0, size=n)
off[0] = 0.0
t = _bands.BandedMatrix(np.stack([off, np.full(n, 3.0), np.roll(off, -1)]),
                        1, 1)
inverse = bool(np.allclose(_bands.inverse_bands_tridiagonal(t, 0)[0],
                           np.diagonal(np.linalg.inv(t.to_dense()))))
still_unloaded = [name for name in heavy if name in sys.modules]
b = rng.normal(size=(n, 3))
solves = bool(np.allclose(_bands.solve_sym_pd(s, b), np.linalg.solve(sd, b))
              and np.allclose(_bands.solve_general(a, b),
                              np.linalg.solve(ad, b)))
import scipy.linalg
same = (scipy.linalg._flapack.dpbtrf is _bands._pbtrf
        and scipy.linalg.lapack.dgbtrf is _bands._gbtrf
        and scipy.linalg.lapack.dtbtrs is _bands._tbtrs)
print(json.dumps({"loaded": loaded, "still_unloaded": still_unloaded,
                  "logdet": logdet, "general_logdet": general_logdet,
                  "inverse": inverse, "solves": solves, "same": same}))
"""


def test_import_leaves_scipy_linalg_unloaded():
    env = dict(os.environ,
               PYTHONPATH=str(Path(anoma.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": [], "still_unloaded": [], "logdet": True,
        "general_logdet": True, "inverse": True, "solves": True,
        "same": True}
