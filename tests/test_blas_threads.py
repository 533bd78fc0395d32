"""One OpenBLAS thread in every musel process.

``import musel`` sets numpy's bundled OpenBLAS to one thread
(``musel._accel``), so no output depends on ``OPENBLAS_NUM_THREADS`` or on
the core count.  The runs below are at the paper's p = 500: one and two
threads give different last bits there, while at the reduced preset's
p = 120 they happen to agree, so a smaller run could not see the problem.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
LIBS = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
OPENBLAS = ([os.path.join(LIBS, f) for f in sorted(os.listdir(LIBS)) if "openblas" in f]
            if os.path.isdir(LIBS) else [])

# prints the thread count of the OpenBLAS at argv[1] before and after
# `import musel`; with argv[2], musel looks for numpy.libs beside it instead
PROBE = """
import ctypes, sys
import numpy
lib = ctypes.CDLL(sys.argv[1])
get = next(getattr(lib, f) for f in ("scipy_openblas_get_num_threads64_",
                                     "openblas_get_num_threads64_",
                                     "openblas_get_num_threads")
           if hasattr(lib, f))
get.argtypes, get.restype = [], ctypes.c_int
before = get()
if len(sys.argv) > 2:
    numpy.__file__ = sys.argv[2]
import musel
print(before, get())
"""


def _python(args, threads):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True).stdout


def _threads(*args):
    before, after = _python(["-c", PROBE, OPENBLAS[0], *args], 2).split()
    return int(before), int(after)


@pytest.mark.skipif(not OPENBLAS, reason="numpy bundles no OpenBLAS")
class TestOneThread:
    def test_import_sets_one_thread(self):
        assert _threads()[1] == 1

    def test_no_openblas_found_changes_nothing(self, tmp_path):
        libs = tmp_path / "numpy.libs"
        libs.mkdir()
        (libs / "libother.so").write_bytes(b"")
        (libs / "libopenblas_not_a_library.so").write_bytes(b"")
        before, after = _threads(str(tmp_path / "numpy" / "__init__.py"))
        assert after == before


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reps": 3, "delta_list": [0.0, 0.1]}))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"table1-{threads}.csv"
        _python(["-m", "musel.cli", "simulate", "--preset", "table1",
                 "--seed", "1", "--config", str(config), "--out", str(out),
                 "--raw"], threads)
        outputs.append((out.read_bytes(),
                        (tmp_path / f"table1-{threads}.csv.raw.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_estimate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a masked 100 x 500 design whose Dantzig estimate differed in its last
    # bits between one and two threads before the rule
    rng = np.random.default_rng([77, 2])
    X = rng.standard_normal((100, 500))
    X -= X.mean(axis=0)
    X /= np.sqrt((X ** 2).mean(axis=0))
    theta = np.zeros(500)
    theta[rng.choice(500, 2, replace=False)] = 0.5
    y = X @ theta + 0.05 / 1.96 * rng.standard_normal(100)
    Z = X * (rng.random((100, 500)) >= 0.1)
    np.savetxt(tmp_path / "Z.csv", Z, fmt="%.17g", delimiter=",")
    np.savetxt(tmp_path / "y.csv", y.reshape(-1, 1), fmt="%.17g", delimiter=",")
    args = ["-m", "musel.cli", "estimate", "--design", str(tmp_path / "Z.csv"),
            "--response", str(tmp_path / "y.csv"), "--mode", "dantzig",
            "--tau", "0.05"]
    assert _python(args, 1) == _python(args, 2)
