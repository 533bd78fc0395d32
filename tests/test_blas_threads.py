"""One OpenBLAS thread in every musel process.

``import musel`` sets numpy's bundled OpenBLAS to one thread
(``musel._accel``), so no output depends on ``OPENBLAS_NUM_THREADS`` or on
the core count.  The runs below are at the paper's p = 500: one and two
threads give different last bits there, while at the reduced preset's
p = 120 they happen to agree, so a smaller run could not see the problem.
When musel is the first to import numpy, OpenBLAS starts no worker thread
at all, and the caller's environment is left as it was.
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

# binds `get` to the thread-count getter of the OpenBLAS at argv[1]
GETTER = """
lib = ctypes.CDLL(sys.argv[1])
get = next(getattr(lib, f) for f in ("scipy_openblas_get_num_threads64_",
                                     "openblas_get_num_threads64_",
                                     "openblas_get_num_threads")
           if hasattr(lib, f))
get.argtypes, get.restype = [], ctypes.c_int
"""

# prints the thread count of the OpenBLAS at argv[1] before and after
# `import musel`; with argv[2], musel looks for numpy.libs beside it instead
PROBE = """
import ctypes, sys
import numpy
""" + GETTER + """before = get()
if len(sys.argv) > 2:
    numpy.__file__ = sys.argv[2]
import musel
print(before, get())
"""


# `import musel` as the process's first numpy import; prints its OS thread
# count (None without /proc), the OpenBLAS thread count at argv[1], and
# OPENBLAS_NUM_THREADS as the process and then a child of it see it
FIRST = """
import ctypes, json, os, subprocess, sys
import musel
tasks = (len(os.listdir("/proc/self/task"))
         if os.path.isdir("/proc/self/task") else None)
""" + GETTER + """child = subprocess.run(
    [sys.executable, "-c",
     "import os; print(repr(os.environ.get('OPENBLAS_NUM_THREADS')))"],
    check=True, capture_output=True, text=True).stdout.strip()
print(json.dumps([tasks, get(), os.environ.get("OPENBLAS_NUM_THREADS"), child]))
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


@pytest.fixture(scope="module", params=[None, "2"], ids=["unset", "set-2"])
def first_import(request):
    """(caller's OPENBLAS_NUM_THREADS, what FIRST printed) for a process
    started with the variable unset or set to "2"."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if request.param is not None:
        env["OPENBLAS_NUM_THREADS"] = request.param
    out = subprocess.run([sys.executable, "-c", FIRST, OPENBLAS[0]], env=env,
                         check=True, capture_output=True, text=True).stdout
    return request.param, json.loads(out)


@pytest.mark.skipif(not OPENBLAS, reason="numpy bundles no OpenBLAS")
class TestMuselImportsNumpy:
    def test_no_worker_thread(self, first_import):
        tasks = first_import[1][0]
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads in")
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one core: OpenBLAS starts no worker thread anyway")
        assert tasks == 1

    def test_getter_reads_one(self, first_import):
        assert first_import[1][1] == 1

    def test_environment_restored(self, first_import):
        caller, (_, _, seen, child) = first_import
        assert seen == caller
        assert child == repr(caller)


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
