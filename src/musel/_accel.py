"""The numeric backend: plain numpy, with its bundled OpenBLAS on one thread.

When musel is the first to import numpy, it holds ``OPENBLAS_NUM_THREADS``
at 1 for that import only and then restores the caller's value (or removes
the key if it was absent), so ``os.environ`` after ``import musel`` equals
``os.environ`` before it.  OpenBLAS reads the variable once, as numpy loads
it, and at 1 it starts no worker thread: the nproc - 1 workers it would
otherwise start spin for about 130 ms of CPU before they can be parked,
which every fresh ``musel`` CLI process would pay.

When numpy was imported first, its workers already run; ``import musel``
then calls :func:`single_blas_thread` before anything computes, so every
BLAS product in the process still runs on one thread.  A second OpenBLAS
thread gives ``Z'Z`` and the p x p Gram products other last bits at the
paper's p = 500, so the output bytes would follow the core count and
``OPENBLAS_NUM_THREADS``; it also spins for as long as the main thread
works and saves no wall time on these sizes.  A numpy without a bundled
OpenBLAS is left as it is, and the bytes then depend on its BLAS.
"""

import ctypes
import os
import sys

if "numpy" in sys.modules:
    import numpy
else:
    _caller = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if _caller is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _caller
        del _caller

# the thread-count setters of numpy's bundled OpenBLAS, newest first
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
            "openblas_set_num_threads")


def backend_name():
    return "numpy"


def single_blas_thread():
    """Set the OpenBLAS that numpy bundles in ``numpy.libs`` to one thread;
    do nothing when there is none (another BLAS, or a numpy built without
    its own libraries)."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return
    for name in names:
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for setter in _SETTERS:
            if hasattr(lib, setter):
                set_threads = getattr(lib, setter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                return
