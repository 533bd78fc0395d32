"""One ``musel estimate`` request with spans recorded at module boundaries.

Usage: python3 perfbench/traced_request.py SIDECAR SPAWN_T -- estimate ARGS...

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process, so the request's start-up (interpreter plus import) can be told
apart from its work.  The script installs the benchmark's wrappers, calls
``musel.cli.main`` as the ``musel`` command would, writes the spans to
SIDECAR as JSON and exits with the command's exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import musel.cli  # noqa: E402

import probes  # noqa: E402
from spans import Patcher, Tracer  # noqa: E402


def main():
    sidecar, spawn_t, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_request.py SIDECAR SPAWN_T -- ARGS...")
    startup = time.monotonic() - float(spawn_t)
    tracer, patcher, lpcheck = Tracer(), Patcher(), probes.LpCheck()
    lpcheck.tracer = tracer
    probes.install_lp(patcher, lpcheck)
    probes.install_tracing(patcher, tracer)
    sys.argv = ["musel", *args]
    request = tracer.open("cli.request")
    request.attrs["startup_s"] = startup
    code = 0
    try:
        musel.cli.main()
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        tracer.close(request)
        patcher.restore()
    with open(sidecar, "w") as fh:
        json.dump({"spans": [sp.to_dict() for sp in tracer.spans],
                   "lp_errors": lpcheck.errors}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
