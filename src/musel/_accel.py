"""Name of the numeric backend, for benchmark and environment reports.

Every kernel is plain numpy, so the backend is always ``"numpy"``.
"""


def backend_name():
    return "numpy"
