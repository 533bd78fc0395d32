"""What ``import musel.cli`` loads, and what ``import musel`` exports.

A ``musel estimate`` request pays for every module the CLI imports at
start-up, so the subcommands that need simulate, sensitivity or thresholds
import them themselves, and the package resolves their names on first use.
"""

import os
import subprocess
import sys

import musel

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
DEFERRED = ("musel.simulate", "musel.sensitivity", "musel.thresholds",
            "concurrent.futures")


def test_cli_import_defers_unused_modules():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    code = ("import musel.cli, sys; "
            f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_star_import_binds_all():
    namespace = {}
    exec("from musel import *", namespace)
    missing = [name for name in musel.__all__ if name not in namespace]
    assert missing == []
    assert namespace["run_experiment"] is musel.simulate.run_experiment
    assert namespace["kappa_one"] is musel.sensitivity.kappa_one
