"""The three workloads: inputs made from the seed, one unit of work, checks.

Each workload is a closed loop driven by one process: the next unit starts
when the previous one has finished.  A unit is what the loop calls (a slice
of the reduced preset, one ``musel estimate`` request, one sensitivity or
selector call) and yields one or more operations (replications, requests,
calls).  Units cycle through a fixed, seeded list, so a unit that comes
round again must reproduce its output bytes.

Inputs are generated here with numpy alone, never with musel's own
generators, so a change to the program cannot change what it is given.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np

from musel import estimators, sensitivity, simulate
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NOISE_SD = 0.05 / 1.96
PI = 0.1


def _digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def child_env():
    """The environment for a child interpreter: this checkout's src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, env, timeout):
    """Run ``cmd`` to completion; kill it if it outlives ``timeout`` seconds.

    ``subprocess.run(timeout=...)`` polls for the child's exit in steps of
    up to 50 ms, which would show in every latency measured around it; this
    waits in the kernel instead and leaves the deadline to a timer thread.
    Returns (exit code, stderr text).
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, err = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, err


def _seed_int(*key):
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _design(rng, n, p):
    """Gaussian design, columns centred and scaled to unit mean square."""
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    return X / np.sqrt((X ** 2).mean(axis=0))


def _masked_problem(rng, n, p, s):
    """(Z_tilde, y): an s-sparse response and the design masked at rate PI."""
    X = _design(rng, n, p)
    theta = np.zeros(p)
    theta[rng.choice(p, size=s, replace=False)] = 0.5
    y = X @ theta + NOISE_SD * rng.standard_normal(n)
    keep = rng.random((n, p)) >= PI
    return X * keep, y


class Workload:
    """Base: subclasses define the cycle, one unit, and the output checks."""

    name = None
    cpu_who = resource.RUSAGE_SELF
    cycle = 1              # units before the inputs repeat
    trace_units = (0,)     # units of a traced pass (fixed: counters repeat)
    check_units = (0,)     # re-run after timing: bytes must repeat
    highs_per_unit = 30    # captured LPs per unit compared with HiGHS

    def __init__(self, seed, workdir, workers):
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.errors = []
        self.infeasible = 0    # operations with an INFEASIBLE LP so far

    def install(self, patcher):
        """Wrappers the workload needs to see its operations (none by default)."""

    def ops_in(self, u):
        """Operations a unit performs (counted as failed if the unit raises)."""
        return 3

    def run_unit(self, u, tracer=None):
        """Run unit ``u`` (traced when ``tracer`` is given).

        Returns ([(latency_s, ok), ...], digest of the unit's output bytes).
        """
        raise NotImplementedError

    def highs_check(self, pairs_by_unit):
        """Compare captured OPTIMAL LPs with HiGHS; return seconds per
        HiGHS solve.  (The run checks every other verdict itself.)"""
        times = []
        for pairs in pairs_by_unit.values():
            optimal = [pair for pair in pairs if pair[1].optimal]
            errors, t = oracle.check_pairs(optimal, self.highs_per_unit)
            self.errors.extend(errors)
            times.extend(t)
        return times

    def final_checks(self):
        """Checks on the outputs kept during the run (after timing)."""


class SimReduced(Workload):
    """The paper's Monte Carlo harness at the ``reduced`` preset size.

    A unit is ``run_experiment`` over the preset's whole grid (n=40, p=120,
    s in {1, 2}, five deltas, MU and CMU) with REPS_PER_CELL replications per
    cell, so every unit exercises every cell; units differ by experiment
    seed.  An operation is one replication.  At delta = 0 the CMU
    selector's feasible set is empty for some draws; musel's INFEASIBLE is
    then the right answer, so such a replication counts as done, and the
    run confirms every INFEASIBLE verdict with HiGHS after timing.
    """

    name = "sim-reduced"
    REPS_PER_CELL = 2
    cycle = 16
    trace_units = (0, 1)

    def __init__(self, seed, workdir, workers):
        super().__init__(seed, workdir, workers)
        self.seeds = [_seed_int(seed, 101, k) for k in range(self.cycle)]
        cfg = simulate.config_from_preset("reduced", 0)
        self.cells = len(cfg.s_list) * len(cfg.delta_list)
        self._reps = []

    def install(self, patcher):
        def factory(orig):
            def rep(*args, **kwargs):
                t0 = time.monotonic()
                res = orig(*args, **kwargs)
                statuses = {m.status for m in res.values()}
                self._reps.append((time.monotonic() - t0,
                                   statuses <= {"optimal", "infeasible"},
                                   "infeasible" in statuses))
                return res
            return rep
        patcher.wrap("musel.simulate", "_run_cell_rep", factory)

    def ops_in(self, u):
        return self.cells * self.REPS_PER_CELL

    def run_unit(self, u, tracer=None):
        self._reps = []
        cfg = simulate.config_from_preset("reduced", self.seeds[u % self.cycle],
                                          reps=self.REPS_PER_CELL)
        rows = simulate.run_experiment(cfg, workers=self.workers)
        if len(self._reps) != self.ops_in(u):
            self.errors.append(f"unit {u}: {len(self._reps)} replications "
                               f"ran, expected {self.ops_in(u)}")
        self.infeasible += sum(inf for _, _, inf in self._reps)
        return ([(t, ok) for t, ok, _ in self._reps],
                _digest(simulate.rows_to_csv(rows)))


class SensFixedpoint(Workload):
    """Consecutive LPs that share one constraint matrix.

    The cycle is, per input set: kappa_inf_exact at p=8, s=2 (784 LPs of 17
    rows); kappa_lower_bound at p=60, s=2 (120 LPs of 121 rows, only the
    bounds change); the free-domain solve_missing_data_cmu at n=40, p=120
    (fixed-point rounds that change only b).  An operation is one call.
    """

    name = "sens-fixedpoint"
    MU, TAU = 0.11, 0.05
    cycle = 16

    def __init__(self, seed, workdir, workers):
        super().__init__(seed, workdir, workers)
        self._inputs = {}

    def inputs(self, u):
        """(psi at p=8, psi at p=60, Z_tilde, y) of unit ``u``'s input set."""
        k = u % self.cycle
        if k not in self._inputs:
            rng = np.random.default_rng(_seed_int(self.seed, 303, k))
            psi8 = self._gram(rng, 16, 8)
            psi60 = self._gram(rng, 40, 60)
            self._inputs[k] = (psi8, psi60, *_masked_problem(rng, 40, 120, 2))
        return self._inputs[k]

    @staticmethod
    def _gram(rng, n, p):
        X = _design(rng, n, p)
        G = X.T @ X / n
        return (G + G.T) / 2.0

    def run_unit(self, u, tracer=None):
        psi8, psi60, Z_tilde, y = self.inputs(u)
        records, data = [], []
        for kind in range(3):
            t0 = time.monotonic()
            if kind == 0:
                res = sensitivity.kappa_inf_exact(psi8, 2)
            elif kind == 1:
                res = sensitivity.kappa_lower_bound(psi60, 2)
            else:
                cfg = estimators.SelectorConfig(mu=self.MU, tau=self.TAU, domain="free")
                est = estimators.solve_missing_data_cmu(Z_tilde, y, pi=PI, config=cfg)
            lat = time.monotonic() - t0
            if kind < 2:
                out = res.to_dict()
                out.pop("wall_time")
                records.append((lat, bool(np.isfinite(res.value))))
                data.append(json.dumps(out, sort_keys=True, default=float).encode())
            else:
                records.append((lat, est.optimal))
                data.append(est.theta.tobytes() + est.status.value.encode()
                            + repr((est.iterations, est.fp_rounds)).encode())
        return records, _digest(b"".join(data))


class EstimateP500(Workload):
    """Sequential ``musel estimate`` requests at the paper's scale.

    DESIGNS seeded, masked 100x500 CSV designs are written before timing
    starts.  A unit sends three requests on one design: missing mode with
    known pi (rescale path), missing mode with estimated pi (direct path),
    and the Dantzig selector (mu = 0).  An operation is one request, a
    fresh interpreter each, as a user runs it.
    """

    name = "estimate-p500"
    cpu_who = resource.RUSAGE_CHILDREN
    DESIGNS = 6
    cycle = DESIGNS
    check_units = ()       # final_checks re-sends one request instead
    MU, TAU, DANTZIG_TAU = 0.11, 0.02, 0.05
    KINDS = (
        ("--mode", "missing", "--pi", str(PI), "--mu", str(MU), "--tau", str(TAU)),
        ("--mode", "missing", "--estimate-pi", "--path", "direct",
         "--mu", str(MU), "--tau", str(TAU)),
        ("--mode", "dantzig", "--tau", str(DANTZIG_TAU)),
    )

    def __init__(self, seed, workdir, workers):
        super().__init__(seed, workdir, workers)
        self.data = []
        for d in range(self.DESIGNS):
            rng = np.random.default_rng(_seed_int(seed, 505, d))
            Z_tilde, y = _masked_problem(rng, 100, 500, 2)
            zp = os.path.join(workdir, f"Z{d}.csv")
            yp = os.path.join(workdir, f"y{d}.csv")
            np.savetxt(zp, Z_tilde, fmt="%.17g", delimiter=",")
            np.savetxt(yp, y.reshape(-1, 1), fmt="%.17g", delimiter=",")
            # the program reads the CSV text, so check against what it reads
            self.data.append((zp, yp, np.loadtxt(zp, delimiter=","),
                              np.loadtxt(yp, delimiter=",")))
        self.env = child_env()
        self.outputs = {}
        self.raws = {}

    def _request(self, d, kind, tracer=None):
        """Send request ``kind`` on design ``d``: (latency_s, output bytes or None)."""
        zp, yp = self.data[d][:2]
        out = os.path.join(self.workdir, f"out{d}-{kind}.json")
        args = ["estimate", "--design", zp, "--response", yp, *self.KINDS[kind],
                "--out", out]
        sidecar = os.path.join(self.workdir, f"spans{d}-{kind}.json")
        t0 = time.monotonic()
        if tracer is not None:
            cmd = [sys.executable, os.path.join(HERE, "traced_request.py"),
                   sidecar, repr(t0), "--", *args]
        else:
            cmd = [sys.executable, "-m", "musel.cli", *args]
        code, err = run_child(cmd, self.env, timeout=150)
        lat = time.monotonic() - t0
        if code != 0:
            self.errors.append(f"request {d}/{kind} exited {code}: "
                               f"{err.strip()[-300:]}")
            return lat, None
        if tracer is not None:
            with open(sidecar) as fh:
                side = json.load(fh)
            tracer.merge(side["spans"])
            self.errors.extend(side["lp_errors"])
        with open(out, "rb") as fh:
            return lat, fh.read()

    def run_unit(self, u, tracer=None):
        d = u % self.DESIGNS
        records, raws = [], []
        for kind in range(len(self.KINDS)):
            lat, raw = self._request(d, kind, tracer)
            payload = json.loads(raw) if raw is not None else None
            records.append((lat, payload is not None and payload["status"] == "optimal"))
            raws.append(raw or b"")
            if payload is not None:
                self.outputs[d, kind] = payload
                self.raws.setdefault((d, kind), raw)
        return records, _digest(b"\0".join(raws))

    def _selector(self, d, kind):
        """(Z, y, SelectorConfig) whose selector feasible set is the one
        request ``kind`` on design ``d`` solves over, derived from the CSV data."""
        Z_tilde, y = self.data[d][2:]
        if kind == 2:
            return Z_tilde, y, estimators.SelectorConfig(mu=0.0, tau=self.DANTZIG_TAU)
        pi = PI if kind == 0 else float(np.mean(Z_tilde == 0.0))
        dhat = (Z_tilde ** 2).mean(axis=0) * pi / (1.0 - pi) ** 2
        cfg = estimators.SelectorConfig(mu=self.MU, tau=self.TAU, compensation=dhat)
        if kind == 0:
            return Z_tilde / (1.0 - pi), y, cfg
        return Z_tilde, (1.0 - pi) * y, cfg

    def _program(self, d, kind):
        """The request's selector LP: min 1'theta over theta >= 0 with
        [G - mu; -G - mu] theta <= [tau + c; tau - c]."""
        Z, y, cfg = self._selector(d, kind)
        n = Z.shape[0]
        G = Z.T @ Z / n
        if cfg.compensation is not None:
            G[np.diag_indices_from(G)] -= cfg.compensation
        c = Z.T @ y / n
        A = np.vstack([G - cfg.mu, -G - cfg.mu])
        b = np.concatenate([cfg.tau + c, cfg.tau - c])
        return A, b

    def final_checks(self):
        """The first request repeats its bytes, and every OPTIMAL estimate
        passes estimators.feasibility_check."""
        if (0, 0) in self.raws and self._request(0, 0)[1] != self.raws[0, 0]:
            self.errors.append("request 0/0: output bytes differ from its "
                               "earlier run")
        for (d, kind), payload in sorted(self.outputs.items()):
            if payload["status"] != "optimal":
                continue
            Z, y, cfg = self._selector(d, kind)
            theta = np.array(payload["theta"])
            residual, _ = estimators.feasibility_check(theta, Z, y, cfg)
            _, b = self._program(d, kind)
            tol = cfg.feas_tol * (1.0 + float(np.max(np.abs(b))))
            if not (residual <= tol and np.min(theta) >= -cfg.feas_tol):
                self.errors.append(f"request {d}/{kind}: estimate infeasible "
                                   f"(residual {residual:.3e} > {tol:.3e})")

    def highs_check(self, pairs_by_unit):
        """HiGHS on the programs of the first design's three requests."""
        times = []
        for kind in range(len(self.KINDS)):
            if (0, kind) not in self.outputs:
                continue
            A, b = self._program(0, kind)
            res, dt = oracle.solve(np.ones(A.shape[1]), A, b)
            times.append(dt)
            payload = self.outputs[0, kind]
            # the objective of the theta the request wrote, not its own l1 field
            l1 = float(np.sum(np.abs(payload["theta"])))
            err = oracle.compare(payload["status"], l1, res)
            if err:
                self.errors.append(f"request 0/{kind}: {err}")
        return times


WORKLOADS = {w.name: w for w in (SimReduced, EstimateP500, SensFixedpoint)}
