"""Command-line interface.

Subcommands: estimate (run a selector on CSV data), simulate (Monte Carlo
benchmark), sensitivity (Gram sensitivities), thresholds (noise threshold
calculus).  Structured results are JSON; tables are CSV.  All writes are
atomic (temp file + rename), and every subcommand is a pure function of its
arguments, input files and seed.

Exit codes: 0 ok; 1 malformed CSV; 2 infeasible (the selector's feasible
set is empty); 3 iteration limit (of a selector LP or of a sensitivity LP); 64 usage error (among them an
``--out`` whose directory does not exist, found before any work).
"""

import json
import os
import sys
from dataclasses import fields

import click

from . import io as mio
from .estimators import (SelectorConfig, solve_compensated_mu, solve_dantzig,
                         solve_missing_data_cmu, solve_mu_selector)
from .lp import LpStatus
# unused here, but perfbench/probes.py wraps these names on this module
from .missing import estimate_pi, rescale, sigma_hat  # noqa: F401

# simulate, sensitivity and thresholds are imported by the subcommands that
# use them, so that an estimate request does not load them.

click.UsageError.exit_code = 64

_STATUS_EXIT = {
    LpStatus.OPTIMAL: 0,
    LpStatus.INFEASIBLE: 2,
    LpStatus.ITERATION_LIMIT: 3,
}

# the optional estimate inputs that each --mode reads
_MODE_READS = {
    "dantzig": (),
    "mu": ("--mu",),
    "cmu": ("--mu", "--dhat"),
    "missing": ("--mu", "--pi", "--estimate-pi", "--path"),
}


@click.group()
def cli():
    """musel: l1 selectors for noisy and partially missing designs."""


class _OutFile(click.Path):
    """An output file path whose directory must exist.  click checks it while
    it parses the arguments, so a bad ``--out`` is a usage error before any
    work instead of a failed write after it.  ``<out>.raw.json`` lies in the
    same directory, so the check covers it too."""

    def __init__(self):
        super().__init__(dir_okay=False)

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        directory = os.path.dirname(value)
        if not os.path.isdir(directory or os.curdir):
            self.fail(f"directory {directory!r} does not exist", param, ctx)
        return value


def _emit(text, out):
    if out:
        mio.atomic_write_text(out, text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _load(path, header, reader):
    try:
        return reader(path, header=header)
    except mio.CsvFormatError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


@cli.command()
@click.option("--design", required=True, type=click.Path(exists=True))
@click.option("--response", required=True, type=click.Path(exists=True))
@click.option("--mode", required=True,
              type=click.Choice(["mu", "cmu", "dantzig", "missing"]))
@click.option("--mu", "mu_", type=float, default=None,
              help="Selector mu (mu, cmu and missing modes; default 0).")
@click.option("--tau", type=float, required=True)
@click.option("--pi", type=float, default=None,
              help="Known missingness probability (missing mode).")
@click.option("--estimate-pi", "est_pi", is_flag=True,
              help="Estimate pi from the zero frequency (missing mode).")
@click.option("--domain", type=click.Choice(["nonneg", "free"]),
              default="nonneg", show_default=True)
@click.option("--dhat", type=click.Path(exists=True), default=None,
              help="Compensation diagonal CSV (cmu mode).")
@click.option("--path", "mpath", type=click.Choice(["rescale", "direct"]),
              default=None,
              help="Missing-mode route: rescale Z (default) or solve the "
                   "masked form.")
@click.option("--header", is_flag=True, help="Skip the first CSV line.")
@click.option("--out", type=_OutFile(), default=None,
              help="Output JSON path (default: stdout).")
def estimate(design, response, mode, mu_, tau, pi, est_pi, domain, dhat,
             mpath, header, out):
    """Run a selector on a design/response pair and write the estimate."""
    given = {"--mu": mu_ is not None, "--pi": pi is not None,
             "--estimate-pi": est_pi, "--dhat": dhat is not None,
             "--path": mpath is not None}
    ignored = [opt for opt, on in given.items()
               if on and opt not in _MODE_READS[mode]]
    if ignored:
        raise click.UsageError(
            f"--mode {mode} does not read {', '.join(ignored)}")
    mu_ = 0.0 if mu_ is None else mu_
    Z = _load(design, header, mio.read_matrix)
    y = _load(response, header, mio.read_vector)

    try:
        if mode == "missing":
            if (pi is None) == (not est_pi):
                raise click.UsageError(
                    "missing mode needs exactly one of --pi or --estimate-pi")
            cfg = SelectorConfig(mu=mu_, tau=tau, domain=domain)
            est = solve_missing_data_cmu(Z, y, pi=pi, config=cfg,
                                         path=mpath or "rescale")
        elif mode == "cmu":
            if dhat is None:
                raise click.UsageError(
                    "cmu mode needs --dhat (or use --mode missing with --pi)")
            comp = _load(dhat, header, mio.read_vector)
            cfg = SelectorConfig(mu=mu_, tau=tau, domain=domain,
                                 compensation=comp)
            est = solve_compensated_mu(Z, y, cfg)
        elif mode == "mu":
            est = solve_mu_selector(Z, y, SelectorConfig(mu=mu_, tau=tau,
                                                         domain=domain))
        else:
            est = solve_dantzig(Z, y, tau, domain=domain)
    except ValueError as e:
        raise click.UsageError(str(e))

    payload = {
        "theta": [float(v) for v in est.theta],
        "l1": est.l1_norm,
        "support": [int(j) for j in est.support],
        "status": est.status.value,
        "feasibility_residual": est.residual,
        "iterations": est.iterations,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)
    sys.exit(_STATUS_EXIT[est.status])


class _PresetChoice(click.Choice):
    """``click.Choice`` over the simulate presets, read from
    ``musel.simulate`` only when click needs them (help, parsing)."""

    def __init__(self):
        self.case_sensitive = True

    @property
    def choices(self):
        from .simulate import PRESETS
        return tuple(sorted(PRESETS))


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="JSON file with SimConfig overrides.")
@click.option("--preset", type=_PresetChoice(), default=None)
@click.option("--seed", type=int, required=True)
@click.option("--out", required=True, type=_OutFile())
@click.option("--raw", is_flag=True,
              help="Also write per-replication records to <out>.raw.json.")
@click.option("--markdown", "md", is_flag=True,
              help="Also print a mean-(std) table to stdout.")
def simulate(config_path, preset, seed, out, raw, md):
    """Run the Monte Carlo benchmark grid and write the table as CSV."""
    from .simulate import (SimConfig, config_from_preset, rows_to_csv,
                           rows_to_markdown, run_experiment)

    overrides = {}
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except ValueError as e:
            raise click.UsageError(f"--config {config_path}: not JSON ({e})")
        if not isinstance(file_cfg, dict):
            raise click.UsageError(
                f"--config {config_path}: expected a JSON object of "
                f"SimConfig overrides, got {type(file_cfg).__name__}")
        keys = {f.name for f in fields(SimConfig)} - {"seed"}
        unknown = set(file_cfg) - keys
        if unknown:
            raise click.UsageError(
                f"unknown config key {sorted(unknown)[0]!r}; "
                f"valid keys: {sorted(keys)}")
        overrides = file_cfg
    try:
        if preset:
            config = config_from_preset(preset, seed=seed, **overrides)
        else:
            config = SimConfig(seed=seed, **overrides)
    except (ValueError, TypeError) as e:
        raise click.UsageError(str(e))

    result = run_experiment(config, collect_raw=raw)
    rows, raw_records = result if raw else (result, None)
    mio.atomic_write_text(out, rows_to_csv(rows))
    if raw:
        mio.atomic_write_text(out + ".raw.json",
                              json.dumps(raw_records, indent=2, sort_keys=True) + "\n")
    if md:
        click.echo(rows_to_markdown(rows), nl=False)


@cli.command()
@click.option("--gram", type=click.Path(exists=True), default=None,
              help="Gram matrix CSV.")
@click.option("--s", "s_", type=int, required=True)
@click.option("--q", "q_", required=True,
              help="1, 2, inf, or star:k (0-based coordinate k).")
@click.option("--design", type=click.Path(exists=True), default=None,
              help="Design CSV Z: use the plug-in Gram Z'Z/n - diag(dhat).")
@click.option("--dhat", type=click.Path(exists=True), default=None,
              help="Diagonal CSV subtracted from Z'Z/n (with --design).")
@click.option("--budget", type=click.IntRange(min=1), default=100_000,
              show_default=True,
              help="Most LPs to solve; past it the result is a lower bound.")
@click.option("--header", is_flag=True)
@click.option("--out", type=_OutFile(), default=None)
def sensitivity(gram, s_, q_, design, dhat, budget, header, out):
    """Compute a cone sensitivity of a Gram matrix."""
    from .core import gram as plugin_gram
    from .sensitivity import (SensitivityLpError, _from_inf, kappa_inf_exact,
                              kappa_one, kappa_star)

    if (gram is None) == (design is None):
        raise click.UsageError("pass exactly one of --gram and --design")
    if dhat is not None and design is None:
        raise click.UsageError("--dhat needs --design")
    if design is None:
        psi = _load(gram, header, mio.read_matrix)
    else:
        Z = _load(design, header, mio.read_matrix)
        d = _load(dhat, header, mio.read_vector) if dhat else None

    try:
        if design is not None:
            psi = plugin_gram(Z, d)
        if q_.startswith("star:"):
            k = int(q_.split(":", 1)[1])
            res = kappa_star(psi, s_, k, budget_cap=budget)
        elif q_ == "1":
            res = kappa_one(psi, s_, budget_cap=budget)
        elif q_ in ("2", "inf"):
            res = kappa_inf_exact(psi, s_, budget_cap=budget)
            if q_ == "2":
                res = _from_inf(res, s_, 2.0)
        else:
            raise click.UsageError(f"bad --q {q_!r}: use 1, 2, inf or star:k")
    except SensitivityLpError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(_STATUS_EXIT[e.status])
    except ValueError as e:
        raise click.UsageError(str(e))

    # the wall time is a trace, not a result: it would make the bytes differ
    # between runs on the same input
    payload = res.to_dict()
    del payload["wall_time"]
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


@cli.command()
@click.option("--gamma-xi", "gamma_xi", type=float, required=True,
              help="Subgaussian constant of the response noise.")
@click.option("--gamma-Xi", "gamma_Xi", type=float, required=True,
              help="Subgaussian constant of the design noise.")
@click.option("--m2", type=float, default=1.0, show_default=True)
@click.option("--m4", type=float, default=1.0, show_default=True)
@click.option("--pi", type=float, default=None,
              help="Missingness probability (enables the b threshold).")
@click.option("--n", "n_", type=int, required=True)
@click.option("--p", "p_", type=int, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--gamma0", type=float, default=None)
@click.option("--t0", type=float, default=None)
@click.option("--out", type=_OutFile(), default=None)
def thresholds(gamma_xi, gamma_Xi, m2, m4, pi, n_, p_, eps, gamma0, t0, out):
    """Compute the noise deviation thresholds and mu(eps), tau(eps)."""
    from .thresholds import NoiseParams, thresholds_for

    try:
        params = NoiseParams(gamma_xi=gamma_xi, gamma_Xi=gamma_Xi,
                             epsilon=eps, n=n_, p=p_, m2=m2, m4=m4,
                             gamma0=gamma0, t0=t0)
        th = thresholds_for(params, pi_star=pi)
    except ValueError as e:
        raise click.UsageError(str(e))
    inputs = {"gamma_xi": gamma_xi, "gamma_Xi": gamma_Xi, "m2": m2, "m4": m4,
              "pi": pi, "n": n_, "p": p_, "eps": eps,
              "gamma0": params.gamma0, "t0": params.t0}
    _emit(th.to_json(inputs=inputs) + "\n", out)


def main():
    cli()


if __name__ == "__main__":
    main()
