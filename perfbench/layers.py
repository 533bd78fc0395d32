"""Per-layer metrics computed from the spans of one traced pass.

Times are totals over the traced pass, which is a fixed list of operations
per workload, so they compare across runs and commits.  A layer that a
workload does not enter reads 0.
"""

from spans import outermost, self_times

# Counters that must repeat exactly between two traced passes.
EXACT = ("lp.solves", "lp.pivots", "estimators.fp_rounds", "sensitivity.lps",
         "simulate.failed_reps")


def _ratio(num, den):
    return num / den if den else 0.0


def _named(spans, name):
    return [sp for sp in spans if sp.name == name]


def _total(spans):
    return sum(sp.dur for sp in spans)


def layer_metrics(spans, wall_s, workers):
    """Every per-layer metric except the ``trace.*`` and HiGHS ones."""
    by_id = {sp.id: sp for sp in spans}
    own = self_times(spans)
    m = {}

    lps = _named(spans, "lp.solve")
    pivots = sum(sp.attrs["pivots"] for sp in lps)
    busy = _total(lps)
    m["lp.solves"] = len(lps)
    m["lp.pivots"] = pivots
    m["lp.pivots_per_solve"] = _ratio(pivots, len(lps))
    m["lp.busy_s"] = busy
    m["lp.share"] = _ratio(busy, wall_s)
    m["lp.rows_mean"] = _ratio(sum(sp.attrs["rows"] for sp in lps), len(lps))
    m["lp.nonoptimal"] = sum(sp.attrs["status"] != "optimal" for sp in lps)
    m["lp.ms_per_pivot"] = _ratio(busy * 1e3, pivots)
    m["lp.dense_bytes_per_pivot"] = _ratio(
        sum(8.0 * sp.attrs["rows"] ** 2 * sp.attrs["pivots"] for sp in lps), pivots)
    m["lp.build_s"] = _total(_named(spans, "lp.build"))

    est_all = _named(spans, "estimators.call")
    est = outermost(spans, "estimators.call")
    fp = [sp for sp in est if sp.attrs.get("fp_rounds")]
    fp_rounds = sum(sp.attrs["fp_rounds"] for sp in fp)
    m["estimators.calls"] = len(est)
    m["estimators.gram_s"] = _total(_named(spans, "estimators.gram"))
    m["estimators.self_s"] = sum(own[sp.id] for sp in est_all)
    m["estimators.fp_rounds"] = fp_rounds
    m["estimators.pivots_per_fp_round"] = _ratio(
        sum(sp.attrs["pivots"] for sp in fp), fp_rounds)

    miss = outermost(spans, "missing.call")
    m["missing.busy_s"] = _total(miss)
    m["missing.calls"] = len(miss)

    reps = _named(spans, "simulate.rep")
    grams_in_reps = sum(1 for sp in _named(spans, "estimators.gram")
                        if by_id[sp.root].name == "simulate.rep")
    m["simulate.datagen_s"] = _total(_named(spans, "simulate.datagen"))
    m["simulate.metrics_s"] = _total(_named(spans, "simulate.metrics"))
    m["simulate.failed_reps"] = sum(bool(sp.attrs.get("failed")) for sp in reps)
    m["simulate.gram_builds_per_rep"] = _ratio(grams_in_reps, len(reps))
    m["simulate.pool_util"] = _ratio(_total(reps), workers * wall_s) if reps else 0.0

    sens = _named(spans, "sensitivity.call")
    sens_lps = sum(1 for sp in lps if by_id[sp.root].name == "sensitivity.call")
    m["sensitivity.lps"] = sens_lps
    m["sensitivity.lps_per_s"] = _ratio(sens_lps, _total(sens))
    m["sensitivity.self_s"] = sum(own[sp.id] for sp in sens)

    reads = outermost(spans, "io.read")
    read_s = _total(reads)
    m["io.read_s"] = read_s
    m["io.read_mb_per_s"] = _ratio(sum(sp.attrs["bytes"] for sp in reads) / 1e6, read_s)
    m["io.write_s"] = _total(outermost(spans, "io.write"))

    # cli self time keeps the residual re-derivation (the Gram built inside
    # feasibility_check included) and drops the io, missing and estimator
    # calls, as the request's own work.
    requests = _named(spans, "cli.request")
    cli_own = self_times(spans, exclude=lambda parent, child: (
        parent.name == "cli.request"
        and not child.name.startswith(("io.", "missing.", "estimators.call"))))
    m["cli.startup_s"] = sum(sp.attrs["startup_s"] for sp in requests)
    m["cli.self_s"] = sum(cli_own[sp.id] for sp in requests)
    return m
