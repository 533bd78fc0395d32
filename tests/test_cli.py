"""CLI surface: exit codes, JSON/CSV outputs, determinism, error reporting."""

import dataclasses
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from musel.cli import cli
from musel.io import CsvFormatError, read_matrix, read_vector, write_matrix, write_vector


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def data_dir(tmp_path, rng):
    Z = rng.standard_normal((10, 4))
    theta = np.array([0.6, 0.0, 0.0, 0.4])
    y = Z @ theta + 0.01 * rng.standard_normal(10)
    write_matrix(tmp_path / "Z.csv", Z)
    write_vector(tmp_path / "y.csv", y)
    write_vector(tmp_path / "y0.csv", np.zeros(10))
    write_vector(tmp_path / "dhat.csv", np.full(4, 0.02))
    write_matrix(tmp_path / "eye3.csv", np.eye(3))
    write_matrix(tmp_path / "rho05.csv", np.array([[1.0, 0.5], [0.5, 1.0]]))
    return tmp_path


class TestIoRoundTrip:
    def test_exact_float_round_trip(self, tmp_path, rng):
        M = rng.standard_normal((5, 3)) * 1e-7
        path = tmp_path / "m.csv"
        write_matrix(path, M)
        assert np.array_equal(read_matrix(path), M)

    def test_header_skip(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        M = read_matrix(path, header=True)
        assert M.shape == (2, 2)

    def test_malformed_reports_row_col(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvFormatError) as e:
            read_matrix(path)
        assert e.value.row == 2 and e.value.col == 2

    def test_ragged_reports_position(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError) as e:
            read_matrix(path)
        assert e.value.row == 2

    def test_vector_shapes(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1\n2\n3\n")
        assert np.array_equal(read_vector(path), [1.0, 2.0, 3.0])
        path.write_text("1,2,3\n")
        assert np.array_equal(read_vector(path), [1.0, 2.0, 3.0])

    @staticmethod
    def _offense(path, **kw):
        with pytest.raises(CsvFormatError) as e:
            read_matrix(path, **kw)
        return e.value.row, e.value.col, str(e.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN", "1e999"])
    def test_non_finite_cell_reported(self, tmp_path, cell):
        path = tmp_path / "nf.csv"
        path.write_text(f"1,2,3\n4,5,6\n7,{cell},9\n")
        assert self._offense(path) == (
            3, 2, f"{path}: row 3, column 2: non-finite value {cell.strip()!r}")

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n1,2\n   \n\t\n3,4\n\n")
        M = read_matrix(path)
        assert M.tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
        path.write_text("\n1,2\n   \n\t\n3,x\n")
        assert self._offense(path) == (
            5, 2, f"{path}: row 5, column 2: not a number: 'x'")
        path.write_text("1,2\n\n3\n")
        assert self._offense(path) == (
            3, 2, f"{path}: row 3, column 2: expected 2 fields, got 1")

    def test_header_empty_and_header_only(self, tmp_path, runner, data_dir):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert read_matrix(path, header=True).tobytes() == \
            np.array([[1.0, 2.0, 3.0]]).tobytes()
        assert self._offense(path) == (
            1, 1, f"{path}: row 1, column 1: not a number: 'a'")
        path.write_text("x,y\n\n1,oops\n")
        assert self._offense(path, header=True)[:2] == (3, 2)
        for text, header in (("", False), ("\n \n", False), ("", True),
                             ("a,b\n", True), ("a,b\n\n", True)):
            path.write_text(text)
            assert self._offense(path, header=header) == (
                1, 1, f"{path}: row 1, column 1: empty file")
        # --header skips the first line of every CSV the command reads
        for name in ("Z", "y"):
            body = (data_dir / f"{name}.csv").read_text()
            (tmp_path / f"{name}h.csv").write_text("col,names\n" + body)
        outs = []
        for folder, suffix, extra in ((data_dir, "", []),
                                      (tmp_path, "h", ["--header"])):
            r = runner.invoke(cli, ["estimate",
                                    "--design", str(folder / f"Z{suffix}.csv"),
                                    "--response", str(folder / f"y{suffix}.csv"),
                                    "--mode", "dantzig", "--tau", "0.05",
                                    *extra])
            assert r.exit_code == 0, r.output
            outs.append(r.output)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("cell", [" 1.5", "1.5 ", "1_0", "١٢",
                                      "+.5e-3", "1e-400", "4.9e-324", "0x10"])
    def test_cells_parse_as_float(self, tmp_path, cell):
        path = tmp_path / "cells.csv"
        path.write_text(f"0,{cell}\n")
        try:
            expected = float(cell)
        except ValueError:
            assert self._offense(path) == (
                1, 2, f"{path}: row 1, column 2: not a number: {cell.strip()!r}")
            return
        assert read_matrix(path).tobytes() == np.array([[0.0, expected]]).tobytes()

    def test_earliest_offense_reported(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,2,3\n4,bad,6\n7,8\n9,inf,1\n")
        assert self._offense(path) == (
            2, 2, f"{path}: row 2, column 2: not a number: 'bad'")
        path.write_text("1,2,3\n4,5\n7,bad,9\n")
        assert self._offense(path) == (
            2, 3, f"{path}: row 2, column 3: expected 3 fields, got 2")
        path.write_text("1,2,3\n4,nan,bad\n")
        assert self._offense(path)[:2] == (2, 2)

    def test_round_trip_bitwise_on_extremes(self, tmp_path):
        rng = np.random.default_rng(20_111)
        tiny = np.finfo(float).smallest_subnormal
        specials = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny,
                             np.finfo(float).tiny / 3, 1.7976931348623157e308,
                             -1.7976931348623157e308])
        M = rng.standard_normal((7, 9)) * 1e-7
        M.flat[rng.choice(M.size, specials.size, replace=False)] = specials
        path = tmp_path / "x.csv"
        write_matrix(path, M)
        assert read_matrix(path).tobytes() == M.tobytes()


class TestEstimate:
    def test_mu_mode_round_trip(self, runner, data_dir):
        out = data_dir / "est.json"
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--mode", "mu", "--mu", "0.05", "--tau", "0.05",
                                "--out", str(out)])
        assert r.exit_code == 0, r.output
        blob = json.loads(out.read_text())
        assert blob["status"] == "optimal"
        assert blob["feasibility_residual"] <= 1e-9
        assert blob["l1"] == pytest.approx(sum(abs(v) for v in blob["theta"]))
        # external feasibility check on the reloaded estimate
        from musel.estimators import SelectorConfig, feasibility_check
        Z = read_matrix(data_dir / "Z.csv")
        y = read_vector(data_dir / "y.csv")
        cfg = SelectorConfig(mu=0.05, tau=0.05, compensation=np.zeros(4))
        _, feasible = feasibility_check(np.array(blob["theta"]), Z, y, cfg)
        assert feasible

    @pytest.mark.parametrize("mode", ["mu", "dantzig"])
    def test_free_domain_matches_library(self, runner, data_dir, mode):
        from musel.estimators import SelectorConfig, solve_dantzig, solve_mu_selector
        mu = ["--mu", "0.05"] if mode == "mu" else []
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--mode", mode, *mu, "--tau", "0.05",
                                "--domain", "free"])
        assert r.exit_code == 0, r.output
        blob = json.loads(r.output)
        assert blob["status"] == "optimal"
        assert blob["feasibility_residual"] <= 1e-9
        Z = read_matrix(data_dir / "Z.csv")
        y = read_vector(data_dir / "y.csv")
        if mode == "mu":
            est = solve_mu_selector(Z, y, SelectorConfig(mu=0.05, tau=0.05,
                                                         domain="free"))
        else:
            est = solve_dantzig(Z, y, 0.05, domain="free")
        assert np.array(blob["theta"]).tobytes() == est.theta.tobytes()

    def test_cmu_mode_matches_library(self, runner, data_dir):
        from musel.estimators import SelectorConfig, solve_compensated_mu
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--mode", "cmu", "--mu", "0.05", "--tau", "0.05",
                                "--dhat", str(data_dir / "dhat.csv")])
        assert r.exit_code == 0, r.output
        blob = json.loads(r.output)
        assert blob["status"] == "optimal"
        cfg = SelectorConfig(mu=0.05, tau=0.05,
                             compensation=read_vector(data_dir / "dhat.csv"))
        est = solve_compensated_mu(read_matrix(data_dir / "Z.csv"),
                                   read_vector(data_dir / "y.csv"), cfg)
        assert np.array(blob["theta"]).tobytes() == est.theta.tobytes()

    def test_zero_response_gives_zero(self, runner, data_dir):
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y0.csv"),
                                "--mode", "dantzig", "--tau", "0.1"])
        assert r.exit_code == 0
        blob = json.loads(r.output)
        assert blob["l1"] == 0.0 and blob["support"] == []

    def test_missing_mode_requires_pi_choice(self, runner, data_dir):
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--mode", "missing", "--tau", "0.1"])
        assert r.exit_code == 64
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--mode", "missing", "--tau", "0.1",
                                "--pi", "0.1", "--estimate-pi"])
        assert r.exit_code == 64

    def test_cmu_requires_dhat(self, runner, data_dir):
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--mode", "cmu", "--mu", "0.1", "--tau", "0.1"])
        assert r.exit_code == 64

    @pytest.mark.parametrize("args, message", [
        (["--mode", "mu", "--mu", "-1", "--tau", "0.1"], "mu must be"),
        (["--mode", "dantzig", "--tau", "-1"], "tau must be"),
        (["--mode", "missing", "--tau", "0.1", "--pi", "1.5"], "outside [0, 1)"),
        (["--mode", "cmu", "--tau", "0.1", "--dhat", "neg.csv"],
         "compensation entries must be >= 0"),
        (["--mode", "missing", "--tau", "0.1", "--pi", "nan"], "outside [0, 1)"),
    ], ids=["mu", "tau", "pi", "dhat", "pi-nan"])
    def test_bad_number_is_usage_error(self, runner, data_dir, args, message):
        write_vector(data_dir / "neg.csv", np.array([0.02, -0.01, 0.02, 0.02]))
        args = [str(data_dir / a) if a.endswith(".csv") else a for a in args]
        out = data_dir / "est.json"
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--out", str(out), *args])
        assert r.exit_code == 64, r.output
        assert message in r.output
        assert not out.exists()

    @pytest.mark.parametrize("args, ignored", [
        (["--mode", "dantzig", "--mu", "0.3"], "--mu"),
        (["--mode", "dantzig", "--path", "rescale"], "--path"),
        (["--mode", "mu", "--dhat", "dhat.csv"], "--dhat"),
        (["--mode", "mu", "--pi", "0.1"], "--pi"),
        (["--mode", "mu", "--estimate-pi"], "--estimate-pi"),
        (["--mode", "mu", "--path", "direct"], "--path"),
        (["--mode", "cmu", "--dhat", "dhat.csv", "--pi", "0.1"], "--pi"),
        (["--mode", "missing", "--pi", "0.1", "--dhat", "dhat.csv"], "--dhat"),
    ], ids=["dantzig-mu", "dantzig-path", "mu-dhat", "mu-pi", "mu-estimate-pi",
            "mu-path", "cmu-pi", "missing-dhat"])
    def test_option_mode_does_not_read(self, runner, data_dir, args, ignored):
        args = [str(data_dir / a) if a.endswith(".csv") else a for a in args]
        out = data_dir / "est.json"
        r = runner.invoke(cli, ["estimate", "--design", str(data_dir / "Z.csv"),
                                "--response", str(data_dir / "y.csv"),
                                "--tau", "0.05", "--out", str(out), *args])
        assert r.exit_code == 64, r.output
        assert f"does not read {ignored}" in r.output
        assert not out.exists()

    def test_malformed_csv_exit_1(self, runner, tmp_path, data_dir):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,x\n")
        r = runner.invoke(cli, ["estimate", "--design", str(bad),
                                "--response", str(data_dir / "y.csv"),
                                "--mode", "mu", "--mu", "0", "--tau", "1"])
        assert r.exit_code == 1
        assert "row 2" in r.output and "column 2" in r.output

    def test_infeasible_exit_2(self, runner, tmp_path):
        write_matrix(tmp_path / "z1.csv", np.array([[1.0]]))
        write_vector(tmp_path / "ym.csv", np.array([-1.0]))
        r = runner.invoke(cli, ["estimate", "--design", str(tmp_path / "z1.csv"),
                                "--response", str(tmp_path / "ym.csv"),
                                "--mode", "dantzig", "--tau", "0.5"])
        assert r.exit_code == 2

    def test_missing_mode_both_paths(self, runner, data_dir, tmp_path):
        for path in ("rescale", "direct"):
            r = runner.invoke(cli, ["estimate",
                                    "--design", str(data_dir / "Z.csv"),
                                    "--response", str(data_dir / "y.csv"),
                                    "--mode", "missing", "--mu", "0.05",
                                    "--tau", "0.1", "--pi", "0.0",
                                    "--path", path])
            assert r.exit_code == 0, r.output


class TestSimulate:
    ARGS = ["simulate", "--seed", "7", "--config"]

    def _cfg(self, tmp_path, **kw):
        cfg = {"n": 16, "p": 8, "s_list": [1], "delta_list": [0.0, 0.05],
               "reps": 2, "estimators": ["MU", "CMU"]}
        cfg.update(kw)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = self._cfg(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            r = runner.invoke(cli, ["simulate", "--config", str(cfg),
                                    "--seed", "7", "--out", str(out)])
            assert r.exit_code == 0, r.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_invariance(self, runner, tmp_path, monkeypatch):
        cfg = self._cfg(tmp_path)
        blobs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("MUSEL_THREADS", workers)
            out = tmp_path / f"w{workers}.csv"
            r = runner.invoke(cli, ["simulate", "--config", str(cfg),
                                    "--seed", "7", "--out", str(out)])
            assert r.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("args", [["--workers", "2"], ["--fresh-design"]])
    def test_removed_option_rejected(self, runner, tmp_path, args):
        """Neither option is offered: the worker count had no reader, and
        fresh designs come through --config."""
        cfg = self._cfg(tmp_path)
        out = tmp_path / "x.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg), "--seed", "7",
                                *args, "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert "No such option" in r.output and args[0] in r.output
        assert not out.exists()

    def test_fresh_design_from_config(self, runner, tmp_path):
        from musel.simulate import SimConfig, rows_to_csv, run_experiment
        cfg = self._cfg(tmp_path, fresh_design=True)
        out = tmp_path / "f.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg), "--seed", "5",
                                "--out", str(out), "--raw"])
        assert r.exit_code == 0, r.output
        rows, raw = run_experiment(
            SimConfig(seed=5, **json.loads(cfg.read_text())), collect_raw=True)
        assert out.read_text() == rows_to_csv(rows)
        assert (tmp_path / "f.csv.raw.json").read_text() == \
            json.dumps(raw, indent=2, sort_keys=True) + "\n"

    def test_dead_column_counts_as_failed(self, runner, tmp_path):
        """A mask that empties a whole column fails that replication's CMU
        (status dead_column); the run itself succeeds."""
        cfg = tmp_path / "dead.json"
        cfg.write_text(json.dumps({"n": 4, "p": 40, "s_list": [1],
                                   "delta_list": [0.05], "reps": 3,
                                   "pi_star": 0.5}))
        out = tmp_path / "d.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg), "--seed", "1",
                                "--out", str(out), "--raw"])
        assert r.exit_code == 0, r.output
        failed = {line.split(",")[0]: line.split(",")[-2]
                  for line in out.read_text().splitlines()[1:]}
        assert failed == {"MU": "0", "CMU": "3"}
        raw = json.loads((tmp_path / "d.csv.raw.json").read_text())
        assert [x["status"] for x in raw if x["estimator"] == "CMU"] == \
            ["dead_column"] * 3

    def test_all_masked_counts_as_failed(self, runner, tmp_path):
        """In estimated-pi mode a mask that hides every entry gives pi_hat =
        1: that replication fails for every estimator (status all_masked);
        the run itself succeeds."""
        cfg = tmp_path / "masked.json"
        cfg.write_text(json.dumps({"n": 2, "p": 1, "s_list": [1],
                                   "delta_list": [0.05], "reps": 5,
                                   "pi_star": 0.9, "pi_mode": "estimated"}))
        out = tmp_path / "m.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg), "--seed", "1",
                                "--out", str(out), "--raw"])
        assert r.exit_code == 0, r.output
        failed = {line.split(",")[0]: line.split(",")[-2]
                  for line in out.read_text().splitlines()[1:]}
        assert failed == {"MU": "3", "CMU": "3"}
        raw = json.loads((tmp_path / "m.csv.raw.json").read_text())
        for name in ("MU", "CMU"):
            assert [x["status"] for x in raw if x["estimator"] == name] == \
                ["all_masked", "optimal", "optimal", "all_masked", "all_masked"]

    def test_schema(self, runner, tmp_path):
        cfg = self._cfg(tmp_path)
        out = tmp_path / "t.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg),
                                "--seed", "3", "--out", str(out)])
        assert r.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2            # deltas x estimators

    @pytest.mark.parametrize("text, message", [
        ("5", "expected a JSON object of SimConfig overrides, got int"),
        ('"n"', "expected a JSON object of SimConfig overrides, got str"),
        ("[]", "expected a JSON object of SimConfig overrides, got list"),
        ("{bad", "not JSON"),
    ])
    def test_config_not_an_object(self, runner, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "x.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(path),
                                "--seed", "1", "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert message in r.output
        assert not out.exists()

    def test_unknown_key_named(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 10, "bogus_key": 1}))
        r = runner.invoke(cli, ["simulate", "--config", str(path),
                                "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert r.exit_code == 64
        assert "bogus_key" in r.output

    @pytest.mark.parametrize("rule", [{"kind": "fixed"}, {"mult": 0.4},
                                      {"kind": "noise-calibrated", "eps": 0},
                                      -0.1, "0.02"])
    def test_bad_tau_rule_is_usage_error(self, runner, tmp_path, rule):
        cfg = self._cfg(tmp_path, tau_rule=rule)
        out = tmp_path / "x.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg),
                                "--seed", "7", "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert "tau_rule must be" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("kw, message", [
        ({"n": 16.5}, "n must be an integer >= 2"),
        ({"n": 1}, "n must be an integer >= 2"),
        ({"p": 0}, "p must be an integer >= 1"),
        ({"reps": True}, "reps must be an integer >= 1"),
        ({"noise_sd": "x"}, "noise_sd must be finite and >= 0"),
        ({"noise_sd": -0.1}, "noise_sd must be finite and >= 0"),
        ({"theta_value": float("inf")}, "theta_value must be finite"),
        ({"delta_list": [-5]}, "every delta must be finite and >= 0"),
        ({"delta_list": [0.0, "0.1"]}, "every delta must be finite and >= 0"),
        ({"s_list": 1}, "s_list must be a list"),
        ({"delta_list": 0.1}, "delta_list must be a list"),
        ({"estimators": 3}, "estimators must be a list"),
        ({"s_list": [1.5]}, "every s must be an integer"),
        ({"s_list": [True]}, "every s must be an integer"),
        ({"s_list": [9]}, "every s must be an integer"),
        ({"pi_star": float("nan")}, "pi_star must lie in [0,1)"),
    ])
    def test_bad_number_is_usage_error(self, runner, tmp_path, kw, message):
        cfg = self._cfg(tmp_path, **kw)
        out = tmp_path / "x.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg),
                                "--seed", "7", "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert message in r.output
        assert not out.exists()

    def test_every_field_rejects_a_string(self, runner, tmp_path):
        """Each SimConfig field but seed, set to "x" in --config, is a usage
        error that writes no file, so a new field needs its own check."""
        from musel.simulate import SimConfig
        out = tmp_path / "x.csv"
        for f in dataclasses.fields(SimConfig):
            if f.name == "seed":
                continue
            cfg = self._cfg(tmp_path, **{f.name: "x"})
            r = runner.invoke(cli, ["simulate", "--config", str(cfg),
                                    "--seed", "7", "--out", str(out)])
            assert r.exit_code == 64, (f.name, r.output)
            assert not out.exists(), f.name

    def test_partial_tau_rule_takes_defaults(self, runner, tmp_path):
        """A noise-calibrated rule without mult or eps runs as the default
        rule: mult 0.4, eps 0.05."""
        blobs = []
        for kw in ({}, {"tau_rule": {"kind": "noise-calibrated"}}):
            cfg = self._cfg(tmp_path, **kw)
            out = tmp_path / f"t{len(blobs)}.csv"
            r = runner.invoke(cli, ["simulate", "--config", str(cfg),
                                    "--seed", "7", "--out", str(out)])
            assert r.exit_code == 0, r.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_preset_choices(self, runner, tmp_path):
        from musel.simulate import PRESETS
        r = runner.invoke(cli, ["simulate", "--help"])
        assert r.exit_code == 0
        assert f"[{'|'.join(sorted(PRESETS))}]" in r.output
        r = runner.invoke(cli, ["simulate", "--preset", "table9", "--seed", "1",
                                "--out", str(tmp_path / "x.csv")])
        assert r.exit_code == 64
        assert "'table9' is not one of 'reduced', 'table1'" in r.output

    def test_seed_required(self, runner, tmp_path):
        r = runner.invoke(cli, ["simulate", "--out", str(tmp_path / "x.csv")])
        assert r.exit_code == 64

    def test_raw_and_markdown(self, runner, tmp_path):
        cfg = self._cfg(tmp_path, delta_list=[0.0], estimators=["CMU"])
        out = tmp_path / "t.csv"
        r = runner.invoke(cli, ["simulate", "--config", str(cfg), "--seed", "9",
                                "--out", str(out), "--raw", "--markdown"])
        assert r.exit_code == 0
        raw = json.loads((tmp_path / "t.csv.raw.json").read_text())
        assert len(raw) == 2
        assert r.output.startswith("| estimator |")


@pytest.mark.parametrize("args, message", [
    (["estimate", "--design", "Z.csv", "--response", "y11.csv",
      "--mode", "dantzig", "--tau", "0.05"], "Z has 10 rows but y has 11"),
    (["sensitivity", "--gram", "wide.csv", "--s", "1", "--q", "inf"],
     "psi: must be square, got (2, 3)"),
    (["sensitivity", "--gram", "asym.csv", "--s", "1", "--q", "inf"],
     "psi: not symmetric within rtol 1e-12"),
    (["estimate", "--design", "Zcap.csv", "--response", "y2.csv",
      "--mode", "dantzig", "--tau", "0.05"],
     "Z: 2001 columns exceed cap 2000"),
], ids=["response-rows", "gram-not-square", "gram-asymmetric", "dim-cap"])
def test_bad_input_shape_is_usage_error(runner, data_dir, args, message):
    write_vector(data_dir / "y11.csv", np.ones(11))
    write_matrix(data_dir / "wide.csv", np.ones((2, 3)))
    write_matrix(data_dir / "asym.csv", np.array([[1.0, 0.5], [0.4, 1.0]]))
    write_matrix(data_dir / "Zcap.csv", np.ones((2, 2001)))
    write_vector(data_dir / "y2.csv", np.ones(2))
    args = [str(data_dir / a) if a.endswith(".csv") else a for a in args]
    r = runner.invoke(cli, args)
    assert r.exit_code == 64, r.output
    assert message in r.output


class TestSensitivity:
    def test_identity_exact(self, runner, data_dir):
        r = runner.invoke(cli, ["sensitivity", "--gram",
                                str(data_dir / "eye3.csv"), "--s", "1",
                                "--q", "inf"])
        assert r.exit_code == 0
        blob = json.loads(r.output)
        assert blob["value"] == pytest.approx(1.0, abs=1e-9)
        assert blob["kind"] == "exact"
        assert blob["lp_count"] > 0

    def test_star_coordinate(self, runner, data_dir):
        r = runner.invoke(cli, ["sensitivity", "--gram",
                                str(data_dir / "rho05.csv"), "--s", "1",
                                "--q", "star:1"])
        assert r.exit_code == 0
        blob = json.loads(r.output)
        assert blob["value"] == pytest.approx(0.5, abs=1e-9)
        assert blob["q"] == "star:1"

    def test_empirical_matches_library(self, runner, data_dir, rng):
        from musel.core import gram
        from musel.sensitivity import kappa_inf_exact
        Z = read_matrix(data_dir / "Z.csv")
        dhat = read_vector(data_dir / "dhat.csv")
        expect = kappa_inf_exact(gram(Z, dhat), 1).value
        r = runner.invoke(cli, ["sensitivity",
                                "--design", str(data_dir / "Z.csv"),
                                "--dhat", str(data_dir / "dhat.csv"),
                                "--s", "1", "--q", "inf"])
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, runner, data_dir, budget):
        out = data_dir / "k.json"
        r = runner.invoke(cli, ["sensitivity", "--gram",
                                str(data_dir / "eye3.csv"), "--s", "1",
                                "--q", "inf", "--budget", budget,
                                "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert "--budget" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        ([], "exactly one of --gram and --design"),
        (["--gram", "eye3.csv", "--design", "Z.csv"],
         "exactly one of --gram and --design"),
        (["--gram", "eye3.csv", "--dhat", "dhat.csv"], "--dhat needs --design"),
        (["--dhat", "dhat.csv"], "exactly one of --gram and --design"),
    ])
    def test_one_gram_source(self, runner, data_dir, monkeypatch, args,
                             message):
        monkeypatch.chdir(data_dir)
        r = runner.invoke(cli, ["sensitivity", *args, "--s", "1", "--q", "inf",
                                "--out", "k.json"])
        assert r.exit_code == 64, r.output
        assert message in r.output
        assert not (data_dir / "k.json").exists()

    @pytest.mark.parametrize("length", [1, 3])
    def test_empirical_dhat_of_wrong_length(self, runner, tmp_path, rng,
                                            length):
        write_matrix(tmp_path / "Z7.csv", rng.standard_normal((20, 7)))
        write_vector(tmp_path / "d.csv", np.full(length, 0.01))
        out = tmp_path / "k.json"
        r = runner.invoke(cli, ["sensitivity",
                                "--design", str(tmp_path / "Z7.csv"),
                                "--dhat", str(tmp_path / "d.csv"),
                                "--s", "1", "--q", "inf", "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert f"diag length {length} != p=7" in r.output
        assert not out.exists()

    # either way the third LP is the relaxation of anchor 2: kappa_inf_exact
    # runs its p anchor relaxations whatever the budget
    @pytest.mark.parametrize("extra, anchor", [([], 2), (["--budget", "1"], 2)])
    def test_failed_lp_exit_3(self, runner, tmp_path, third_lp_stops, extra,
                              anchor):
        from conftest import normalized_gram
        write_matrix(tmp_path / "g.csv", normalized_gram(4, 30, 3))
        out = tmp_path / "s.json"
        r = runner.invoke(cli, ["sensitivity", "--gram", str(tmp_path / "g.csv"),
                                "--s", "2", "--q", "inf", "--out", str(out),
                                *extra])
        assert r.exit_code == 3, r.output
        assert f"anchor={anchor}) ended iteration_limit" in r.output
        assert not out.exists()

    def test_kappa_star_failed_lp_exit_3(self, runner, tmp_path, lp_stops):
        from conftest import normalized_gram
        write_matrix(tmp_path / "g.csv", normalized_gram(7, 30, 5))
        out = tmp_path / "s.json"
        lp_stops(1)
        r = runner.invoke(cli, ["sensitivity", "--gram", str(tmp_path / "g.csv"),
                                "--s", "2", "--q", "star:3", "--budget", "71",
                                "--out", str(out)])
        assert r.exit_code == 3, r.output
        # below the plan of C(7, 2)*4 - 6*2 = 72 LPs the first LP is anchor
        # 0's relaxation
        assert "anchor=0) ended iteration_limit" in r.output
        assert not out.exists()

    def test_lower_bound_path(self, runner, tmp_path, rng):
        """Past the budget the walk answers with its lower bound: at p = 30,
        s = 3 one anchor visit is 1624 cone LPs, so a budget of 1000 stops
        after the 30 anchor relaxations."""
        from musel.sensitivity import kappa_lower_bound
        X = rng.standard_normal((40, 30))
        X -= X.mean(axis=0)
        X /= np.sqrt((X ** 2).mean(axis=0))
        write_matrix(tmp_path / "big.csv", X.T @ X / 40)
        r = runner.invoke(cli, ["sensitivity", "--gram",
                                str(tmp_path / "big.csv"), "--s", "3",
                                "--q", "inf", "--budget", "1000"])
        assert r.exit_code == 0, r.output
        blob = json.loads(r.output)
        assert (blob["kind"], blob["lp_count"], blob["certificate"]) == (
            "lower_bound", 30, None)
        assert blob["value"] == kappa_lower_bound(X.T @ X / 40, 3).value

    @pytest.mark.parametrize("q, lower", [("2", False), ("2", True),
                                          ("1", True)])
    def test_reduction_from_inf(self, runner, data_dir, q, lower):
        from musel.sensitivity import (kappa_inf_exact, kappa_lower_bound,
                                       kappa_q_from_inf)
        path = data_dir / "rho05.csv"
        psi = read_matrix(path)
        base = kappa_lower_bound(psi, 1) if lower else kappa_inf_exact(psi, 1)
        r = runner.invoke(cli, ["sensitivity", "--gram", str(path), "--s", "1",
                                "--q", q] + (["--budget", "1"] if lower else []))
        assert r.exit_code == 0, r.output
        blob = json.loads(r.output)
        assert blob["kind"] == "lower_bound"
        assert blob["q"] == float(q)
        assert blob["certificate"] is None
        assert blob["value"] == kappa_q_from_inf(base.value, 1, float(q))

    def test_out_bytes_repeat(self, runner, tmp_path):
        """The JSON is a function of the input alone: it carries no wall
        time, which differs from run to run."""
        from conftest import normalized_gram
        write_matrix(tmp_path / "psi.csv", normalized_gram(6, 20, 4))
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            r = runner.invoke(cli, ["sensitivity", "--gram",
                                    str(tmp_path / "psi.csv"), "--s", "2",
                                    "--q", "inf", "--out", str(out)])
            assert r.exit_code == 0, r.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert "wall_time" not in json.loads(blobs[0])

    def test_bad_q_usage_error(self, runner, data_dir):
        out = data_dir / "k.json"
        r = runner.invoke(cli, ["sensitivity", "--gram",
                                str(data_dir / "eye3.csv"), "--s", "1",
                                "--q", "3", "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert "bad --q '3'" in r.output
        assert not out.exists()

    def test_q2_reduction(self, runner, data_dir):
        r = runner.invoke(cli, ["sensitivity", "--gram",
                                str(data_dir / "eye3.csv"), "--s", "1",
                                "--q", "2"])
        assert r.exit_code == 0
        blob = json.loads(r.output)
        assert blob["value"] == pytest.approx(2 ** -0.5, abs=1e-9)
        assert blob["kind"] == "lower_bound"


class TestThresholds:
    BASE = ["thresholds", "--gamma-xi", "0.05", "--gamma-Xi", "0.2",
            "--m2", "1.0", "--eps", "0.05", "--p", "20"]

    def test_matches_library(self, runner):
        from musel.thresholds import NoiseParams, thresholds_for
        r = runner.invoke(cli, self.BASE + ["--n", "100"])
        assert r.exit_code == 0
        blob = json.loads(r.output)
        th = thresholds_for(NoiseParams(gamma_xi=0.05, gamma_Xi=0.2,
                                        epsilon=0.05, n=100, p=20, m2=1.0))
        assert blob["mu_eps"] == th.mu_eps
        assert blob["tau_eps"] == th.tau_eps
        assert blob["inputs"]["n"] == 100

    def test_doubling_n_shrinks_delta2_by_sqrt2(self, runner):
        vals = {}
        for n in ("100", "200", "400"):
            r = runner.invoke(cli, self.BASE + ["--n", n])
            vals[n] = json.loads(r.output)["delta2"]
        assert vals["200"] == pytest.approx(vals["100"] / np.sqrt(2), rel=1e-12)
        assert vals["400"] == pytest.approx(vals["100"] / 2, rel=1e-12)

    def test_bad_eps_usage_error(self, runner):
        r = runner.invoke(cli, ["thresholds", "--gamma-xi", "0.1",
                                "--gamma-Xi", "0.1", "--n", "10", "--p", "5",
                                "--eps", "1.5"])
        assert r.exit_code == 64

    @pytest.mark.parametrize("option, value", [
        ("--m2", "nan"), ("--m2", "inf"), ("--m4", "nan"),
        ("--gamma-Xi", "inf"), ("--gamma0", "inf"), ("--t0", "nan")])
    def test_non_finite_input_usage_error(self, runner, tmp_path, option,
                                          value):
        out = tmp_path / "t.json"
        r = runner.invoke(cli, self.BASE + ["--n", "100", option, value,
                                            "--out", str(out)])
        assert r.exit_code == 64, r.output
        assert "must be finite" in r.output
        assert not out.exists()

    def test_pi_enables_b(self, runner):
        r = runner.invoke(cli, self.BASE + ["--n", "100", "--m4", "1.0",
                                            "--pi", "0.1"])
        blob = json.loads(r.output)
        assert blob["b"] > 0
        assert blob["mu_eps"] == pytest.approx(
            blob["delta1"] + blob["delta4"] + blob["delta5"] + blob["b"])


def test_atomic_write_leaves_no_temp(tmp_path):
    from musel.io import atomic_write_text
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello")
    assert target.read_text() == "hello"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestOutDirectory:
    """``--out`` into a directory that does not exist is a usage error (64)
    that names the option, found before any work; nothing is written."""

    ARGS = {
        "estimate": ["--design", "Z.csv", "--response", "y.csv",
                     "--mode", "dantzig", "--tau", "0.1"],
        "simulate": ["--preset", "table1", "--seed", "1", "--raw"],
        "sensitivity": ["--gram", "eye3.csv", "--s", "1", "--q", "inf"],
        "thresholds": TestThresholds.BASE[1:] + ["--n", "100"],
    }

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_missing_directory(self, runner, data_dir, monkeypatch, command):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr("musel.simulate.run_experiment", no_replication)
        monkeypatch.chdir(data_dir)
        before = sorted(os.listdir(data_dir))
        r = runner.invoke(cli, [command, *self.ARGS[command],
                                "--out", os.path.join("nodir", "x.json")])
        assert r.exit_code == 64, r.output
        assert "Invalid value for '--out'" in r.output
        assert "directory 'nodir' does not exist" in r.output
        assert sorted(os.listdir(data_dir)) == before

    def test_directory_is_not_a_file(self, runner, data_dir):
        r = runner.invoke(cli, ["thresholds", *self.ARGS["thresholds"],
                                "--out", str(data_dir)])
        assert r.exit_code == 64, r.output
        assert "Invalid value for '--out'" in r.output

    def test_bare_file_name_writes(self, runner, data_dir, monkeypatch):
        monkeypatch.chdir(data_dir)
        r = runner.invoke(cli, ["thresholds", *self.ARGS["thresholds"],
                                "--out", "t.json"])
        assert r.exit_code == 0, r.output
        assert json.loads((data_dir / "t.json").read_text())["inputs"]["n"] == 100
