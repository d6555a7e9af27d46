import ctypes
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import types
import warnings

import pytest

import prevratio
from prevratio import ToyConfig, cli, glm, methods, ratios, simulate_toy, write_csv
from prevratio.glm import _irls, _refit
from prevratio.cli import DEFAULT_ESTIMATE_METHODS, main, render_payload


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    ds = simulate_toy(ToyConfig(n=400, seed=5))
    path = tmp_path_factory.mktemp("cli") / "toy.csv"
    write_csv(ds, path)
    return str(path)


@pytest.fixture(scope="module")
def strata_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "strata.csv"
    path.write_text("stratum,a,b,c,d\n1,10,90,5,95\n2,30,20,15,35\n")
    return str(path)


ESTIMATE_ARGS = ["estimate", "--outcome", "y", "--exposure", "x",
                 "--covariates", "z"]


def run_estimate(capsys, toy_csv, *extra):
    code = main(ESTIMATE_ARGS + ["--input", toy_csv] + list(extra))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, argv):
    """The message of the usage error that ``main(argv)`` exits with."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: prevratio [-h] {estimate,simulate,table} ...\n")
    return err.splitlines()[-1]


class TestUsageErrors:
    @pytest.fixture
    def subcommands(self, toy_csv, strata_csv):
        return (ESTIMATE_ARGS + ["--input", toy_csv], ["simulate"],
                ["table", "--input", strata_csv])

    def test_level_bounds(self, capsys, subcommands):
        for argv in subcommands:
            for level in ("0.4", "1.0"):
                assert usage_error(capsys, argv + ["--level", level]) == (
                    f"prevratio: error: level must be in (0.5, 1), got {level}")

    def test_boot_floor(self, capsys, toy_csv):
        for boot in ("50", "-5"):
            assert usage_error(capsys, ESTIMATE_ARGS + ["--input", toy_csv, "--boot", boot]) == (
                "prevratio: error: --boot needs at least 100 replicates (or 0 to disable), "
                f"got {boot}")

    def test_at_without_cpr(self, capsys, toy_csv):
        for methods in ("mpr", "por,mpr,robustpoisson"):
            assert usage_error(capsys, ESTIMATE_ARGS + ["--input", toy_csv, "--methods", methods,
                                                        "--at", "z=1.5"]) == (
                "prevratio: error: --at sets CPR's conditioning values; add cpr to --methods")

    def test_boot_without_cpr_or_mpr(self, capsys, toy_csv):
        for methods in ("por", "robustpoisson,logbinomial,schouten"):
            assert usage_error(capsys, ESTIMATE_ARGS + ["--input", toy_csv, "--methods", methods,
                                                        "--boot", "100"]) == (
                "prevratio: error: --boot resamples CPR and MPR; add cpr or mpr to --methods")

    def test_at_names_a_column_twice(self, capsys, toy_csv):
        for at in ("z=1,z=2", "z=1, z =1"):
            assert usage_error(capsys, ESTIMATE_ARGS + ["--input", toy_csv, "--at", at]) == (
                "prevratio: error: --at names column 'z' twice")

    def test_methods_non_empty(self, capsys, toy_csv):
        for argv in (ESTIMATE_ARGS + ["--input", toy_csv], ["simulate"]):
            assert usage_error(capsys, argv + ["--methods", ","]) == (
                "prevratio: error: no methods given")


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestGoldenText:
    """The default text of each subcommand, and the bootstrap's JSON, byte for byte."""

    def test_estimate(self, capsys, toy_csv):
        code, out, err = run_estimate(capsys, toy_csv)
        assert (code, out, err) == (0, (GOLDEN / "estimate.txt").read_text(), "")

    def test_estimate_boot(self, capsys, toy_csv):
        code, out, err = run_estimate(capsys, toy_csv, "--methods", "por,cpr,mpr",
                                      "--boot", "100", "--seed", "2")
        assert (code, out, err) == (0, (GOLDEN / "estimate_boot.txt").read_text(), "")

    def test_estimate_boot_json(self, capsys, toy_csv):
        # every digit of the bootstrap's intervals, which the text rounds to three
        code, out, err = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr",
                                      "--boot", "100", "--format", "json")
        assert (code, out, err) == (0, (GOLDEN / "estimate_boot.json").read_text(), "")

    def test_table(self, capsys, strata_csv):
        code = main(["table", "--input", strata_csv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, (GOLDEN / "table.txt").read_text(), "")

    def test_simulate(self, capsys):
        code = main(["simulate", "--reps", "100", "--n", "250", "--seed", "6",
                     "--methods", "cpr,mpr,por"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            0, (GOLDEN / "simulate.txt").read_text(), "")


class TestEstimate:
    def test_default_six_rows(self, capsys, toy_csv):
        code, out, _ = run_estimate(capsys, toy_csv)
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        # title + context + header + six method rows
        assert len(lines) == 9
        for method in DEFAULT_ESTIMATE_METHODS:
            assert any(l.strip().startswith(method + " ") for l in lines)
        assert out.count(" ok ") == 6

    def test_json_round_trips_to_text(self, capsys, toy_csv):
        _, text_out, _ = run_estimate(capsys, toy_csv)
        _, json_out, _ = run_estimate(capsys, toy_csv, "--format", "json")
        payload = json.loads(json_out)
        assert render_payload(payload, "text") == text_out

    def test_tsv_shape(self, capsys, toy_csv):
        code, out, _ = run_estimate(capsys, toy_csv, "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[:3] == ["method", "status", "pr"]
        assert len(lines) == 1 + len(DEFAULT_ESTIMATE_METHODS)
        pr = float(lines[1].split("\t")[2])
        assert 1.0 < pr < 4.0

    def test_estimates_are_plausible(self, capsys, toy_csv):
        _, out, _ = run_estimate(capsys, toy_csv, "--format", "json")
        rows = {r["method"]: r for r in json.loads(out)["rows"]}
        assert rows["POR"]["pr"] > rows["CPR"]["pr"]
        for method in ("CPR", "MPR", "LogBinomial", "RobustPoisson"):
            assert rows[method]["lower"] < rows[method]["pr"] < rows[method]["upper"]

    def test_mh_on_continuous_covariate_fails_softly(self, capsys, toy_csv):
        code, out, _ = run_estimate(capsys, toy_csv, "--methods", "mh,cpr")
        assert code == 0
        assert "failed" in out and "binary" in out
        assert out.count(" ok ") == 1

    def test_all_failed_exits_one(self, capsys, toy_csv):
        code, out, _ = run_estimate(capsys, toy_csv, "--methods", "mh")
        assert code == 1
        assert "failed" in out

    def test_at_changes_cpr(self, capsys, toy_csv):
        _, base, _ = run_estimate(capsys, toy_csv, "--methods", "cpr",
                                  "--format", "tsv")
        _, moved, _ = run_estimate(capsys, toy_csv, "--methods", "cpr",
                                   "--format", "tsv", "--at", "z=1.5")
        pr0 = float(base.splitlines()[1].split("\t")[2])
        pr1 = float(moved.splitlines()[1].split("\t")[2])
        assert pr0 != pr1
        assert "z=1.5" in moved

    def test_bootstrap_interval_noted_and_seeded(self, capsys, toy_csv):
        args = ("--methods", "mpr", "--boot", "150", "--seed", "3")
        _, first, _ = run_estimate(capsys, toy_csv, *args)
        _, second, _ = run_estimate(capsys, toy_csv, *args)
        assert first == second
        assert "percentile bootstrap, 150 reps, seed 3" in first

    def test_boot_fits_each_resample_once(self, capsys, toy_csv, monkeypatch, one_worker):
        families = []

        def counting_refit(fit, ds):
            families.append(fit.family_link)
            return _refit(fit, ds)
        monkeypatch.setattr(ratios, "_refit", counting_refit)
        boot = ("--boot", "150", "--format", "json")
        _, out, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr", *boot)
        assert families.count("binomial-logit") == 150
        rows = json.loads(out)["rows"]
        for row, method in zip(rows, ("cpr", "mpr")):
            _, alone, _ = run_estimate(capsys, toy_csv, "--methods", method, *boot)
            (single,) = json.loads(alone)["rows"]
            assert row["status"] == single["status"] == "ok"
            for key in ("pr", "lower", "upper", "se"):
                assert row[key] == pytest.approx(single[key], rel=1e-9)

    def test_boot_fits_each_resample_once_in_workers(self, capsys, toy_csv, monkeypatch,
                                                      workers, tmp_path):
        # each fit appends a line, so the children's fits are counted too
        log = tmp_path / "fits"

        def counting_refit(fit, ds):
            with open(log, "a") as fh:
                fh.write(fit.family_link + "\n")
            return _refit(fit, ds)
        monkeypatch.setattr(ratios, "_refit", counting_refit)
        workers(2)
        boot = ("--boot", "150", "--format", "json")
        _, out, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr", *boot)
        assert log.read_text().splitlines().count("binomial-logit") == 150
        workers(1)
        _, serial, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr", *boot)
        assert out == serial

    def test_boot_reuses_the_full_data_fit(self, capsys, toy_csv, monkeypatch, one_worker):
        # every Newton loop that starts cold is a full-data fit
        full_fits = []

        def counting_loop(X, y, w, family_link, column_names, start=None):
            if start is None:
                full_fits.append(family_link)
            return _irls(X, y, w, family_link, column_names, start)
        monkeypatch.setattr(glm, "_irls", counting_loop)
        boot = ("--boot", "100", "--format", "json")
        _, out, _ = run_estimate(capsys, toy_csv, "--methods", "por,cpr,mpr", *boot)
        assert full_fits == ["binomial-logit"]
        # the rows are those of POR alone and of the bootstrap alone
        _, por, _ = run_estimate(capsys, toy_csv, "--methods", "por", "--format", "json")
        _, boot_rows, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr", *boot)
        assert json.loads(out)["rows"] == (json.loads(por)["rows"]
                                           + json.loads(boot_rows)["rows"])

    @pytest.mark.parametrize("at", ["z=-1000", "x=1"])
    def test_boot_failure_of_one_estimator_keeps_the_other(self, capsys,
                                                           toy_csv, at):
        code, out, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr",
                                    "--boot", "100", "--at", at,
                                    "--format", "json")
        assert code == 0
        statuses = [r["status"] for r in json.loads(out)["rows"]]
        assert statuses == ["failed", "ok"]

    @pytest.mark.parametrize("at", ["z=-1000", "x=1"])
    def test_delta_cpr_failure_keeps_mpr(self, capsys, toy_csv, at):
        code, out, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr",
                                    "--at", at, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["status"] for r in rows] == ["failed", "ok"]
        assert list(rows[0]) == list(rows[1])  # a failed row has the columns of an ok one

    @pytest.mark.parametrize("boot", [(), ("--boot", "100")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_at_fails_cpr_only(self, capsys, toy_csv, value, boot):
        code, out, err = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr",
                                      "--at", f"z={value}", "--format", "json", *boot)
        assert code == 0
        assert err == ""
        rows = json.loads(out)["rows"]
        assert [r["status"] for r in rows] == ["failed", "ok"]
        assert "'z' must be finite" in rows[0]["notes"]

    @pytest.mark.parametrize("boot", [(), ("--boot", "100")])
    def test_overflowing_linear_predictor_fails_cpr_only(self, capsys, tmp_path, boot):
        # z's logistic coefficient is 1.53, so at z = 1.7e308 the linear predictor is inf
        cells = [(0, 0, 0, 6), (1, 0, 0, 1), (0, 1, 0, 5), (1, 1, 0, 2), (0, 0, 1, 3),
                 (1, 0, 1, 3), (0, 1, 1, 2), (1, 1, 1, 4), (0, 0, 2, 1), (1, 0, 2, 5),
                 (0, 1, 2, 1), (1, 1, 2, 6)]
        path = tmp_path / "steep.csv"
        path.write_text("y,x,z\n" + "".join(f"{y},{x},{z}\n" * k for y, x, z, k in cells))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_estimate(capsys, str(path), "--methods", "cpr,mpr",
                                          "--at", "z=1.7e308", "--format", "json", *boot)
        assert code == 0
        assert err == ""
        rows = json.loads(out)["rows"]
        assert [r["status"] for r in rows] == ["failed", "ok"]
        assert "linear predictor is not finite" in rows[0]["notes"]

    def test_programming_error_is_not_a_failed_row(self, capsys, toy_csv, monkeypatch):
        def broken(fit, ds, level, at):
            raise ValueError("a bug, not a property of the data")
        monkeypatch.setitem(methods.METHODS, "Schouten",
                            dataclasses.replace(methods.METHODS["Schouten"], from_fit=broken))
        code, out, err = run_estimate(capsys, toy_csv, "--methods", "mpr,schouten")
        assert code == 2
        assert out == ""
        assert "a bug" in err

    def test_non_finite_covariate_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("y,x,z\n1,1,0.5\n0,0,nan\n1,0,1.5\n0,1,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(ESTIMATE_ARGS + ["--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3: column 'z'" in err

    def test_repeated_covariate_is_input_error(self, capsys, toy_csv):
        code = main(["estimate", "--outcome", "y", "--exposure", "x", "--covariates", "z,z",
                     "--input", toy_csv])
        assert (code, *capsys.readouterr()) == (2, "", "error: covariate 'z' listed twice\n")

    @pytest.mark.parametrize("boot", [(), ("--boot", "100")])
    def test_failed_logistic_fit_fails_its_rows(self, capsys, tmp_path, boot):
        path = tmp_path / "flat.csv"
        path.write_text("y,x,z\n" + "".join(f"1,{i % 2},{i / 10}\n" for i in range(20)))
        code = main(ESTIMATE_ARGS + ["--input", str(path), "--methods", "cpr,mpr",
                                     "--format", "json", *boot])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 1
        assert [r["notes"] for r in rows] == [
            "outcome has no variation (weighted mean 1); coefficients diverge"] * 2

    def test_boot_interval_leaving_out_the_point_fails_its_row(self, capsys, tmp_path):
        # no case among the unexposed: MPR's resamples all lie far above its
        # full-data point, and more than a fifth of CPR's fail
        path = tmp_path / "separated.csv"
        write_csv(simulate_toy(ToyConfig(n=40, seed=54, baseline_prevalence=0.1, pr_at_z0=3.0,
                                         beta_z=1.0)), path)
        code = main(ESTIMATE_ARGS + ["--input", str(path), "--methods", "cpr,mpr,por",
                                     "--boot", "100", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 1
        assert [(r["method"], r["status"]) for r in rows] == [
            ("CPR", "failed"), ("MPR", "failed"), ("POR", "failed")]
        assert rows[0]["notes"].startswith("65 of 100 bootstrap replicates failed")
        assert rows[1]["notes"] == (
            "the percentile bootstrap interval (9.11261e+09, 3.2358e+11) leaves out the "
            "full-data estimate 3.94047e+08; the fit looks separated")
        assert rows[2]["notes"].startswith("the log-scale standard error")

    def test_boot_below_floor_rejected(self, capsys, toy_csv):
        with pytest.raises(SystemExit) as exc:
            run_estimate(capsys, toy_csv, "--boot", "50")
        assert exc.value.code == 2
        assert "100" in capsys.readouterr().err

    def test_bad_level_rejected(self, capsys, toy_csv):
        with pytest.raises(SystemExit) as exc:
            run_estimate(capsys, toy_csv, "--level", "0.4")
        assert exc.value.code == 2

    def test_unknown_method_rejected(self, capsys, toy_csv):
        with pytest.raises(SystemExit) as exc:
            run_estimate(capsys, toy_csv, "--methods", "magic")
        assert exc.value.code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        code = main(ESTIMATE_ARGS + ["--input", "/nonexistent/x.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_column_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("y,x\n1,0\n0,1\n")
        code = main(ESTIMATE_ARGS + ["--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "z" in err

    def test_negative_boot_seed_is_named(self, capsys, toy_csv):
        code, out, err = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr",
                                      "--boot", "100", "--seed", "-3")
        assert (code, out) == (2, "")
        assert err == "error: bootstrap seed must be non-negative, got -3\n"

    def test_method_aliases_accepted(self, capsys, toy_csv):
        code, out, _ = run_estimate(capsys, toy_csv, "--methods",
                                    "log-binomial,robust_poisson,crude")
        assert code == 0
        for label in ("LogBinomial", "RobustPoisson", "Crude"):
            assert label in out


class TestSimulate:
    def test_small_reps_rejected(self, capsys):
        code = main(["simulate", "--reps", "50"])
        assert code == 2
        assert "100" in capsys.readouterr().err

    def test_text_deterministic(self, capsys):
        args = ["simulate", "--reps", "100", "--n", "250", "--seed", "6",
                "--methods", "cpr,mpr,por"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        assert "CPR" in first and "coverage" in first

    def test_explicit_methods_keep_given_order(self, capsys):
        main(["simulate", "--reps", "100", "--n", "250", "--seed", "6",
              "--methods", "robustpoisson,logbinomial,por,cpr,mpr,schouten",
              "--format", "json"])
        blob = json.loads(capsys.readouterr().out)
        assert [m["method"] for m in blob["methods"]] == [
            "RobustPoisson", "LogBinomial", "POR", "CPR", "MPR", "Schouten"]

    def test_json_format_parses(self, capsys):
        main(["simulate", "--reps", "100", "--n", "250", "--seed", "6",
              "--methods", "cpr", "--format", "json"])
        blob = json.loads(capsys.readouterr().out)
        assert blob["study"]["replicates"] == 100
        assert blob["methods"][0]["method"] == "CPR"

    def test_json_failure_reasons_top_level(self, capsys):
        main(["simulate", "--reps", "100", "--n", "250", "--seed", "6",
              "--methods", "cpr,logbinomial", "--format", "json"])
        blob = json.loads(capsys.readouterr().out)
        assert set(blob) == {"study", "truth", "methods", "replicate_estimates",
                             "replicate_true_cpr", "failure_reasons"}
        for summary in blob["methods"]:
            reasons = blob["failure_reasons"][summary["method"]]
            assert sum(reasons.values()) == summary["n_failed"]

    def test_tiny_study_counts_degenerate_fits(self, capsys):
        code = main(["simulate", "--n", "10", "--reps", "100", "--format", "json"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        for summary in blob["methods"]:
            reasons = blob["failure_reasons"][summary["method"]]
            assert sum(reasons.values()) == summary["n_failed"]
        assert blob["failure_reasons"]["Schouten"]["DegenerateDenominatorError"] > 0

    def test_negative_seed_is_named(self, capsys):
        code = main(["simulate", "--seed", "-1", "--reps", "100", "--n", "50"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: seed must be non-negative, got -1\n"

    def test_out_writes_json_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["simulate", "--reps", "100", "--n", "250", "--seed", "6",
                     "--methods", "cpr", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        blob = json.loads(out.read_text())
        assert blob["study"]["seed"] == 6


class TestTable:
    def test_values_match_library(self, capsys, strata_csv):
        code = main(["table", "--input", strata_csv, "--format", "json"])
        assert code == 0
        rows = {r["method"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["MantelHaenszel"]["pr"] == pytest.approx(2.0, abs=1e-12)
        # pooled crude: a=40 b=110 c=20 d=130
        pooled = (40.0 / 150.0) / (20.0 / 150.0)
        assert rows["Crude"]["pr"] == pytest.approx(pooled, abs=1e-12)

    def test_text_output_mentions_strata(self, capsys, strata_csv):
        code = main(["table", "--input", strata_csv])
        assert code == 0
        out = capsys.readouterr().out
        assert "strata: 2" in out

    def test_json_round_trip(self, capsys, strata_csv):
        main(["table", "--input", strata_csv])
        text = capsys.readouterr().out
        main(["table", "--input", strata_csv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert render_payload(payload, "text") == text

    def test_byte_order_mark_names_no_column(self, capsys, tmp_path, strata_csv):
        # spreadsheet programs write a UTF-8 byte-order mark before the header
        bom = tmp_path / "bom.csv"
        bom.write_text("\ufeff" + pathlib.Path(strata_csv).read_text(), encoding="utf-8")
        runs = []
        for path in (strata_csv, str(bom)):
            code = main(["table", "--input", path, "--format", "json"])
            runs.append((code, json.loads(capsys.readouterr().out)["rows"]))
        assert runs[0][0] == 0 and runs[1] == runs[0]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_count_is_data_error(self, capsys, tmp_path, value):
        path = tmp_path / "strata.csv"
        path.write_text(f"stratum,a,b,c,d\n1,10,90,5,95\n2,30,{value},15,35\n")
        code = main(["table", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"error: {path}, line 3: column 'b' is {float(value)!r}, "
                                "not a finite number\n")

    def test_error_cites_the_line_its_record_starts_on(self, capsys, tmp_path):
        # the "x" sits on line 4, below a stratum name that spans two lines
        path = tmp_path / "strata.csv"
        path.write_text('stratum,a,b,c,d\n"s\n1",1,2,3,4\n2,x,2,3,4\n')
        assert main(["table", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}, line 4: could not convert string to float: 'x'\n")


def test_console_entry_point(toy_csv):
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-m", "prevratio.cli"] + ESTIMATE_ARGS
        + ["--input", toy_csv],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "MPR" in result.stdout


def fresh_run(*args):
    """Stdout of a fresh interpreter on this checkout, with no OpenBLAS thread count set.

    Importing ``prevratio.cli`` set one in this process's environment.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(prevratio.__file__))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestBlasPolicy:
    """The command loads OpenBLAS with one thread; the package alone leaves it be."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads in /proc/self/task")
    def test_cli_import_runs_one_thread(self):
        # numpy's OpenBLAS starts a helper thread per further core on load
        assert fresh_run("-c", "import os, prevratio.cli; "
                               "print(len(os.listdir('/proc/self/task')))") == "1\n"

    def test_package_import_loads_no_numpy(self):
        assert fresh_run("-c", "import os, sys, prevratio; print('numpy' in sys.modules, "
                               "os.environ.get('OPENBLAS_NUM_THREADS'))") == "False None\n"

    def test_thread_count_moves_no_number(self, capsys, toy_csv):
        # conftest loaded numpy before prevratio.cli, so this process's
        # OpenBLAS keeps numpy's default threads; the fresh command has one
        argv = ESTIMATE_ARGS + ["--input", toy_csv, "--format", "json", "--boot", "100"]
        assert main(argv) == 0
        assert fresh_run("-m", "prevratio.cli", *argv) == capsys.readouterr().out


class TestGcPolicy:
    """``main`` leaves the objects alive when it starts out of every collection."""

    def test_cli_import_freezes_nothing(self):
        assert fresh_run("-c", "import gc, prevratio.cli; print(gc.get_freeze_count())") == "0\n"

    def test_main_freezes_the_heap(self, strata_csv):
        out = fresh_run("-c", "import gc, sys, prevratio.cli\n"
                              "prevratio.cli.main(['table', '--input', sys.argv[1]])\n"
                              "print(gc.get_freeze_count() > 0)", strata_csv)
        assert out.endswith("\nTrue\n") and "MantelHaenszel" in out


class TestMallocPolicy:
    """``main`` keeps freed heap memory for reuse, where libc is glibc."""

    def test_main_sets_both_thresholds(self, monkeypatch, capsys, strata_csv):
        opened, calls = [], []

        def fake_cdll(name, *args, **kwargs):
            opened.append(name)
            return types.SimpleNamespace(mallopt=lambda *a: calls.append(a) or 1)

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert main(["table", "--input", strata_csv]) == 0
        capsys.readouterr()
        assert opened == [None]
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("libc", ["no mallopt", "no libc"])
    def test_missing_mallopt_is_silent(self, monkeypatch, capsys, strata_csv, libc):
        assert main(["table", "--input", strata_csv]) == 0
        expected = capsys.readouterr()

        def fake_cdll(name, *args, **kwargs):
            if libc == "no libc":
                raise OSError("no such library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert main(["table", "--input", strata_csv]) == 0
        assert capsys.readouterr() == expected

    def test_glibc_accepts_the_thresholds(self):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is None:
            pytest.skip("libc has no mallopt")
        # mallopt returns 1 on success, 0 for a value out of range
        assert mallopt(cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD) == 1
        assert mallopt(cli._M_TRIM_THRESHOLD, cli._TRIM_THRESHOLD) == 1

    def test_import_leaves_the_allocator_alone(self):
        import subprocess
        import sys
        probe = ("import ctypes, numpy\n"
                 "opened = []\n"
                 "real = ctypes.CDLL\n"
                 "ctypes.CDLL = lambda *a, **k: opened.append(a) or real(*a, **k)\n"
                 "import prevratio.cli\n"
                 "print(opened)\n")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
