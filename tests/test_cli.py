import dataclasses
import json
import math
import warnings

import pytest

from prevratio import ToyConfig, fit_glm, methods, ratios, simulate_toy, write_csv
from prevratio.glm import fit_stack
from prevratio.cli import (DEFAULT_ESTIMATE_METHODS, RunConfig, main,
                           render_payload)


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


class TestRunConfig:
    def test_level_bounds(self):
        with pytest.raises(ValueError, match="level"):
            RunConfig(subcommand="estimate", level=0.4)
        with pytest.raises(ValueError, match="level"):
            RunConfig(subcommand="estimate", level=1.0)

    def test_boot_floor(self):
        with pytest.raises(ValueError, match="100"):
            RunConfig(subcommand="estimate", boot=50)
        RunConfig(subcommand="estimate", boot=0)
        RunConfig(subcommand="estimate", boot=100)

    def test_methods_non_empty(self):
        with pytest.raises(ValueError, match="methods"):
            RunConfig(subcommand="estimate", methods=())


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

        def counting_fit(ds, family_link, **kwargs):
            families.append(family_link)
            return fit_glm(ds, family_link, **kwargs)
        monkeypatch.setattr(ratios, "fit_glm", counting_fit)
        boot = ("--boot", "150", "--format", "json")
        _, out, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr", *boot)
        assert families.count("binomial-logit") == 151
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

        def counting_fit(ds, family_link, **kwargs):
            with open(log, "a") as fh:
                fh.write(family_link + "\n")
            return fit_glm(ds, family_link, **kwargs)
        monkeypatch.setattr(ratios, "fit_glm", counting_fit)
        workers(2)
        boot = ("--boot", "150", "--format", "json")
        _, out, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr", *boot)
        assert log.read_text().splitlines().count("binomial-logit") == 151
        workers(1)
        _, serial, _ = run_estimate(capsys, toy_csv, "--methods", "cpr,mpr", *boot)
        assert out == serial

    def test_boot_reuses_the_full_data_fit(self, capsys, toy_csv, monkeypatch, one_worker):
        full_fits = []

        def counting_stack(X, y, w, family_link, *args, **kwargs):
            full_fits.append(family_link)
            return fit_stack(X, y, w, family_link, *args, **kwargs)

        def counting_fit(ds, family_link, **kwargs):
            if kwargs.get("beta0") is None:
                full_fits.append(family_link)
            return fit_glm(ds, family_link, **kwargs)
        monkeypatch.setattr(methods, "fit_stack", counting_stack)
        monkeypatch.setattr(ratios, "fit_glm", counting_fit)
        boot = ("--boot", "100", "--format", "json")
        _, out, _ = run_estimate(capsys, toy_csv, "--methods", "por,cpr,mpr", *boot)
        assert full_fits == ["binomial-logit"]
        # the rows are those of POR alone and of the bootstrap alone
        _, por, _ = run_estimate(capsys, toy_csv, "--methods", "por", *boot)
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
