"""The method registry: names, aliases, and the one estimation path."""

import json
import os

import numpy as np
import pytest

from prevratio import (INTERCEPT_NAME, METHOD_LABELS, Dataset, ModelSpec, NonConvergenceError,
                       ToyConfig, conditional_pr, crude_pr, crude_table, fit_glm, load_csv,
                       log_binomial_pr, mantel_haenszel_pr, marginal_pr,
                       prevalence_odds_ratio, replication_study, robust_poisson_pr,
                       schouten_pr, simulate_toy, stratified_from_dataset, write_csv)
from prevratio.cli import _parse_methods, main
from prevratio.data import _block_of
from prevratio.methods import ALIASES, METHODS, dataset_fits, estimate
from prevratio.simulate import _simulate_block

# every spelling the command line accepted before the registry, to its method
OLD_ALIASES = {
    "por": "POR",
    "cpr": "CPR",
    "mpr": "MPR",
    "logbinomial": "LogBinomial",
    "log-binomial": "LogBinomial",
    "robustpoisson": "RobustPoisson",
    "robust-poisson": "RobustPoisson",
    "poisson": "RobustPoisson",
    "mh": "MantelHaenszel",
    "mantelhaenszel": "MantelHaenszel",
    "mantel-haenszel": "MantelHaenszel",
    "schouten": "Schouten",
    "crude": "Crude",
}

PUBLIC = {
    "CPR": lambda ds: conditional_pr(fit_glm(ds, "binomial-logit"), ds),
    "MPR": lambda ds: marginal_pr(fit_glm(ds, "binomial-logit"), ds),
    "POR": lambda ds: prevalence_odds_ratio(fit_glm(ds, "binomial-logit")),
    "LogBinomial": log_binomial_pr,
    "RobustPoisson": robust_poisson_pr,
    "Schouten": schouten_pr,
    "Crude": lambda ds: crude_pr(crude_table(ds)),
    "MantelHaenszel": lambda ds: mantel_haenszel_pr(stratified_from_dataset(ds)),
}

SPEC = ModelSpec(outcome="y", exposure="x", covariates=("c1", "c2"))


@pytest.fixture(scope="module")
def binary_csv(tmp_path_factory):
    """Binary exposure and covariates, so every method, Mantel-Haenszel included, runs."""
    rng = np.random.default_rng(41)
    n = 600
    x = (rng.random(n) < 0.4).astype(float)
    c1 = (rng.random(n) < 0.5).astype(float)
    c2 = (rng.random(n) < 0.3).astype(float)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(-1.4 + 0.7 * x + 0.4 * c1 - 0.3 * c2)))
         ).astype(float)
    ds = Dataset(y=y, X=np.column_stack([np.ones(n), x, c1, c2]),
                 column_names=(INTERCEPT_NAME, "x", "c1", "c2"), spec=SPEC)
    path = tmp_path_factory.mktemp("methods") / "binary.csv"
    write_csv(ds, path)
    return str(path)


def cli_rows(capsys, path, methods, *extra):
    code = main(["estimate", "--input", path, "--outcome", "y", "--exposure", "x",
                 "--covariates", "c1,c2", "--methods", ",".join(methods),
                 "--format", "json", *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)["rows"]


class TestNames:
    def test_registry_holds_every_label(self):
        assert set(METHODS) == set(METHOD_LABELS)
        assert all(name == m.name for name, m in METHODS.items())

    def test_labels_in_registry_order(self):
        # the order the study lists methods in
        assert METHOD_LABELS == ("CPR", "MPR", "POR", "LogBinomial", "RobustPoisson",
                                 "Schouten", "Crude", "MantelHaenszel")

    def test_old_aliases_resolve_to_the_same_method(self):
        assert ALIASES == OLD_ALIASES
        for alias, name in OLD_ALIASES.items():
            assert _parse_methods(alias) == (name,)
            assert _parse_methods(alias.upper().replace("-", "_")) == (name,)
            assert _parse_methods(f"{alias},{alias.upper()}") == (name,)

    def test_study_order_and_targets(self):
        assert list(METHODS) == ["CPR", "MPR", "POR", "LogBinomial", "RobustPoisson",
                                 "Schouten", "Crude", "MantelHaenszel"]
        assert {name: m.target for name, m in METHODS.items()} == {
            "CPR": "cpr", "MPR": "mpr", "POR": "por", "LogBinomial": "mpr",
            "RobustPoisson": "mpr", "Schouten": "mpr", "Crude": "mpr", "MantelHaenszel": None}
        with pytest.raises(ValueError) as err:
            replication_study(ToyConfig(), 100, methods=("MantelHaenszel",))
        assert str(err.value).endswith(
            "choose from ('CPR', 'MPR', 'POR', 'LogBinomial', 'RobustPoisson', "
            "'Schouten', 'Crude')")


class TestOneEstimationPath:
    @pytest.mark.parametrize("method", list(PUBLIC))
    def test_cli_equals_public_estimator(self, capsys, binary_csv, method):
        (row,) = cli_rows(capsys, binary_csv, [method])
        est = PUBLIC[method](load_csv(binary_csv, SPEC))
        assert row["status"] == "ok"
        iv = est.interval
        assert (row["pr"], row["lower"], row["upper"], row["se"]) == (
            iv.point, iv.lower, iv.upper, iv.se)

    def test_all_methods_at_once_equal_each_alone(self, capsys, binary_csv):
        together = cli_rows(capsys, binary_csv, list(PUBLIC))
        for row in together:
            assert [row] == cli_rows(capsys, binary_csv, [row["method"]])

    def test_cli_at_equals_public_cpr(self, capsys, binary_csv):
        (row,) = cli_rows(capsys, binary_csv, ["CPR"], "--at", "c1=1")
        ds = load_csv(binary_csv, SPEC)
        est = conditional_pr(fit_glm(ds, "binomial-logit"), ds, at={"c1": 1.0})
        assert (row["pr"], row["lower"], row["upper"]) == (
            est.interval.point, est.interval.lower, est.interval.upper)
        assert row["notes"].startswith("at c1=1, c2=")


    def test_fixed_notes(self, capsys, binary_csv):
        rows = cli_rows(capsys, binary_csv, ["RobustPoisson", "Schouten", "MPR", "MH"])
        assert [r["notes"] for r in rows] == [
            "HC0 sandwich SE", "sandwich SE on duplicated rows", "", "4 strata"]

    @pytest.mark.parametrize("methods, boot, warned", [
        ("cpr,schouten", (), True),
        ("por,cpr,mpr", ("--boot", "100"), True),
        ("cpr,mpr", ("--boot", "100"), True),  # the bootstrap starts from the logistic fit
        ("robustpoisson,schouten", (), False),
    ])
    def test_separation_warnings_from_the_logistic_fit(self, capsys, tmp_path, methods,
                                                       boot, warned):
        # every exposed row is a case
        path = tmp_path / "separated.csv"
        path.write_text("y,x,z\n" + "".join(
            f"{y},{x},{z}\n" for y, x, z in ((1, 1, 0.3), (1, 1, -0.2), (1, 1, 1.1),
                                             (1, 1, 0.5), (1, 1, -0.7), (1, 1, 0.9),
                                             (0, 0, 0.1), (1, 0, -0.4), (0, 0, 1.2),
                                             (0, 0, -1.0), (1, 0, 0.6), (0, 0, 0.2))))
        main(["estimate", "--input", str(path), "--outcome", "y", "--exposure", "x",
              "--covariates", "z", "--methods", methods, *boot])
        err = capsys.readouterr().err
        assert ("warning: coefficient for 'x'" in err) == warned
        assert ("possible separation" in err) == warned


class TestPublicEstimators:
    def test_every_method_names_the_dataset_exposure(self, binary_csv):
        # the crude and Mantel-Haenszel tables know no names; the registry's
        # estimate labels them as the fitted methods are labelled
        ds = load_csv(binary_csv, ModelSpec(outcome="y", exposure="c1", covariates=("x", "c2")))
        fits = dataset_fits(ds, METHOD_LABELS)
        assert {estimate(m, fits, ds, 0.95).exposure for m in METHOD_LABELS} == {"c1"}

    def test_log_binomial_failure_is_the_fit_error(self):
        # a prevalence near 1 at high z: the log-binomial fit fails here
        ds = simulate_toy(ToyConfig(baseline_prevalence=0.40, pr_at_z0=2.2, beta_z=1.0, seed=0))
        with pytest.raises(NonConvergenceError) as fit_err:
            fit_glm(ds, "binomial-log")
        with pytest.raises(NonConvergenceError) as est_err:
            log_binomial_pr(ds)
        assert type(est_err.value) is type(fit_err.value)
        assert str(est_err.value) == str(fit_err.value)
        assert (est_err.value.iterations, est_err.value.deviance) == (
            fit_err.value.iterations, fit_err.value.deviance)

    @pytest.mark.parametrize("estimator", [schouten_pr, robust_poisson_pr, log_binomial_pr])
    def test_one_fit_starts_no_child_process(self, monkeypatch, binary_csv, estimator):
        def fork():
            pytest.fail("a single estimate forked a child process")
        monkeypatch.setattr(os, "fork", fork)
        assert np.isfinite(estimator(load_csv(binary_csv, SPEC)).point)


class TestStack:
    def test_block_of_one_is_a_view(self, binary_csv):
        ds = load_csv(binary_csv, SPEC)
        X, y, w, names = _block_of(ds)
        assert names == ds.column_names
        assert X.shape == (1, ds.n, 4) and y.shape == w.shape == (1, ds.n)
        for stacked, own in ((X, ds.X), (y, ds.y), (w, ds.weights)):
            assert np.shares_memory(stacked, own)

    def test_larger_block_is_a_column_major_copy(self):
        # the study writes each replicate's design column by column; a
        # replicate drawn alone is its own dataset, equal to its block row
        cfg = ToyConfig(n=50, seed=3)
        X, y, w, _ = _simulate_block(cfg, range(2))
        ds = simulate_toy(cfg, replicate=1)
        assert not np.shares_memory(X, ds.X)
        assert X.strides[1] == 8 and np.array_equal(X[1], ds.X)
        assert np.array_equal(y[1], ds.y) and np.array_equal(w[1], ds.weights)
