"""The batched IRLS kernel, the blocked replication study and the numpy-only runtime."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest
import scipy.special

import prevratio
from prevratio import (Dataset, INTERCEPT_NAME, NonConvergenceError,
                       NonIdentifiableError, PrevRatioError, ToyConfig,
                       conditional_pr, crude_pr, crude_table, fit_glm,
                       log_binomial_pr, marginal_pr, prevalence_odds_ratio,
                       replication_study, robust_poisson_pr, schouten_pr,
                       simulate_toy)
from prevratio.glm import expit, fit_stack
from prevratio.linalg import cholesky_stack
from prevratio.methods import _stack
from prevratio.variance import ndtri

FAMILIES = ("binomial-logit", "binomial-log", "poisson-log")
NAMES = (INTERCEPT_NAME, "x", "z")


def toy_block(count, n=300, seed=3):
    cfg = ToyConfig(n=n, seed=seed)
    return [simulate_toy(cfg, replicate=r) for r in range(count)]


def infeasible_log_binomial(n=300):
    """A strong continuous covariate pushes fitted prevalences to 1."""
    rng = np.random.default_rng(42)
    x = (rng.random(n) < 0.5).astype(float)
    z = 2.0 * rng.standard_normal(n)
    p = 1.0 / (1.0 + np.exp(-(-0.3 + 0.7 * x + 2.2 * z)))
    y = (rng.random(n) < p).astype(float)
    return Dataset(y=y, X=np.column_stack([np.ones(n), x, z]), column_names=NAMES)


def bad_replicates(n=300):
    """One dataset per failure mode, each the width of ``toy_block``'s."""
    ds = toy_block(1, n=n, seed=8)[0]
    collinear = Dataset(y=ds.y, X=np.column_stack([ds.X[:, :2], 2.0 * ds.X[:, 1]]),
                        column_names=NAMES)
    flat = Dataset(y=np.zeros(n), X=ds.X, column_names=NAMES)
    return {"collinear": collinear, "flat": flat, "infeasible": infeasible_log_binomial(n)}


def fit_block(datasets, family):
    return fit_stack(*_stack(datasets), family, NAMES)


def column_major(datasets):
    """X, y and weight stacks laid out as ``_stack`` lays out two or more, for any count."""
    # (R, p, n) in C order, so each problem's design is stored column by column
    return (np.ascontiguousarray([d.X.T for d in datasets]).transpose(0, 2, 1),
            np.stack([d.y for d in datasets]), np.stack([d.weights for d in datasets]))


def same_fit(a, b):
    return (np.array_equal(a.beta, b.beta) and np.array_equal(a.vcov, b.vcov)
            and np.array_equal(a.fitted, b.fitted) and a.iterations == b.iterations
            and a.deviance_path == b.deviance_path)


class TestKernelMatchesSingleFits:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("column_major", [False, True])
    def test_each_replicate_as_if_alone(self, family, column_major):
        block = toy_block(12)
        stacks = _stack(block) if column_major else (
            np.stack([d.X for d in block]), np.stack([d.y for d in block]),
            np.stack([d.weights for d in block]))
        for ds, batched in zip(block, fit_stack(*stacks, family, NAMES)):
            alone = fit_glm(ds, family)
            assert batched.beta == pytest.approx(alone.beta, rel=1e-10, abs=1e-13)
            assert batched.vcov == pytest.approx(alone.vcov, rel=1e-10, abs=1e-15)
            assert abs(batched.iterations - alone.iterations) <= 1
            assert batched.deviance == pytest.approx(alone.deviance, rel=1e-12)

    def test_warm_start_per_problem(self):
        block = toy_block(4)
        cold = fit_block(block, "binomial-logit")
        starts = np.stack([f.beta for f in cold])
        warm = fit_stack(*_stack(block), "binomial-logit", NAMES, beta0=starts)
        for c, w in zip(cold, warm):
            assert w.beta == pytest.approx(c.beta, rel=1e-10, abs=1e-12)
            assert w.iterations < c.iterations

    def test_start_shape_checked(self):
        with pytest.raises(ValueError, match="beta0"):
            fit_stack(*_stack(toy_block(2)), "binomial-logit", NAMES, beta0=np.zeros((1, 3)))


class TestOneBadReplicate:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", ["collinear", "flat", "infeasible"])
    def test_others_unchanged_and_error_as_alone(self, family, kind):
        bad = bad_replicates()[kind]
        good = toy_block(7)
        clean = fit_block(good, family)
        mixed = fit_block(good[:3] + [bad] + good[3:], family)
        assert all(same_fit(a, b) for a, b in zip(clean, mixed[:3] + mixed[4:]))
        try:
            alone = fit_glm(bad, family)
        except PrevRatioError as err:
            assert type(mixed[3]) is type(err)
            assert str(mixed[3]) == str(err)
        else:
            assert same_fit(mixed[3], fit_stack(*column_major([bad]), family, NAMES)[0])
            assert mixed[3].beta == pytest.approx(alone.beta, rel=1e-10)

    @pytest.mark.parametrize("max_iter", [0, 2])
    def test_iteration_limit_per_problem(self, max_iter):
        block = toy_block(3)
        results = fit_stack(*_stack(block), "binomial-logit", NAMES, max_iter=max_iter)
        for ds, result in zip(block, results):
            with pytest.raises(NonConvergenceError) as err:
                fit_glm(ds, "binomial-logit", max_iter=max_iter)
            assert isinstance(result, NonConvergenceError)
            assert str(result) == str(err.value)
            assert result.iterations == err.value.iterations == max_iter

    def test_failure_modes_are_the_expected_errors(self):
        bad = bad_replicates()
        results = fit_block([bad["collinear"], bad["flat"], bad["infeasible"]], "binomial-log")
        assert isinstance(results[0], NonIdentifiableError)
        assert "'z'" in str(results[0])
        assert isinstance(results[1], NonConvergenceError)
        assert "no variation" in str(results[1])
        assert isinstance(results[2], NonConvergenceError)
        assert results[2].iterations >= 1


def test_cholesky_stack_names_each_bad_column():
    good = np.array([[4.0, 2.0], [2.0, 3.0]])
    stack = np.stack([good, [[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
                      [[-1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1e-14]], good])
    L, bad = cholesky_stack(stack)
    assert bad.tolist() == [-1, 1, 0, 0, 1, -1]
    assert np.array_equal(L[0], np.linalg.cholesky(good))
    assert np.array_equal(L[5], L[0])


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_weight_padding_leaves_fit_unchanged(family):
    ds = toy_block(1, n=400)[0]
    pad = 137
    X = np.vstack([ds.X, np.repeat(ds.X[:1], pad, axis=0)])
    y = np.concatenate([ds.y, np.repeat(ds.y[:1], pad)])
    w = np.concatenate([ds.weights, np.zeros(pad)])
    padded = fit_stack(X[None], y[None], w[None], family, NAMES)[0]
    alone = fit_glm(ds, family)
    assert padded.beta == pytest.approx(alone.beta, rel=1e-12, abs=1e-14)
    assert padded.vcov == pytest.approx(alone.vcov, rel=1e-12)
    assert padded.deviance == pytest.approx(alone.deviance, rel=1e-12)


def test_single_fit_never_copies_its_design():
    rng = np.random.default_rng(0)
    n, p = 100_000, 20
    X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float),
                         rng.standard_normal((n, p - 2))])
    y = (rng.random(n) < expit(-0.5 + 0.4 * X[:, 1] + 0.1 * X[:, 2])).astype(float)
    ds = Dataset(y=y, X=X, column_names=tuple(f"c{j}" for j in range(p)))
    tracemalloc.start()
    try:
        fit = fit_glm(ds, "binomial-logit")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.iterations >= 3
    assert peak < ds.X.nbytes


class TestSeparatedData:
    """Separated data end in a finite fit or a typed error naming a column."""

    @staticmethod
    def quasi_separated():
        # every exposed row is a case; z separates the one unexposed case
        rng = np.random.default_rng(227)
        n = 40
        x = (rng.random(n) < 0.5).astype(float)
        y = np.where(x == 1.0, 1.0, (rng.random(n) < 0.25).astype(float))
        z = rng.standard_normal(n)
        return Dataset(y=y, X=np.column_stack([np.ones(n), x, z]), column_names=NAMES)

    @staticmethod
    def completely_separated():
        x = np.repeat([1.0, 0.0], 20)
        return Dataset(y=x, X=np.column_stack([np.ones(40), x]),
                       column_names=(INTERCEPT_NAME, "x"))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("which", ["quasi_separated", "completely_separated"])
    def test_finite_fit_or_named_error(self, family, which):
        ds = getattr(self, which)()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                fit = fit_glm(ds, family)
            except PrevRatioError as err:
                assert any(repr(name) in str(err) for name in ds.column_names), str(err)
                return
        assert np.isfinite(fit.beta).all() and np.isfinite(fit.vcov).all()

    def test_poisson_vcov_failure_is_typed(self):
        with pytest.raises(NonIdentifiableError, match=r"column 1, 'x'"):
            fit_glm(self.completely_separated(), "poisson-log")


class TestBlockedStudy:
    def test_matches_one_at_a_time_estimates(self):
        cfg = ToyConfig(n=300, seed=6)
        methods = ("CPR", "MPR", "POR", "LogBinomial", "RobustPoisson", "Schouten",
                   "Crude")
        report = replication_study(cfg, 100, methods=methods)
        run = {
            "CPR": lambda ds: conditional_pr(fit_glm(ds, "binomial-logit"), ds),
            "MPR": lambda ds: marginal_pr(fit_glm(ds, "binomial-logit"), ds),
            "POR": lambda ds: prevalence_odds_ratio(fit_glm(ds, "binomial-logit")),
            "LogBinomial": log_binomial_pr,
            "RobustPoisson": robust_poisson_pr,
            "Schouten": schouten_pr,
            "Crude": lambda ds: crude_pr(crude_table(ds)),
        }
        for r in range(100):
            ds = simulate_toy(cfg, replicate=r)
            for m in methods:
                try:
                    want = run[m](ds).point
                except PrevRatioError:
                    want = None
                got = report.replicate_estimates[m][r]
                if want is None:
                    assert got is None, (m, r)
                else:
                    assert got == pytest.approx(want, rel=1e-8), (m, r)

    def test_failure_reasons_by_type(self):
        report = replication_study(ToyConfig(n=300, seed=1, baseline_prevalence=0.45), 100,
                                   methods=("LogBinomial", "CPR"))
        assert report.summary("LogBinomial").n_failed > 0
        for s in report.summaries:
            assert sum(report.failure_reasons[s.method].values()) == s.n_failed
        assert set(report.failure_reasons["LogBinomial"]) == {"NonConvergenceError"}
        blob = report.to_dict()
        assert blob["failure_reasons"] == {m: dict(v) for m, v in report.failure_reasons.items()}
        assert all("failure_reasons" not in m for m in blob["methods"])
        assert "failure_reasons" not in blob["study"]
        assert "NonConvergenceError" not in report.to_text()


class TestNumpyOnlySpecialFunctions:
    TAILS = [np.finfo(float).tiny, 1e-300, 1.0 - 2.0**-53, 0.075, 0.925, 0.5,
             0.5 - 2.0**-54, 1e-10, 1.0 - 1e-10]

    def test_ndtri_is_normal_dist_bit_for_bit(self):
        # the tails take a log, which numpy's vectorized log would round
        # differently for a few in ten thousand of these draws
        rng = np.random.default_rng(12)
        tail = rng.random(100_000) * 0.075
        p = np.concatenate([rng.random(20_000), tail, 1.0 - tail, rng.random(2_000) * 1e-12,
                            self.TAILS])
        want = np.array([NormalDist().inv_cdf(v) for v in p])
        assert np.array_equal(ndtri(p), want)

    def test_ndtri_near_scipy(self):
        # scipy's ndtri is Cephes, a different approximation; the two
        # differ by up to 7 ulp on these draws
        rng = np.random.default_rng(13)
        p = np.concatenate([rng.random(20_000), self.TAILS])
        ours, theirs = ndtri(p), scipy.special.ndtri(p)
        assert np.all(np.abs(ours - theirs) <= 8 * np.spacing(np.abs(theirs)))

    def test_ndtri_domain(self):
        for bad in (0.0, 1.0, -0.1, np.nan):
            with pytest.raises(ValueError):
                ndtri(np.array([0.3, bad]))

    def test_expit_extremes_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = expit(np.array([-800.0, 800.0, 0.0]))
        assert values.tolist() == [0.0, 1.0, 0.5]

    def test_expit_near_scipy(self):
        # numpy's vectorized exp may differ from the C library's by one ulp,
        # which the two formulas can turn into a few ulp of the result
        rng = np.random.default_rng(14)
        x = np.concatenate([rng.standard_normal(50_000) * 20,
                            rng.uniform(-700.0, 700.0, 10_000)])
        ours, theirs = expit(x), scipy.special.expit(x)
        assert np.all(np.abs(ours - theirs) <= 4 * np.spacing(theirs))

    def test_expit_is_the_two_branch_formula_bit_for_bit(self):
        def two_branch(x):
            e = np.exp(-np.abs(x))
            return np.where(x >= 0.0, 1.0, e) / (1.0 + e)
        rng = np.random.default_rng(15)
        special = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 5e-324, -5e-324,
                   1e-300, -1e-300, 36.7, -36.7, 709.8, -745.2, -746.0]
        x = np.concatenate([special, rng.standard_normal(200_000) * 3,
                            rng.standard_normal(200_000) * 300,
                            rng.uniform(-1e-8, 1e-8, 20_000)])
        assert np.array_equal(expit(x).view(np.uint64), two_branch(x).view(np.uint64))
        # a NaN stays a NaN; its sign bit, which no output shows, may differ
        assert np.isnan(expit(np.array([np.nan, -np.nan]))).all()

    def test_cli_import_loads_no_scipy(self):
        # nor a process pool: resampling forks without one, at no import cost
        src = os.path.dirname(os.path.dirname(prevratio.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, prevratio.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                " or m.startswith(('multiprocessing', 'concurrent.futures'))))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

