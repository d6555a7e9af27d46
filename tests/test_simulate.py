import dataclasses
import json
import math
from statistics import NormalDist, _normal_dist_inv_cdf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from prevratio import (DEFAULT_STUDY_METHODS, InvalidArgumentError, PrevRatioError, ToyConfig,
                       dgp_coefficients, replication_study, simulate_toy, true_conditional_pr,
                       true_marginal_pr)
from prevratio.methods import METHODS, dataset_fits, estimate
from prevratio.simulate import _block_rows
from prevratio.variance import _U_FLOOR, _normal_quantiles

LOGIT_02 = math.log(0.2 / 0.8)


class TestToyConfig:
    def test_defaults(self):
        cfg = ToyConfig()
        assert cfg.n == 1000
        assert cfg.baseline_prevalence == 0.2
        assert cfg.pr_at_z0 == 2.0

    def test_rejects_implied_prevalence_at_or_above_one(self):
        with pytest.raises(ValueError, match="implied"):
            ToyConfig(baseline_prevalence=0.6, pr_at_z0=2.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ToyConfig(n=0)
        with pytest.raises(ValueError):
            ToyConfig(p_exposure=1.0)

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ToyConfig(seed=-1)


class TestCoefficients:
    def test_default_values(self):
        b0, b1, b2 = dgp_coefficients(ToyConfig())
        assert b0 == pytest.approx(LOGIT_02, abs=1e-15)
        # odds(0.4)/odds(0.2) = (2/3)/(1/4) = 8/3
        assert b1 == pytest.approx(math.log(8.0 / 3.0), abs=1e-14)
        assert b2 == 0.2

    def test_unit_ratio_gives_zero_slope(self):
        _, b1, _ = dgp_coefficients(ToyConfig(pr_at_z0=1.0))
        assert b1 == pytest.approx(0.0, abs=1e-15)


class TestTrueConditionalPr:
    def test_at_zero_recovers_design_ratio(self):
        coeffs = dgp_coefficients(ToyConfig())
        assert true_conditional_pr(coeffs, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_at_one(self):
        coeffs = dgp_coefficients(ToyConfig())
        assert round(true_conditional_pr(coeffs, 1.0), 4) == 1.9186

    def test_attenuates_toward_one(self):
        coeffs = dgp_coefficients(ToyConfig())
        grid = [true_conditional_pr(coeffs, z) for z in np.linspace(0.0, 60.0, 121)]
        assert all(a > b for a, b in zip(grid, grid[1:]))
        assert grid[-1] == pytest.approx(1.0, abs=1e-4)


class TestTrueMarginalPr:
    def test_zero_covariate_effect_collapses_to_conditional(self):
        coeffs = dgp_coefficients(ToyConfig(beta_z=0.0))
        assert true_marginal_pr(coeffs) == pytest.approx(2.0, abs=1e-12)

    def test_default_value_and_bracketing(self):
        coeffs = dgp_coefficients(ToyConfig())
        mpr = true_marginal_pr(coeffs)
        assert 1.75 < mpr < 2.22
        assert true_conditional_pr(coeffs, 3.0) < mpr < true_conditional_pr(coeffs, -3.0)

    def test_node_count_converged(self):
        # the 80-node rule against a 160-node one
        b0, b1, b2 = dgp_coefficients(ToyConfig())
        x, w = np.polynomial.hermite.hermgauss(160)
        z = math.sqrt(2.0) * x
        fine = float(w @ expit(b0 + b1 + b2 * z)) / float(w @ expit(b0 + b2 * z))
        assert abs(true_marginal_pr((b0, b1, b2)) - fine) < 1e-10

    def test_against_trapezoid_oracle(self):
        b0, b1, b2 = dgp_coefficients(ToyConfig())
        z = np.linspace(-10.0, 10.0, 200001)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        p1 = 1.0 / (1.0 + np.exp(-(b0 + b1 + b2 * z)))
        p0 = 1.0 / (1.0 + np.exp(-(b0 + b2 * z)))
        oracle = np.trapezoid(p1 * phi, z) / np.trapezoid(p0 * phi, z)
        assert true_marginal_pr((b0, b1, b2)) == pytest.approx(oracle, abs=1e-8)


class TestSimulateToy:
    def test_same_seed_identical(self):
        a = simulate_toy(ToyConfig(n=500, seed=7))
        b = simulate_toy(ToyConfig(n=500, seed=7))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.X, b.X)

    def test_replicates_differ(self):
        a = simulate_toy(ToyConfig(n=500, seed=7), replicate=0)
        b = simulate_toy(ToyConfig(n=500, seed=7), replicate=1)
        assert not np.array_equal(a.y, b.y)

    def test_shape_and_names(self):
        ds = simulate_toy(ToyConfig(n=200, seed=3))
        assert ds.n == 200
        assert ds.column_names[1:] == ("x", "z")
        assert set(np.unique(ds.X[:, 1])) <= {0.0, 1.0}

    def test_exposure_rate_near_half(self):
        ds = simulate_toy(ToyConfig(n=4000, seed=11))
        assert abs(ds.X[:, 1].mean() - 0.5) < 3.0 * math.sqrt(0.25 / 4000)

    def test_baseline_prevalence_matches_design(self):
        ds = simulate_toy(ToyConfig(n=100000, seed=2))
        mask = (ds.X[:, 1] == 0.0) & (np.abs(ds.X[:, 2]) < 0.05)
        assert abs(ds.y[mask].mean() - 0.2) < 0.02

    def test_c_inverse_cdf_is_normal_dist_inv_cdf(self):
        # the draws' quantiles are the C function's in the tails and numpy
        # arithmetic in the centre; both must be NormalDist's bits, at the
        # edges of the unit interval and of the centre (|p - 0.5| <= 0.425) too.
        # A C build that fuses multiply-adds fails here.
        edges = [0.0, _U_FLOOR, np.finfo(float).tiny, 0.5, 1.0 - 2.0**-53] + [
            v for c in (0.075, 0.925) for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
        u = np.append(np.random.default_rng(3).random(100_000), edges)
        p = np.maximum(u, _U_FLOOR).tolist()
        fast = np.array([_normal_dist_inv_cdf(q, 0.0, 1.0) for q in p])
        checked = np.array([NormalDist().inv_cdf(q) for q in p])
        assert np.array_equal(fast.view(np.int64), checked.view(np.int64))
        assert np.array_equal(_normal_quantiles(u).view(np.int64), checked.view(np.int64))
        assert np.isfinite(fast).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1,
                    max_size=50))
    def test_vectorized_normals_bit_for_bit(self, u):
        # no floor within (0, 1): subnormal probabilities are NormalDist's too
        checked = np.array([NormalDist().inv_cdf(v) for v in u])
        assert np.array_equal(_normal_quantiles(np.array(u)).view(np.int64),
                              checked.view(np.int64))


@pytest.fixture(scope="module")
def small_study():
    return replication_study(ToyConfig(n=400, seed=9), reps=100,
                             methods=("CPR", "MPR", "POR"))


class TestReplicationStudy:
    def test_rejects_small_runs(self):
        with pytest.raises(ValueError, match="100"):
            replication_study(ToyConfig(n=200), reps=50)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_rejects_level_outside_the_unit_interval(self, level):
        # raised, not scored as a failure of every replicate
        with pytest.raises(InvalidArgumentError, match=r"level must be in \(0, 1\), got"):
            replication_study(ToyConfig(n=200), reps=100, level=level)

    def test_rejects_stratified_method(self):
        with pytest.raises(ValueError, match="MantelHaenszel"):
            replication_study(ToyConfig(n=200), reps=100,
                              methods=("MantelHaenszel",))

    def test_counts_add_up(self, small_study):
        for s in small_study.summaries:
            assert s.n_ok + s.n_failed == 100
            assert 0.0 <= s.coverage <= 1.0

    def test_truth_block_consistent(self, small_study):
        coeffs = dgp_coefficients(ToyConfig(n=400, seed=9))
        truth = small_study.truth
        assert truth["true_mpr"] == pytest.approx(true_marginal_pr(coeffs))
        assert truth["por_target"] == pytest.approx(math.exp(coeffs[1]))
        assert truth["true_cpr_at_z0"] == pytest.approx(
            true_conditional_pr(coeffs, 0.0))
        assert len(small_study.replicate_true_cpr) == 100

    def test_bit_reproducible(self, small_study):
        again = replication_study(ToyConfig(n=400, seed=9), reps=100,
                                  methods=("CPR", "MPR", "POR"))
        assert again.to_json() == small_study.to_json()

    def test_json_round_trip(self, small_study):
        blob = json.loads(small_study.to_json())
        assert blob["study"]["replicates"] == 100
        assert {m["method"] for m in blob["methods"]} == {"CPR", "MPR", "POR"}

    def test_text_table_lists_methods(self, small_study):
        text = small_study.to_text()
        for m in ("CPR", "MPR", "POR"):
            assert m in text
        assert text == small_study.to_text()

    def test_unknown_summary_is_keyerror(self, small_study):
        with pytest.raises(KeyError):
            small_study.summary("LogBinomial")

    def test_crude_method_supported(self):
        rep = replication_study(ToyConfig(n=300, seed=4), reps=100,
                                methods=("Crude",))
        s = rep.summary("Crude")
        assert s.n_ok > 90
        assert s.mean_estimate == pytest.approx(rep.truth["true_mpr"], abs=0.2)

    # (n, seed) pairs of tiny studies that once aborted: a sandwich variance
    # that rounds below zero (math domain error), or a delta-method ratio of 0
    # divided by (ZeroDivisionError, the first four). A separated fit has no
    # interval, which is degenerate for every method, not an argument error
    # (at (4, 1), 60 POR estimates).
    @pytest.mark.parametrize("n, seed", [(4, 1), (5, 2), (6, 2), (8, 4), (3, 0),
                                         (10, 0), (12, 0), (15, 5), (20, 4)])
    def test_degenerate_fits_are_counted_not_raised(self, n, seed):
        methods = tuple(name for name, m in METHODS.items() if m.target)
        rep = replication_study(ToyConfig(n=n, seed=seed), reps=100, methods=methods)
        for s in rep.summaries:
            assert s.n_ok + s.n_failed == 100
            assert sum(rep.failure_reasons[s.method].values()) == s.n_failed
            assert "InvalidArgumentError" not in rep.failure_reasons[s.method]
        assert any("DegenerateDenominatorError" in reasons
                   for reasons in rep.failure_reasons.values())

    def test_failed_estimates_keep_no_traceback(self):
        # a kept traceback's frames would hold the block's datasets and fits
        # alive for as long as the study keeps the error
        _, scores = _block_rows(ToyConfig(n=4), range(32), DEFAULT_STUDY_METHODS, 0.95)
        errors = [e for intervals in scores.values() for e in intervals.errors
                  if isinstance(e, PrevRatioError)]
        assert errors
        assert [e for e in errors if e.__traceback__ is not None] == []

    def test_method_named_twice_is_scored_once(self, monkeypatch, one_worker):
        calls = []
        cpr = METHODS["CPR"]
        monkeypatch.setitem(METHODS, "CPR", dataclasses.replace(
            cpr, scores=lambda *args: calls.append(None) or cpr.scores(*args)))
        once = replication_study(ToyConfig(n=200), 100, methods=("CPR", "MPR"))
        assert len(calls) == 4  # one per block of 32
        twice = replication_study(ToyConfig(n=200), 100, methods=("CPR", "CPR", "MPR"))
        assert len(calls) == 8
        assert twice.methods == ("CPR", "MPR")
        assert [s.method for s in twice.summaries] == ["CPR", "MPR"]
        assert twice.to_json() == once.to_json()
        assert twice.to_text() == once.to_text()

    def test_log_bounds_beyond_700_fail_for_mpr(self):
        # one MPR estimate here has representable bounds, but a log bound beyond 700
        methods = tuple(name for name, m in METHODS.items() if m.target)
        rep = replication_study(ToyConfig(n=4, seed=2), reps=100, methods=methods)
        assert rep.summary("MPR").n_ok == 23


# every method the study can run, Crude included
STUDY_METHODS = tuple(name for name, m in METHODS.items() if m.target)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 60), seed=st.integers(0, 1000), size=st.integers(1, 6))
def test_stacked_scores_are_the_stack_of_one(n, seed, size):
    # each replicate a block scores is what the public estimator gives on the
    # replicate drawn alone, to within 4 ulps, or fails with the same error type
    cfg = ToyConfig(n=n, seed=seed)
    _, scores = _block_rows(cfg, range(size), STUDY_METHODS, 0.95)
    for r in range(size):
        ds = simulate_toy(cfg, replicate=r)
        fits = dataset_fits(ds, STUDY_METHODS)
        for m in STUDY_METHODS:
            got = scores[m]
            try:
                want = estimate(m, fits, ds, 0.95).interval
            except PrevRatioError as err:
                assert type(got.errors[r]) is type(err), (m, r)
                continue
            assert got.errors[r] is None, (m, r)
            for key in ("point", "lower", "upper"):
                value = getattr(want, key)
                assert abs(getattr(got, key)[r] - value) <= 4 * np.spacing(value), (m, r, key)
