"""End-to-end acceptance checks.

Each test prints one pass/fail line with the measured quantities, so
``pytest tests/test_acceptance.py -s`` doubles as a readable report.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit, ndtri

from prevratio import (NonConvergenceError, StratifiedTable, ToyConfig,
                       conditional_pr, crude_pr, dgp_coefficients, fit_glm,
                       mantel_haenszel_pr, marginal_pr, prevalence_odds_ratio,
                       ratio_interval, replication_study, sandwich_vcov,
                       schouten_expand, schouten_pr, simulate_toy,
                       true_conditional_pr)
from conftest import random_logistic_dataset, table_dataset


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_table(rng):
    return tuple(int(v) for v in rng.integers(5, 60, size=4))


@pytest.fixture(scope="module")
def study():
    t0 = time.perf_counter()
    rep = replication_study(ToyConfig(), reps=500)
    return rep, time.perf_counter() - t0


def test_criterion_01_saturated_model_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_prop = worst_por = worst_ratio = 0.0
    for _ in range(100):
        a, b, c, d = random_table(rng)
        ds = table_dataset(a, b, c, d)
        p1, p0 = a / (a + b), c / (c + d)
        cells = np.array([p1, p1, p0, p0])
        for family in ("binomial-logit", "binomial-log", "poisson-log"):
            fit = fit_glm(ds, family)
            worst_prop = max(worst_prop, np.abs(fit.fitted - cells).max())
        logistic = fit_glm(ds, "binomial-logit")
        por = prevalence_odds_ratio(logistic).point
        worst_por = max(worst_por, abs(por - (a * d) / (b * c)))
        crude = p1 / p0
        cpr = conditional_pr(logistic, ds).point
        mpr = marginal_pr(logistic, ds).point
        worst_ratio = max(worst_ratio, abs(cpr - crude), abs(mpr - crude),
                          abs(cpr - mpr))
    elapsed = time.perf_counter() - t0
    ok = worst_prop < 1e-8 and worst_por < 1e-8 and worst_ratio < 1e-10 \
        and elapsed < 5.0
    report(1, ok,
           f"100 random 2x2 tables: max |fitted - cell proportion| "
           f"{worst_prop:.2e} (< 1e-8), max |POR - cross-product| "
           f"{worst_por:.2e} (< 1e-8), max |CPR/MPR - crude| "
           f"{worst_ratio:.2e} (< 1e-10), {elapsed:.2f}s (< 5s)")


def test_criterion_02_dgp_anchor():
    coeffs = dgp_coefficients(ToyConfig())
    at0 = true_conditional_pr(coeffs, 0.0)
    at1 = true_conditional_pr(coeffs, 1.0)
    ok = round(at0, 6) == 2.0 and round(at1, 4) == 1.9186
    report(2, ok,
           f"true conditional PR: {at0:.6f} at z=0 (want 2.000000), "
           f"{at1:.4f} at z=1 (want 1.9186)")


def test_criterion_03_toy_study_means(study):
    rep, elapsed = study
    truth = rep.truth
    parts = []
    ok = elapsed < 120.0
    for method in ("MPR", "LogBinomial", "RobustPoisson", "Schouten"):
        bias = rep.summary(method).mean_estimate - truth["true_mpr"]
        ok = ok and abs(bias) < 0.05
        parts.append(f"{method} {bias:+.4f}")
    cpr_bias = rep.summary("CPR").mean_estimate - truth["mean_true_cpr_at_zbar"]
    ok = ok and abs(cpr_bias) < 0.05
    parts.append(f"CPR {cpr_bias:+.4f}")
    por_mean = rep.summary("POR").mean_estimate
    cpr_mean = rep.summary("CPR").mean_estimate
    ok = ok and por_mean > cpr_mean
    report(3, ok,
           f"500 replicates in {elapsed:.1f}s (< 120s); mean bias "
           + ", ".join(parts) + " (all within 0.05); mean POR "
           f"{por_mean:.4f} > mean CPR {cpr_mean:.4f}")


def test_criterion_04_coverage(study):
    rep, _ = study
    cpr = rep.summary("CPR").coverage
    mpr = rep.summary("MPR").coverage
    ok = 0.92 <= cpr <= 0.98 and 0.92 <= mpr <= 0.98
    report(4, ok,
           f"95% CI coverage over 500 replicates: CPR {cpr:.3f}, "
           f"MPR {mpr:.3f} (both within [0.92, 0.98])")


def test_criterion_05_gradient_correctness():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        ds = random_logistic_dataset(rng, int(rng.integers(150, 400)),
                                     int(rng.integers(0, 4)))
        fit = fit_glm(ds, "binomial-logit")
        w = ds.weights
        xbar = (ds.X * w[:, None]).sum(axis=0) / w.sum()

        def cpr_of(beta):
            x1, x0 = np.array(xbar), np.array(xbar)
            x1[1], x0[1] = 1.0, 0.0
            return float(expit(x1 @ beta) / expit(x0 @ beta))

        def mpr_of(beta):
            X1, X0 = np.array(ds.X), np.array(ds.X)
            X1[:, 1], X0[:, 1] = 1.0, 0.0
            p1 = float((w * expit(X1 @ beta)).sum() / w.sum())
            p0 = float((w * expit(X0 @ beta)).sum() / w.sum())
            return p1 / p0

        for est, f in ((conditional_pr(fit, ds), cpr_of),
                       (marginal_pr(fit, ds), mpr_of)):
            grad = np.asarray(est.metadata["gradient"])
            num = np.zeros_like(grad)
            for k in range(len(grad)):
                h = 1e-5 * (1.0 + abs(fit.beta[k]))
                up, dn = np.array(fit.beta), np.array(fit.beta)
                up[k] += h
                dn[k] -= h
                num[k] = (f(up) - f(dn)) / (2.0 * h)
            rel = np.abs(grad - num).max() / (1.0 + np.abs(num).max())
            worst = max(worst, rel)
    ok = worst < 1e-6
    report(5, ok,
           f"25 random logistic fits (p <= 5): max relative gap between "
           f"delta-method and finite-difference gradients {worst:.2e} (< 1e-6)")


def test_criterion_06_cross_method_spread(study):
    rep, _ = study
    five = ("MPR", "CPR", "LogBinomial", "RobustPoisson", "Schouten")
    est = rep.replicate_estimates
    incomplete = 0
    max_spread = 0.0
    order_checked = order_violations = 0
    for r in range(rep.reps):
        vals = [est[m][r] for m in five]
        if any(v is None for v in vals):
            incomplete += 1
            continue
        max_spread = max(max_spread, max(vals) - min(vals))
        if min(vals) > 1.05 and est["POR"][r] is not None:
            order_checked += 1
            if est["POR"][r] <= max(vals):
                order_violations += 1
    ok = max_spread < 0.15 and order_violations == 0
    report(6, ok,
           f"per-replicate range of the five adjusted PRs: max "
           f"{max_spread:.4f} (< 0.15, {rep.reps - incomplete} complete "
           f"replicates); POR above all five in {order_checked} eligible "
           f"replicates with {order_violations} violations")


def test_criterion_07_mantel_haenszel_reduction():
    one = StratifiedTable(((13.0, 27.0, 9.0, 31.0),))
    mh1, cr = mantel_haenszel_pr(one), crude_pr(one)
    bitwise = (mh1.point == cr.point
               and mh1.interval.lower == cr.interval.lower
               and mh1.interval.upper == cr.interval.upper)
    hand = mantel_haenszel_pr(
        StratifiedTable(((10.0, 90.0, 5.0, 95.0), (30.0, 20.0, 15.0, 35.0))))
    ok = bitwise and hand.point == 2.0
    report(7, ok,
           f"single-stratum MH == crude bit-for-bit: {bitwise}; "
           f"two-stratum hand example PR_MH = {hand.point} (want exactly 2.0)")


def test_criterion_08_schouten_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    rows_ok = True
    for _ in range(12):
        a, b, c, d = random_table(rng)
        ds = table_dataset(a, b, c, d, weighted=False)
        est = schouten_pr(ds)
        crude = (a / (a + b)) / (c / (c + d))
        worst = max(worst, abs(est.point - crude))
        rows_ok = rows_ok and est.metadata["expanded_rows"] == ds.n + a + c
        rows_ok = rows_ok and schouten_expand(ds).n == ds.n + a + c
    ok = worst < 1e-8 and rows_ok
    report(8, ok,
           f"12 single-binary-predictor datasets: max |Schouten - crude| "
           f"{worst:.2e} (< 1e-8); expanded row count equals n + #events: "
           f"{rows_ok}")


def test_criterion_09_sandwich_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        a, b, c, d = random_table(rng)
        ds = table_dataset(a, b, c, d, weighted=False)
        fit = fit_glm(ds, "poisson-log")
        se = math.sqrt(sandwich_vcov(fit, ds)[1, 1])
        closed = math.sqrt(1 / a - 1 / (a + b) + 1 / c - 1 / (c + d))
        worst = max(worst, abs(se - closed))
    ok = worst < 1e-8
    report(9, ok,
           f"20 saturated 2x2 Poisson fits: max |robust SE - closed-form "
           f"log-risk-ratio SE| {worst:.2e} (< 1e-8)")


def test_criterion_10_log_scale_interval_formula():
    # a ratio-scale se of 0.4 at point 2 is a log-scale variance of (0.4 / 2)**2
    iv = ratio_interval(2.0, 0.2**2, 0.95)
    z = float(ndtri(0.975))
    oracle = (2.0 * math.exp(-z * 0.2), 2.0 * math.exp(z * 0.2))
    got = (round(iv.lower, 5), round(iv.upper, 5))
    want = (round(oracle[0], 5), round(oracle[1], 5))
    ok = got == want == (1.35142, 2.95985)
    report(10, ok,
           f"ratio_interval(2, 0.2**2, 0.95) = {got} at 5 d.p., matching "
           f"independent evaluation of point * exp(+/- z * sqrt(log_var)) with "
           f"z = {z:.7f}; the pair (1.35147, 2.95973) does not satisfy this "
           f"formula for any one z (its bounds imply z = 1.95977 and "
           f"z = 1.95975)")


def test_criterion_11_log_binomial_failure_surfacing():
    rng = np.random.default_rng(42)
    n = 300
    x = (rng.random(n) < 0.5).astype(float)
    z = 2.0 * ndtri(rng.random(n))
    y = (rng.random(n) < expit(-0.3 + 0.7 * x + 2.2 * z)).astype(float)
    ds = simulate_toy(ToyConfig(n=n, seed=0))
    ds = type(ds)(**{**ds.__dict__,
                     "y": y, "X": np.column_stack([np.ones(n), x, z])})
    with pytest.raises(NonConvergenceError) as exc:
        fit_glm(ds, "binomial-log")
    logistic = fit_glm(ds, "binomial-logit")
    mpr = marginal_pr(logistic, ds)
    ok = math.isfinite(mpr.point) and mpr.interval.lower > 0.0
    report(11, ok,
           f"log-binomial fit raises NonConvergenceError ({exc.value}); "
           f"logistic fit converges in {logistic.iterations} iterations and "
           f"marginal PR = {mpr.point:.4f} "
           f"({mpr.interval.lower:.4f}, {mpr.interval.upper:.4f})")


def test_criterion_12_headline_contrast():
    # the paper's claim: where the log-binomial fit fails, CPR and MPR from
    # the logistic fit of the same data stay stable and keep their coverage
    cfg = ToyConfig(n=1000, baseline_prevalence=0.40, pr_at_z0=2.2, beta_z=1.0)
    rep = replication_study(cfg, 300)
    band = 4.5 * math.sqrt(0.95 * 0.05 / 300)
    cpr, mpr, lb = (rep.summary(m) for m in ("CPR", "MPR", "LogBinomial"))
    ok = (cpr.n_failed == mpr.n_failed == 0
          and all(abs(s.coverage - 0.95) <= band for s in (cpr, mpr))
          and lb.n_failed > 150
          and rep.failure_reasons["LogBinomial"] == {"NonConvergenceError": lb.n_failed})
    report(12, ok,
           f"log-binomial fails {lb.n_failed} of 300 replicates "
           f"({dict(rep.failure_reasons['LogBinomial'])}); CPR and MPR fail "
           f"{cpr.n_failed} and {mpr.n_failed}, coverage {cpr.coverage:.3f} and "
           f"{mpr.coverage:.3f} (within 0.95 +/- {band:.3f})")
