"""Row-blocked design products, Schouten on the original rows, and per-block draws."""

import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from prevratio import (Dataset, INTERCEPT_NAME, ModelSpec, ToyConfig, covariate_means,
                       dgp_coefficients, fit_glm, ratio_interval, sandwich_vcov,
                       schouten_expand, schouten_pr, simulate_toy)
from prevratio.classical import _schouten_response
from prevratio.glm import expit, fit_stack
from prevratio.linalg import _BLOCK_ROWS, gram_stack, matvec_stack, rmatvec_stack
from prevratio.simulate import _block_rows, _simulate_block

SIZES = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 20_000)


def design(shape, column_major, seed):
    """Positive entries, so a relative tolerance bounds every product."""
    values = np.random.default_rng(seed).uniform(0.5, 2.0, shape)
    if not column_major:
        return values
    # the memory layout the study uses: each design stored column by column
    out = np.empty(shape[:-2] + (shape[-1], shape[-2])).swapaxes(-1, -2)
    out[...] = values
    return out


class TestBlockHelpers:
    @pytest.fixture(params=[None, 3], ids=["2-D", "stacked"])
    def stack(self, request):
        return request.param

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("column_major", [False, True], ids=["rows", "columns"])
    def test_products_match_plain_numpy(self, stack, n, column_major):
        p = 5
        lead = () if stack is None else (stack,)
        X = design(lead + (n, p), column_major, seed=n)
        rng = np.random.default_rng(n + 1)
        beta = rng.uniform(0.1, 1.0, lead + (p,))
        v = rng.uniform(0.1, 1.0, lead + (n,))
        want_Xb = np.einsum("...np,...p->...n", X, beta)
        want_Xtv = np.einsum("...np,...n->...p", X, v)
        assert matvec_stack(X, beta).shape == want_Xb.shape
        assert matvec_stack(X, beta) == pytest.approx(want_Xb, rel=1e-12)
        assert rmatvec_stack(X, v).shape == want_Xtv.shape
        assert rmatvec_stack(X, v) == pytest.approx(want_Xtv, rel=1e-12)
        X3, v3 = (X, v) if lead else (X[None], v[None])
        want_gram = np.einsum("rni,rn,rnj->rij", X3, v3, X3)
        assert gram_stack(X3, v3) == pytest.approx(want_gram, rel=1e-12)

    def test_stacked_problem_equals_it_alone(self):
        # blocks are fixed, so a problem's sums do not depend on its stack
        X = design((4, 3 * _BLOCK_ROWS + 17, 6), True, seed=5)
        rng = np.random.default_rng(6)
        beta, v = rng.standard_normal((4, 6)), rng.standard_normal((4, X.shape[1]))
        eta, score, gram = matvec_stack(X, beta), rmatvec_stack(X, v), gram_stack(X, v**2)
        for i in range(4):
            assert np.array_equal(eta[i], matvec_stack(X[i:i + 1], beta[i:i + 1])[0])
            assert np.array_equal(score[i], rmatvec_stack(X[i:i + 1], v[i:i + 1])[0])
            assert np.array_equal(gram[i], gram_stack(X[i:i + 1], v[i:i + 1] ** 2)[0])


def weighted_dataset(n=600, seed=31):
    """Binary exposure, a continuous covariate and non-unit prior weights."""
    rng = np.random.default_rng(seed)
    x = (rng.random(n) < 0.4).astype(float)
    z = rng.standard_normal(n)
    y = (rng.random(n) < expit(-0.9 + 0.6 * x + 0.5 * z)).astype(float)
    return Dataset(y=y, X=np.column_stack([np.ones(n), x, z]),
                   column_names=(INTERCEPT_NAME, "x", "z"),
                   weights=rng.uniform(0.5, 3.0, n))


class TestSchoutenOnOriginalRows:
    @pytest.mark.parametrize("level", [0.95, 0.9])
    def test_matches_fit_on_expanded_rows(self, level):
        ds = weighted_dataset()
        expanded = schouten_expand(ds)
        oracle = fit_glm(expanded, "binomial-logit")
        var = sandwich_vcov(oracle, expanded)[1, 1]
        want = ratio_interval(math.exp(oracle.beta[1]), var, level)
        got = schouten_pr(ds, level)
        for key in ("point", "se", "lower", "upper"):
            assert getattr(got.interval, key) == pytest.approx(getattr(want, key), rel=1e-10)
        assert got.metadata["expanded_rows"] == expanded.n == ds.n + int(ds.y.sum())
        assert "caveat" in got.metadata

        y, w = _schouten_response(ds.y, ds.weights)
        collapsed = fit_stack(ds.X[None], y[None], w[None], "binomial-logit",
                              ds.column_names).one()
        assert collapsed.beta == pytest.approx(oracle.beta, rel=1e-10)
        assert collapsed.vcov == pytest.approx(oracle.vcov, rel=1e-10)
        assert collapsed.deviance == pytest.approx(oracle.deviance, rel=1e-12)

    def test_study_column_matches_one_at_a_time(self):
        cfg = ToyConfig(n=400, seed=4)
        zbar, scores = _block_rows(cfg, range(40), ("Schouten",), 0.95)
        schouten = scores["Schouten"]
        for r in range(40):
            ds = simulate_toy(cfg, replicate=r)
            alone = schouten_pr(ds)
            assert zbar[r] == pytest.approx(covariate_means(ds)[2], rel=1e-12, abs=1e-15)
            assert schouten.errors[r] is None
            for key in ("point", "se", "lower", "upper"):
                assert getattr(schouten, key)[r] == pytest.approx(
                    getattr(alone.interval, key), rel=1e-10), (r, key)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_copy_of_a_large_design():
    rng = np.random.default_rng(2)
    n, p = 100_000, 11
    X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float),
                         rng.standard_normal((n, p - 2))])
    y = (rng.random(n) < expit(-1.0 + 0.5 * X[:, 1] + 0.2 * X[:, 2])).astype(float)
    ds = Dataset(y=y, X=X, column_names=tuple(f"c{j}" for j in range(p)),
                 weights=rng.uniform(0.5, 2.0, n))
    assert traced_peak(covariate_means, ds) < ds.X.nbytes
    assert traced_peak(schouten_pr, ds) < ds.X.nbytes


def toy_one_at_a_time(cfg, replicate):
    """The generator as it drew one replicate alone, kept as the reference."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replicate,)))
    b0, b1, b2 = dgp_coefficients(cfg)
    x = (rng.random(cfg.n) < cfg.p_exposure).astype(float)
    u = np.maximum(rng.random(cfg.n), np.finfo(float).tiny)
    z = np.array([NormalDist().inv_cdf(v) for v in u])
    y = (rng.random(cfg.n) < expit(b0 + b1 * x + b2 * z)).astype(float)
    return y, np.column_stack([np.ones(cfg.n), x, z])


class TestBlockDraws:
    @pytest.mark.parametrize("seed", [0, 9])
    def test_block_equals_one_at_a_time(self, seed):
        cfg = ToyConfig(n=700, seed=seed)
        replicates = range(5, 37)
        block = _simulate_block(cfg, replicates)
        assert block.column_names == (INTERCEPT_NAME, "x", "z")
        for i, r in enumerate(replicates):
            alone = simulate_toy(cfg, replicate=r)
            assert np.array_equal(block.y[i], alone.y) and np.array_equal(block.X[i], alone.X)
            assert np.array_equal(block.weights[i], alone.weights)
            y, X = toy_one_at_a_time(cfg, r)
            assert np.array_equal(block.y[i], y) and np.array_equal(block.X[i], X)
            assert alone.spec == ModelSpec(outcome="y", exposure="x", covariates=("z",))
