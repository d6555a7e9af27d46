import numpy as np
import pytest

from prevratio import Dataset, INTERCEPT_NAME, ModelSpec, ToyConfig, parallel, simulate_toy


def table_dataset(a, b, c, d, weighted=True):
    """Saturated 2x2 data: exposed a/(a+b) cases, unexposed c/(c+d).

    Weighted form uses 4 rows with prior weights equal to the cell counts;
    otherwise one row per subject.
    """
    if weighted:
        y = np.array([1.0, 0.0, 1.0, 0.0])
        x = np.array([1.0, 1.0, 0.0, 0.0])
        w = np.array([a, b, c, d], dtype=float)
        return Dataset(y=y, X=np.column_stack([np.ones(4), x]),
                       column_names=(INTERCEPT_NAME, "x"), weights=w)
    y = np.concatenate([np.ones(a), np.zeros(b), np.ones(c), np.zeros(d)])
    x = np.concatenate([np.ones(a + b), np.zeros(c + d)])
    return Dataset(y=y, X=np.column_stack([np.ones(len(y)), x]),
                   column_names=(INTERCEPT_NAME, "x"))


def random_logistic_dataset(rng, n, p_covariates):
    """Random design with binary exposure and standard-normal covariates."""
    x = (rng.random(n) < 0.5).astype(float)
    Z = rng.standard_normal((n, p_covariates))
    X = np.column_stack([np.ones(n), x, Z])
    beta = rng.uniform(-0.8, 0.8, size=2 + p_covariates)
    eta = X @ beta
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    names = (INTERCEPT_NAME, "x") + tuple(f"z{j}" for j in range(p_covariates))
    return Dataset(y=y, X=X, column_names=names)


@pytest.fixture(scope="session")
def toy_ds():
    return simulate_toy(ToyConfig(n=1000, seed=5))


@pytest.fixture
def toy_spec():
    return ModelSpec(outcome="y", exposure="x", covariates=("z",))


@pytest.fixture
def workers(monkeypatch):
    """Set how many worker processes resampling loops use: ``workers(k)``."""
    def set_count(k):
        monkeypatch.setattr(parallel, "_worker_count", lambda: k)
    return set_count


@pytest.fixture
def one_worker(workers):
    """Run resampling loops in this process, for tests that count calls in it."""
    workers(1)
