"""Adjusted prevalence ratios for cross-sectional binary outcomes.

Fits logistic, log-binomial, and Poisson GLMs from scratch and derives
marginal and conditional prevalence ratios with delta-method or bootstrap
intervals, alongside the classical comparison estimators (crude,
Mantel-Haenszel, Schouten duplication, robust Poisson) and a simulation
harness that measures bias and confidence-interval coverage against
analytic truth.

Names load on first use: ``import prevratio`` imports no submodule and
no numpy, and ``prevratio.fit_glm`` (or ``prevratio.glm``) imports the
module that defines it.
"""

import importlib

__version__ = "0.1.0"

#: every submodule bound on first use (all but ``cli``), to the public names it defines
_EXPORTS = {
    "classical": ("StratifiedTable", "crude_pr", "crude_table", "mantel_haenszel_pr",
                  "schouten_expand", "stratified_from_dataset"),
    "data": ("Dataset", "EXPOSURE_COL", "INTERCEPT_NAME", "ModelSpec", "covariate_means",
             "load_csv", "write_csv"),
    "errors": ("DataError", "DegenerateDenominatorError", "InvalidArgumentError",
               "NonConvergenceError", "NonIdentifiableError", "PrevRatioError",
               "RankDeficientError"),
    "glm": ("FAMILY_LINKS", "FitResult", "fit_glm", "predict_prevalence", "separation_check"),
    "linalg": (),
    "methods": ("METHOD_LABELS", "log_binomial_pr", "robust_poisson_pr", "schouten_pr"),
    "parallel": (),
    "ratios": ("PrEstimate", "bootstrap_prs", "conditional_pr", "marginal_pr",
               "prevalence_odds_ratio"),
    "simulate": ("DEFAULT_STUDY_METHODS", "MethodSummary", "StudyReport", "ToyConfig",
                 "dgp_coefficients", "replication_study", "simulate_toy",
                 "true_conditional_pr", "true_marginal_pr"),
    "variance": ("IntervalEstimate", "normal_quantile", "ratio_interval", "sandwich_vcov"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule ``name``, or the module that defines ``name``."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
