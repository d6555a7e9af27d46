"""Adjusted prevalence ratios for cross-sectional binary outcomes.

Fits logistic, log-binomial, and Poisson GLMs from scratch and derives
marginal and conditional prevalence ratios with delta-method or bootstrap
intervals, alongside the classical comparison estimators (crude,
Mantel-Haenszel, Schouten duplication, robust Poisson) and a simulation
harness that measures bias and confidence-interval coverage against
analytic truth.
"""

from .classical import (StratifiedTable, crude_pr, crude_table,
                        mantel_haenszel_pr, schouten_expand,
                        stratified_from_dataset)
from .data import (Dataset, EXPOSURE_COL, INTERCEPT_NAME, ModelSpec,
                   covariate_means, load_csv, write_csv)
from .errors import (DataError, DegenerateDenominatorError,
                     InvalidArgumentError, NonConvergenceError,
                     NonIdentifiableError, PrevRatioError, RankDeficientError)
from .glm import (FAMILY_LINKS, FitResult, fit_glm, predict_prevalence,
                  separation_check)
from . import methods
from .methods import log_binomial_pr, robust_poisson_pr, schouten_pr
from .ratios import (PrEstimate, bootstrap_prs, conditional_pr, marginal_pr,
                     prevalence_odds_ratio)
from .simulate import (DEFAULT_STUDY_METHODS, MethodSummary, StudyReport,
                       ToyConfig, dgp_coefficients, replication_study,
                       simulate_toy, true_conditional_pr, true_marginal_pr)
from .variance import (IntervalEstimate, normal_quantile, ratio_interval,
                       sandwich_vcov)

__version__ = "0.1.0"

#: the name of every method, in the registry's order
METHOD_LABELS = tuple(methods.METHODS)

__all__ = [
    "DataError",
    "Dataset",
    "DegenerateDenominatorError",
    "DEFAULT_STUDY_METHODS",
    "EXPOSURE_COL",
    "FAMILY_LINKS",
    "FitResult",
    "INTERCEPT_NAME",
    "IntervalEstimate",
    "InvalidArgumentError",
    "METHOD_LABELS",
    "MethodSummary",
    "ModelSpec",
    "NonConvergenceError",
    "NonIdentifiableError",
    "PrEstimate",
    "PrevRatioError",
    "RankDeficientError",
    "StratifiedTable",
    "StudyReport",
    "ToyConfig",
    "bootstrap_prs",
    "conditional_pr",
    "covariate_means",
    "crude_pr",
    "crude_table",
    "dgp_coefficients",
    "fit_glm",
    "load_csv",
    "log_binomial_pr",
    "mantel_haenszel_pr",
    "marginal_pr",
    "normal_quantile",
    "predict_prevalence",
    "prevalence_odds_ratio",
    "ratio_interval",
    "replication_study",
    "robust_poisson_pr",
    "sandwich_vcov",
    "schouten_expand",
    "schouten_pr",
    "separation_check",
    "simulate_toy",
    "stratified_from_dataset",
    "true_conditional_pr",
    "true_marginal_pr",
    "write_csv",
]
