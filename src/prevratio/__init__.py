"""Adjusted prevalence ratios for cross-sectional binary outcomes.

Fits logistic, log-binomial, and Poisson GLMs from scratch and derives
marginal and conditional prevalence ratios with delta-method or bootstrap
intervals, alongside the classical comparison estimators (crude,
Mantel-Haenszel, Schouten duplication, robust Poisson) and a simulation
harness that measures bias and confidence-interval coverage against
analytic truth.
"""

from .classical import (StratifiedTable, crude_pr, crude_table,
                        mantel_haenszel_pr, schouten_expand, schouten_pr,
                        stratified_from_dataset)
from .data import (Dataset, EXPOSURE_COL, FAMILY_LINKS, INTERCEPT_NAME,
                   ModelSpec, covariate_means, load_csv, write_csv)
from .errors import (DataError, DegenerateDenominatorError,
                     NonConvergenceError, NonIdentifiableError,
                     PrevRatioError, RankDeficientError)
from .glm import FitResult, fit_glm, predict_prevalence, separation_check
from .linalg import spd_inverse, spd_solve, weighted_cross_product
from .ratios import (METHOD_LABELS, PrEstimate, bootstrap_pr, bootstrap_prs,
                     conditional_pr, log_binomial_pr, marginal_pr,
                     prevalence_odds_ratio, robust_poisson_pr)
from .simulate import (DEFAULT_STUDY_METHODS, MethodSummary, StudyReport,
                       ToyConfig, dgp_coefficients, replication_study,
                       simulate_toy, true_conditional_pr, true_marginal_pr)
from .variance import (IntervalEstimate, interval_from_log_scale,
                       normal_quantile, sandwich_vcov, wald_ci_log_scale)

__version__ = "0.1.0"

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
    "bootstrap_pr",
    "bootstrap_prs",
    "conditional_pr",
    "covariate_means",
    "crude_pr",
    "crude_table",
    "dgp_coefficients",
    "fit_glm",
    "interval_from_log_scale",
    "load_csv",
    "log_binomial_pr",
    "mantel_haenszel_pr",
    "marginal_pr",
    "normal_quantile",
    "predict_prevalence",
    "prevalence_odds_ratio",
    "replication_study",
    "robust_poisson_pr",
    "sandwich_vcov",
    "schouten_expand",
    "schouten_pr",
    "separation_check",
    "simulate_toy",
    "spd_inverse",
    "spd_solve",
    "stratified_from_dataset",
    "true_conditional_pr",
    "true_marginal_pr",
    "wald_ci_log_scale",
    "weighted_cross_product",
    "write_csv",
]
