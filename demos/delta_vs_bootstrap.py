"""
Delta-method versus bootstrap intervals for the marginal PR
===========================================================

The marginal PR is a smooth function of the logistic coefficients, so
its delta-method interval is cheap and accurate. The percentile
bootstrap refits the model on resampled rows and needs no gradient;
at a moderate sample size the two intervals nearly coincide.
"""

from prevratio import (ToyConfig, bootstrap_prs, fit_glm, marginal_pr,
                       simulate_toy)

ds = simulate_toy(ToyConfig(n=1500, seed=23))
fit = fit_glm(ds, "binomial-logit")

delta = marginal_pr(fit, ds)
boot = bootstrap_prs(fit, ds, ("MPR",), reps=500, seed=23)["MPR"]

for label, est in (("delta", delta), ("bootstrap", boot)):
    iv = est.interval
    print(f"{label:<10} PR {iv.point:.4f}  CI ({iv.lower:.4f}, {iv.upper:.4f})"
          f"  SE {iv.se:.4f}")

print(f"bootstrap replicates: {boot.metadata['replicates']}, "
      f"failed: {boot.metadata['failed_replicates']}")
print(f"width ratio (bootstrap / delta): "
      f"{boot.interval.width / delta.interval.width:.3f}")

# Same seed, same draws: the bootstrap interval is exactly reproducible.
again = bootstrap_prs(fit, ds, ("MPR",), reps=500, seed=23)["MPR"]
print(f"reproducible: {again.interval == boot.interval}")
