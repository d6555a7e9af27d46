"""Correctness gate for the CLI's json payloads.

A payload passes when every requested method came back ``ok`` with a
finite ratio inside its interval, when MPR, CPR and POR lie within
``K_SE`` standard errors of the generator's analytic targets, and, at the
default seed, when every number matches the reference stored from the
commit that defined the benchmark to relative tolerance ``REL_TOL``.

A verdict counts operations: method rows for ``estimate`` and
replicate x method estimates for ``simulate``. A payload that fails any
check counts every one of its operations as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# later refactors may reorder sums (~1e-10 relative); real changes in an
# estimate move it far more than this
REL_TOL = 1e-6
# |estimate - target| allowed, in units of the estimate's own SE; at
# K_SE = 5 a correct program trips one check in ~1.7 million
K_SE = 5.0
# study: coverage of the correctly targeted methods (CPR, MPR, POR) must
# stay within this many binomial SDs of the nominal level
STUDY_COVERAGE_SDS = 4.5
# study: the mean estimate may miss its target by K_SE Monte Carlo SEs
# plus this share of the target (the ratio estimators carry 1-2 %
# small-sample bias at n = 1000)
STUDY_BIAS_REL = 0.02
GATED = ("CPR", "MPR", "POR")


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed == 0


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _close(a, b, rel: float = REL_TOL) -> bool:
    return _finite(a) and _finite(b) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _fail_all(verdict: Verdict, problem: str) -> Verdict:
    verdict.problems.append(problem)
    verdict.failed = verdict.attempted
    return verdict


def check_estimate(payload, methods, n_kept: int, n_dropped: int, targets: dict,
                   reference: dict | None, input_sha256: str = "") -> Verdict:
    """Gate an ``estimate --format json`` payload.

    ``reference`` holds the sha256 of the input it was made from and the
    payload; the numbers are only compared on that same input.
    """
    verdict = Verdict(attempted=len(methods))
    try:
        rows = payload["rows"]
        context = payload["header"]["context"]
    except (TypeError, KeyError):
        return _fail_all(verdict, "payload is not an estimate table")
    if [r.get("method") for r in rows] != list(methods):
        return _fail_all(verdict, f"methods {[r.get('method') for r in rows]} != {list(methods)}")
    if (context.get("n"), context.get("dropped")) != (n_kept, n_dropped):
        verdict.problems.append(
            f"n/dropped {context.get('n')}/{context.get('dropped')} != {n_kept}/{n_dropped}")
    for row in rows:
        m = row["method"]
        if row.get("status") != "ok":
            verdict.failed += 1
            verdict.problems.append(f"{m}: status {row.get('status')}: {row.get('notes')}")
            continue
        pr, lo, hi, se = row.get("pr"), row.get("lower"), row.get("upper"), row.get("se")
        if not all(_finite(v) for v in (pr, lo, hi, se)) or not (0 < lo <= pr <= hi) or se < 0:
            verdict.problems.append(f"{m}: invalid interval pr={pr} [{lo}, {hi}] se={se}")
            continue
        if m in GATED and m in targets:
            # POR's SE is on the log scale, CPR's and MPR's on the ratio scale
            dist = abs(math.log(pr / targets[m])) if m == "POR" else abs(pr - targets[m])
            if dist > K_SE * se:
                verdict.problems.append(
                    f"{m}: {pr:.6g} is {dist / se:.1f} SE from target {targets[m]:.6g}")
    if reference is not None:
        verdict.problems += _reference_diff(
            {"input_sha256": input_sha256, "payload": payload}, reference, "reference")
    if verdict.problems:
        verdict.failed = verdict.attempted
    return verdict


def study_view(payload) -> dict:
    """The numbers of a StudyReport payload that the reference pins."""
    return {k: payload[k] for k in ("study", "truth", "methods")}


def check_study(payload, reps: int, methods, true_mpr: float, por_target: float,
                reference: dict | None) -> Verdict:
    """Gate a ``simulate --format json`` payload."""
    verdict = Verdict(attempted=reps * len(methods))
    try:
        summaries = {s["method"]: s for s in payload["methods"]}
        truth = payload["truth"]
    except (TypeError, KeyError):
        return _fail_all(verdict, "payload is not a study report")
    if list(summaries) != list(methods):
        return _fail_all(verdict, f"methods {list(summaries)} != {list(methods)}")
    if not _close(truth.get("true_mpr"), true_mpr, 1e-8):
        verdict.problems.append(f"true_mpr {truth.get('true_mpr')} != {true_mpr}")
    if not _close(truth.get("por_target"), por_target, 1e-12):
        verdict.problems.append(f"por_target {truth.get('por_target')} != {por_target}")
    targets = {"MPR": true_mpr, "CPR": truth.get("mean_true_cpr_at_zbar"),
               "POR": por_target}
    level = payload.get("study", {}).get("level", 0.95)
    half = STUDY_COVERAGE_SDS * math.sqrt(level * (1.0 - level) / reps)
    for m, s in summaries.items():
        if s.get("n_ok", 0) + s.get("n_failed", 0) != reps:
            verdict.problems.append(f"{m}: n_ok + n_failed != {reps}")
            continue
        verdict.failed += s["n_failed"]
        if m not in GATED:
            continue
        mean, emp_se, cov = s.get("mean_estimate"), s.get("empirical_se"), s.get("coverage")
        target = targets[m]
        if not all(_finite(v) for v in (mean, emp_se, target)) or abs(mean - target) > (
                K_SE * emp_se / math.sqrt(s["n_ok"]) + STUDY_BIAS_REL * target):
            verdict.problems.append(f"{m}: mean {mean} too far from target {target}")
        if not (_finite(cov) and abs(cov - level) <= half):
            verdict.problems.append(f"{m}: coverage {cov} outside {level} +- {half:.3f}")
    if reference is not None:
        verdict.problems += _reference_diff({"payload": study_view(payload)}, reference,
                                            "reference")
    if verdict.problems:
        verdict.failed = verdict.attempted
    return verdict


def _reference_diff(got, want, where: str) -> list[str]:
    """Every place where ``got`` differs from ``want`` beyond REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ from the reference"]
        return [p for k in want for p in _reference_diff(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _reference_diff(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if _close(got, want) else [f"{where}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]
