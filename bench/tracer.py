"""Traced in-process run of ``prevratio.cli.main`` with per-layer metrics.

Usage::

    PYTHONPATH=src python3 bench/tracer.py OUT.json STDOUT_FILE -- <cli args>

Every wrapped public function is replaced, in every ``prevratio`` module
namespace that holds it, by a wrapper that records a span (name, start,
end, parent, counts). The spans stay in memory while ``main`` runs and
are written to OUT.json at the end together with the per-layer metrics
derived from them; the CLI's own output goes to STDOUT_FILE. No file of
the package is changed.

Layers are the package's modules. For each wrapped function the metrics
are ``<module>.<function>.calls``, ``.s`` (busy time: spans not nested in
a span of the same name) and ``.self_s`` (busy time minus the time of
child spans). ``fit_glm`` is split by family as ``glm.fit.<family>.*``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (layer, function) pairs wrapped at module level; the layer is the module
FUNCTIONS = (
    ("data", "load_csv"),
    ("linalg", "weighted_cross_product"),
    ("linalg", "spd_solve"),
    ("linalg", "spd_inverse"),
    ("variance", "sandwich_vcov"),
    ("variance", "interval_from_log_scale"),
    ("variance", "wald_ci_log_scale"),
    ("ratios", "conditional_pr"),
    ("ratios", "marginal_pr"),
    ("ratios", "prevalence_odds_ratio"),
    ("ratios", "log_binomial_pr"),
    ("ratios", "robust_poisson_pr"),
    ("ratios", "bootstrap_pr"),
    ("classical", "schouten_expand"),
    ("classical", "schouten_pr"),
    ("classical", "stratified_from_dataset"),
    ("classical", "mantel_haenszel_pr"),
    ("classical", "crude_table"),
    ("classical", "crude_pr"),
    ("simulate", "simulate_toy"),
    ("simulate", "true_marginal_pr"),
    ("simulate", "replication_study"),
    ("cli", "main"),
)
FAMILIES = ("binomial-logit", "binomial-log", "poisson-log")
TAKE_ROWS = "data.Dataset.take_rows"


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fn in FUNCTIONS]
    return names[:1] + [TAKE_ROWS] + [f"glm.fit.{f}" for f in FAMILIES] + names[1:]


_UNITS = {"calls": "count", "s": "s", "self_s": "s", "mb_per_s": "MB/s",
          "rows_dropped": "count", "iterations": "count", "failed": "count",
          "s_per_iteration": "s", "computed_gb_per_s": "GB/s", "failed_frac": "ratio",
          "fits_per_resample": "ratio", "overhead_s": "s"}


def metric_unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def metric_names() -> list[str]:
    """Every per-layer metric, in the order they are reported."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
        if span == "data.load_csv":
            names += [f"{span}.mb_per_s", f"{span}.rows_dropped"]
        elif span.startswith("glm.fit."):
            names += [f"{span}.iterations", f"{span}.failed"]
        elif span == "linalg.weighted_cross_product":
            names.append(f"{span}.computed_gb_per_s")
        elif span == "ratios.bootstrap_pr":
            names += [f"{span}.failed_frac", f"{span}.fits_per_resample"]
        elif span == "simulate.replication_study":
            names.append(f"{span}.failed_frac")
        if span == "glm.fit.poisson-log":
            names.append("glm.fit.s_per_iteration")
    return names + ["trace.overhead_s"]


class SpanRecorder:
    """Records nested spans [name, start, end, parent, counts] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counts=None):
        """``fn`` wrapped to record a span named ``name`` (str or callable)."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, time.perf_counter(), None, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4]["failed"] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4].update(counts(result, *args, **kwargs))
            return result

        return wrapper


def _fit_name(ds, family_link, **_):
    return f"glm.fit.{family_link}"


_COUNTS = {
    "data.load_csv": lambda ds, path, *a, **k: {
        "bytes": os.path.getsize(path), "rows_dropped": ds.n_dropped},
    "linalg.weighted_cross_product": lambda A, X, *a, **k: {
        "bytes": X.shape[0] * X.shape[1] * 8},
    "ratios.bootstrap_pr": lambda est, ds, estimator, reps, *a, seed, **k: {
        "reps": reps, "failed_reps": est.metadata["failed_replicates"],
        "resamples": [seed, ds.n, reps]},
    "simulate.replication_study": lambda rep, *a, **k: {
        "estimates": rep.reps * len(rep.methods),
        "failed_estimates": sum(s.n_failed for s in rep.summaries)},
}


def install(recorder: SpanRecorder):
    """Wrap every traced function wherever a prevratio module refers to it."""
    import prevratio.cli  # noqa: F401  (loads every module of the package)
    from prevratio import data, glm

    replacements = {}
    for layer, fn_name in FUNCTIONS:
        orig = getattr(sys.modules.get(f"prevratio.{layer}"), fn_name, None)
        if orig is None:
            continue  # gone from the package: reported as never called
        name = f"{layer}.{fn_name}"
        replacements[id(orig)] = recorder.wrap(orig, name, _COUNTS.get(name))
    replacements[id(glm.fit_glm)] = recorder.wrap(
        glm.fit_glm, _fit_name, lambda fit, *a, **k: {"iterations": fit.iterations})
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "prevratio" or mod_name.startswith("prevratio."):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
    data.Dataset.take_rows = recorder.wrap(data.Dataset.take_rows, TAKE_ROWS)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from recorded spans (0 for functions never called)."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    agg = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, counts) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += (end - start) - child_time[i]
        if all(spans[p][0] != name for p in ancestors(i)):
            a["s"] += end - start
        for key, value in counts.items():
            if key != "resamples":
                a[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span in span_names():
        a = agg[span]
        out[f"{span}.calls"] = a["calls"]
        out[f"{span}.s"] = a["s"]
        out[f"{span}.self_s"] = a["self_s"]
    out["data.load_csv.mb_per_s"] = ratio(agg["data.load_csv"]["bytes"] / 1e6,
                                          agg["data.load_csv"]["s"])
    out["data.load_csv.rows_dropped"] = agg["data.load_csv"]["rows_dropped"]
    for f in FAMILIES:
        out[f"glm.fit.{f}.iterations"] = agg[f"glm.fit.{f}"]["iterations"]
        out[f"glm.fit.{f}.failed"] = agg[f"glm.fit.{f}"]["failed"]
    out["glm.fit.s_per_iteration"] = ratio(
        sum(agg[f"glm.fit.{f}"]["s"] for f in FAMILIES),
        sum(agg[f"glm.fit.{f}"]["iterations"] for f in FAMILIES))
    wcp = agg["linalg.weighted_cross_product"]
    out["linalg.weighted_cross_product.computed_gb_per_s"] = ratio(wcp["bytes"] / 1e9,
                                                                   wcp["self_s"])

    boot = agg["ratios.bootstrap_pr"]
    boot_spans = {i for i, s in enumerate(spans) if s[0] == "ratios.bootstrap_pr"}
    boot_fits = sum(1 for i, s in enumerate(spans) if s[0] == "glm.fit.binomial-logit"
                    and any(p in boot_spans for p in ancestors(i)))
    # resample r of a call is fixed by (seed, n, r): calls sharing a seed and
    # n draw the same resamples
    drawn = defaultdict(int)
    for i in boot_spans:
        if "resamples" in spans[i][4]:
            seed, n, reps = spans[i][4]["resamples"]
            drawn[seed, n] = max(drawn[seed, n], reps)
    out["ratios.bootstrap_pr.failed_frac"] = ratio(boot["failed_reps"], boot["reps"])
    out["ratios.bootstrap_pr.fits_per_resample"] = ratio(boot_fits, sum(drawn.values()))
    study = agg["simulate.replication_study"]
    out["simulate.replication_study.failed_frac"] = ratio(study["failed_estimates"],
                                                          study["estimates"])
    return out


def main(argv: list[str]) -> int:
    out_path, stdout_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json STDOUT_FILE -- <cli args>")
    recorder = SpanRecorder()
    install(recorder)
    import prevratio.cli as cli

    saved = sys.stdout
    with open(stdout_path, "w") as fh:
        sys.stdout = fh
        try:
            start = time.perf_counter()
            rc = cli.main(cli_args)
            wall = time.perf_counter() - start
        finally:
            sys.stdout = saved
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "wall_s": wall, "metrics": layer_metrics(recorder.spans),
                   "spans": recorder.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
