"""The package's public names, the error its argument checks raise, and its one fit path."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prevratio
import prevratio.cli
import prevratio.data
from prevratio import (IntervalEstimate, InvalidArgumentError, MethodSummary, PrEstimate,
                       ToyConfig, bootstrap_prs, conditional_pr, fit_glm, marginal_pr,
                       normal_quantile, replication_study, sandwich_vcov, simulate_toy)
from prevratio.glm import predict_prevalence


def test_every_exported_name_resolves():
    missing = [name for name in prevratio.__all__ if not hasattr(prevratio, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(set(prevratio.__all__)) == len(prevratio.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from prevratio import *", namespace)
    assert set(prevratio.__all__) <= namespace.keys()


def test_first_use_hides_no_name():
    # importing a submodule binds it on the package, and this process has
    # imported them all, so a name the package's __getattr__ misses shows
    # only in a fresh interpreter. One submodule's import binds the ones it
    # imports too, so each is read first from a package imported afresh.
    submodules = ("classical", "data", "errors", "glm", "linalg", "methods", "parallel",
                  "ratios", "simulate", "variance")
    code = ("import importlib, sys\n"
            "def fresh():\n"
            "    for m in [m for m in sys.modules if m.split('.')[0] == 'prevratio']:\n"
            "        del sys.modules[m]\n"
            "    return importlib.import_module('prevratio')\n"
            "pkg = fresh()\n"
            "print(sorted(set(pkg.__all__) - set(dir(pkg))))\n"
            "star = {}\n"
            "exec('from prevratio import *', star)\n"
            "print(sorted(set(pkg.__all__) - star.keys()))\n"
            f"print([n for n in ('METHOD_LABELS', *{submodules!r}) if not hasattr(fresh(), n)])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(prevratio.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n[]\n[]\n"


TOY = simulate_toy(ToyConfig(n=200, seed=1))
# the toy data less its confounder: a fit to it has fewer columns than TOY
TOY_X = dataclasses.replace(TOY, X=TOY.X[:, :2], column_names=TOY.column_names[:2])
COLUMNS = "the fit's columns ('(Intercept)', 'x') are not the dataset's ('(Intercept)', 'x', 'z')"


BAD_ARGUMENTS = {
    "predict-shape": (lambda: predict_prevalence(fit_glm(TOY, "binomial-logit"), np.ones((2, 5))),
                      "design has shape (2, 5), expected (*, 3)"),
    "predict-log-above-1": (
        lambda: predict_prevalence(fit_glm(TOY, "binomial-log"), [[1.0, 1.0, 50.0]]),
        "binomial-log prediction >= 1: not a valid prevalence"),
    "boot-estimators": (lambda: bootstrap_prs(fit_glm(TOY, "binomial-logit"), TOY, ("POR",),
                                              100, seed=0),
                        "estimators must be 'CPR' and/or 'MPR', got ('POR',)"),
    "boot-reps": (lambda: bootstrap_prs(fit_glm(TOY, "binomial-logit"), TOY, ("CPR",), 99, seed=0),
                  "need at least 100 bootstrap replicates, got 99"),
    "boot-seed": (lambda: bootstrap_prs(fit_glm(TOY, "binomial-logit"), TOY, ("CPR",), 100,
                                        seed=-1),
                  "bootstrap seed must be non-negative, got -1"),
    "boot-family": (lambda: bootstrap_prs(fit_glm(TOY, "poisson-log"), TOY, ("CPR",), 100, seed=0),
                    "this estimator needs a binomial-logit fit, got 'poisson-log'"),
    "study-reps": (lambda: replication_study(ToyConfig(), 99),
                   "need at least 100 replicates, got 99"),
    "study-no-methods": (lambda: replication_study(ToyConfig(), 100, methods=()),
                         "methods must be non-empty"),
    "study-method": (lambda: replication_study(ToyConfig(), 100, methods=("MantelHaenszel",)),
                     "method 'MantelHaenszel' is not available in the replication study; "
                     "choose from ('CPR', 'MPR', 'POR', 'LogBinomial', 'RobustPoisson', "
                     "'Schouten', 'Crude')"),
    "toy-n": (lambda: ToyConfig(n=0), "n must be at least 1, got 0"),
    "toy-seed": (lambda: ToyConfig(seed=-1), "seed must be non-negative, got -1"),
    "toy-exposure": (lambda: ToyConfig(p_exposure=1.0), "p_exposure must be in (0, 1)"),
    "toy-baseline": (lambda: ToyConfig(baseline_prevalence=0.0),
                     "baseline_prevalence must be in (0, 1)"),
    "toy-pr": (lambda: ToyConfig(pr_at_z0=0.0), "pr_at_z0 must be positive"),
    "toy-implied": (lambda: ToyConfig(baseline_prevalence=0.6),
                    "implied exposed prevalence at z=0 is 1.2, outside (0, 1)"),
    "normal-quantile": (lambda: normal_quantile(1.0),
                        "quantile probability must be in (0, 1), got 1.0"),
    "interval-se": (lambda: IntervalEstimate(1.0, -0.1, 0.5, 2.0, 0.95),
                    "standard error must be nonnegative, got -0.1"),
    "interval-bounds": (lambda: IntervalEstimate(1.0, 0.1, 0.0, 2.0, 0.95),
                        "ratio-scale bounds must be positive"),
    "interval-point": (lambda: IntervalEstimate(3.0, 0.1, 1.0, 2.0, 0.95),
                       "interval (1.0, 2.0) does not contain the point estimate 3.0"),
    "estimate-label": (lambda: PrEstimate("OR", IntervalEstimate(1.0, 0.1, 0.5, 2.0, 0.95), "x"),
                       "unknown method label 'OR'"),
    "summary-coverage": (lambda: MethodSummary("CPR", 100, 0, 2.0, 0.1, 0.4, 1.5),
                         "coverage must be in [0, 1], got 1.5"),
    "summary-counts": (lambda: MethodSummary("CPR", 100, -1, 2.0, 0.1, 0.4, 0.9),
                       "replicate counts must be nonnegative"),
    "sandwich-rows": (lambda: sandwich_vcov(fit_glm(TOY, "poisson-log"),
                                            simulate_toy(ToyConfig(n=100, seed=1))),
                      "the fit has 200 rows, the dataset 100"),
    "toy-replicate": (lambda: simulate_toy(ToyConfig(), replicate=-1),
                      "replicate must be non-negative, got -1"),
    "cpr-columns": (lambda: conditional_pr(fit_glm(TOY_X, "binomial-logit"), TOY), COLUMNS),
    "mpr-columns": (lambda: marginal_pr(fit_glm(TOY_X, "binomial-logit"), TOY), COLUMNS),
    "boot-columns": (lambda: bootstrap_prs(fit_glm(TOY_X, "binomial-logit"), TOY, ("MPR",), 100,
                                           seed=0), COLUMNS),
    "sandwich-columns": (lambda: sandwich_vcov(fit_glm(TOY_X, "poisson-log"), TOY), COLUMNS),
}


@pytest.mark.parametrize("call, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_typed(call, message):
    # InvalidArgumentError is a ValueError too, so older callers still catch it
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message


NON_INTEGER_COUNTS = {
    "boot-reps": (lambda: bootstrap_prs(fit_glm(TOY, "binomial-logit"), TOY, ("CPR",), 100.0,
                                        seed=0), "reps must be an integer, got 100.0"),
    "boot-seed": (lambda: bootstrap_prs(fit_glm(TOY, "binomial-logit"), TOY, ("CPR",), 100,
                                        seed=1.5), "seed must be an integer, got 1.5"),
    "study-reps": (lambda: replication_study(ToyConfig(), 100.0),
                   "reps must be an integer, got 100.0"),
    "toy-n": (lambda: ToyConfig(n=50.5), "n must be an integer, got 50.5"),
    "toy-seed": (lambda: ToyConfig(seed=1.5), "seed must be an integer, got 1.5"),
    "toy-replicate": (lambda: simulate_toy(ToyConfig(), replicate="1"),
                      "replicate must be an integer, got '1'"),
}


@pytest.mark.parametrize("call, message", NON_INTEGER_COUNTS.values(),
                         ids=NON_INTEGER_COUNTS.keys())
def test_non_integer_count_is_typed(call, message):
    # a count or a seed that is not an integer is named, not a raw TypeError
    # from deep inside numpy; numpy's integers are integers
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integer_counts_are_accepted():
    assert ToyConfig(n=np.int64(50), seed=np.int32(1)).n == 50
    ds = simulate_toy(ToyConfig(n=np.int64(50)), replicate=np.int64(2))
    assert ds.n == 50


def definitions():
    """``module.function`` or ``module.Class.method`` of every definition, with its node."""
    for path in sorted(Path(prevratio.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            defs = ([(f"{owner}.{d.name}" if isinstance(d, ast.FunctionDef) else owner, d)
                     for d in top.body] if isinstance(top, ast.ClassDef) else [(owner, top)])
            for label, node in defs:
                yield f"{path.stem}.{label}", node


def named(node, name: str) -> bool:
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def referrers(name: str) -> set[str]:
    """Every definition (see :func:`definitions`) that names ``name``."""
    return {label for label, node in definitions() if any(named(n, name) for n in ast.walk(node))}


def callers(name: str) -> set[str]:
    """Every definition (see :func:`definitions`) that calls ``name``."""
    return {label for label, node in definitions()
            if any(isinstance(n, ast.Call) and named(n.func, name) for n in ast.walk(node))}


def test_one_fit_path():
    # the registry builds every estimator's fit; only the bootstrap refits its resamples
    assert referrers("fit_stack") == {"glm.fit_glm", "methods.block_fits"}
    assert referrers("fit_glm") == set()
    assert referrers("_refit") == {"ratios.bootstrap_prs"}
    # one Newton loop: fit_stack runs it and then its finish, a refit runs it alone
    assert referrers("_irls") == {"glm.fit_stack", "glm._refit"}
    assert referrers("_finish") == {"glm.fit_stack"}
    # and each refit starts from the fit it was handed: its one call passes it on
    calls = [node for path in Path(prevratio.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_refit"]
    assert [ast.unparse(call) for call in calls] == ["_refit(fit, block)"]


def test_one_stack_of_fits():
    # fit_stack gives one stack of arrays, and a FitResult is made of a stack
    # of one in one place; estimate reads a dataset's fits, a stack of one
    assert callers("FitResult") == {"glm._Fits.one"}
    assert inspect.signature(prevratio.glm.fit_stack).return_annotation == "_Fits"
    assert not hasattr(prevratio.glm, "_stacked")
    assert list(inspect.signature(prevratio.methods.estimate).parameters) == [
        "method", "fits", "ds", "level", "at"]


def test_one_inverse_normal():
    # the study's normal draws and every interval's z come from one stacked
    # function, the only caller of the C inverse CDF; no NormalDist is made
    assert referrers("_normal_dist_inv_cdf") == {"variance._normal_quantiles"}
    assert referrers("_normal_quantiles") == {"variance.normal_quantile",
                                              "simulate._simulate_block"}
    assert [path.name for path in sorted(Path(prevratio.__file__).parent.glob("*.py"))
            if "NormalDist" in path.read_text()] == []


BOOTSTRAP_MAP = """
n = 200
x = np.arange(n) % 2.0
z = np.sin(np.arange(n))
y = (np.cos(3.0 * np.arange(n)) + 0.4 * x > 0.5).astype(float)
ds = Dataset(y=y, X=np.column_stack([np.ones(n), x, z]), column_names=("(Intercept)", "x", "z"))
fit = fit_glm(ds, "binomial-logit")
print("numpy.random" in sys.modules)
ratios.bootstrap_prs(fit, ds, ("CPR",), 100, seed=0)
"""
STUDY_MAP = """
print("numpy.random" in sys.modules)
simulate.replication_study(ToyConfig(n=50), 100, methods=("CPR",))
"""


@pytest.mark.parametrize("run", [BOOTSTRAP_MAP, STUDY_MAP], ids=["bootstrap", "study"])
def test_maps_start_with_numpy_random_loaded(run):
    # a worker that imports numpy.random at its first draw spends about 15 ms
    # on it: the bootstrap and the study load it once, before they fork, and
    # no import of the package loads it
    code = ("import sys\n"
            "import numpy as np\n"
            "import prevratio.cli\n"
            "from prevratio import Dataset, ToyConfig, fit_glm, ratios, simulate\n"
            "loaded = []\n"
            "def spy(fork_map):\n"
            "    def first_checked(fn, items):\n"
            "        loaded.append('numpy.random' in sys.modules)\n"
            "        return fork_map(fn, items)\n"
            "    return first_checked\n"
            "ratios._fork_map = spy(ratios._fork_map)\n"
            "simulate._fork_map = spy(simulate._fork_map)\n"
            f"{run}\n"
            "print(loaded)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(prevratio.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n[True]\n"


def test_one_warm_start():
    # a fit starts at its intercept-only coefficients; only a refit passes a start
    defs = [node for tree in src_trees() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)]
    assert not [d.name for d in defs
                if "beta0" in {a.arg for a in ast.walk(d.args) if isinstance(a, ast.arg)}]
    assert list(inspect.signature(fit_glm).parameters) == ["ds", "family_link"]
    with_start = {f"{path.stem}.{top.name}"
                  for path in sorted(Path(prevratio.__file__).parent.glob("*.py"))
                  for top in ast.parse(path.read_text()).body for node in ast.walk(top)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_irls"
                  and len(node.args) + len(node.keywords) > 5}
    assert with_start == {"glm._refit"}


def test_one_replicate_path(monkeypatch, one_worker):
    # a resample is a block of one, refitted and scored as the study's blocks
    # are: the bootstrap builds no Dataset, and only a refit passes _irls a
    # start (see test_one_warm_start)
    assert not hasattr(prevratio.Dataset, "frequency_weighted")
    assert callers("_resample") == {"ratios.bootstrap_prs"}
    binary = dataclasses.replace(TOY, X=np.column_stack([TOY.X[:, :2], TOY.X[:, 2] > 0.0]))
    fits = [(ds, fit_glm(ds, "binomial-logit")) for ds in (TOY, binary)]
    assert binary._patterns is not None and TOY._patterns is None
    made = []
    post_init = prevratio.Dataset.__post_init__
    monkeypatch.setattr(prevratio.Dataset, "__post_init__",
                        lambda self: made.append(None) or post_init(self))
    for ds, fit in fits:
        out = bootstrap_prs(fit, ds, ("CPR", "MPR"), 100, seed=0)
        assert all(isinstance(est, PrEstimate) for est in out.values())
    assert made == []


def test_one_record_loop():
    # the row loop and the table reader read csv records, and number their
    # lines, through one loop
    assert referrers("_records") == {"data._parse_rows", "classical.StratifiedTable.from_csv"}
    assert referrers("DictReader") == set()
    numbered = [ast.unparse(node) for tree in src_trees() for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "enumerate"
                and (len(node.args) > 1 or node.keywords)]
    assert numbered == []


def test_one_pattern_table():
    # the dataset's cached table is the one place that keys, sorts or packs rows
    assert referrers("_pattern_table") == {"data.Dataset._patterns"}
    assert referrers("lexsort") | referrers("packbits") == {"data._pattern_table"}
    # the fits, the 2x2 tables, the resamples, the covariate means and MPR read it
    assert {"glm.fit_glm", "methods.dataset_fits", "classical.stratified_from_dataset",
            "data._resample", "data._distinct_rows"} <= referrers("_patterns")
    # a resample is already its drawn patterns when tabled, so a refit builds no table
    assert referrers("_distinct_rows") == {"classical.crude_table", "data.covariate_means",
                                           "methods.dataset_fits", "ratios._rows"}


def test_one_row_choice_for_cpr_and_mpr():
    # _population alone picks the rows CPR and MPR average over, for the
    # estimators and the bootstrap alike
    assert referrers("_conditioning_point") == {"ratios._population"}
    assert {"ratios.conditional_pr", "ratios.marginal_pr",
            "ratios._points"} <= referrers("_population")
    tree = ast.parse((Path(prevratio.__file__).parent / "ratios.py").read_text())
    branches = {top.name for top in tree.body for node in ast.walk(top)
                if isinstance(node, ast.Compare) and any(
                    getattr(n, "value", None) in ("CPR", "MPR") for n in ast.walk(node))}
    assert branches == {"_population"}


def test_one_failure_count():
    # the bootstrap and the study count failed replicates in one place
    assert referrers("Counter") == {"errors._failure_reasons"}
    assert {"ratios.bootstrap_prs", "simulate.replication_study"} <= referrers("_failure_reasons")
    # a stacked score never raises a problem's error, it records it; so does a
    # bootstrap replicate, and no raise is turned back into a value
    assert referrers("_outcome") == set()
    assert referrers("_fail") == {"variance._ratio_intervals", "ratios._arms",
                                  "classical._crude_intervals", "classical._crude_tables"}


def test_one_work_split():
    # the bootstrap, the study and the fits map their own items one by one;
    # only parallel.py deals them out to the workers in parts
    assert referrers("_fork_map") == {"methods.block_fits", "ratios.bootstrap_prs",
                                      "simulate.replication_study"}
    assert not hasattr(prevratio.simulate, "_study_rows")
    part_params = [f"{path.stem}:{node.lineno}"
                   for path in sorted(Path(prevratio.__file__).parent.glob("*.py"))
                   if path.stem != "parallel"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.Lambda))
                   and "part" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    assert part_params == []


def test_traced_names_exist():
    # the benchmark's tracer wraps these two without checking that they exist,
    # and its traced run calls cli.main: without any of them a traced run fails
    assert callable(prevratio.glm.fit_glm)
    assert callable(prevratio.data.Dataset.take_rows)
    assert callable(prevratio.cli.main)


def test_one_stand_in_factor():
    # a rank-deficient matrix's factor is replaced by the identity in one place
    assert referrers("eye") == {"linalg.cholesky_stack"}


def test_one_cross_tabulation():
    # the crude table and the Mantel-Haenszel strata code and sum their cells in one place
    assert {r for r in referrers("bincount") if r.startswith("classical.")} == {"classical._cells"}
    assert referrers("_cells") == {"classical._crude_tables", "classical.stratified_from_dataset"}


def test_one_inverse_link_table():
    # every inverse link is read off _FAMILIES: no glm definition but its table
    # names expit, and predictions take no exp of their own
    assert {r for r in referrers("expit") if r.startswith("glm.")} == {"glm.<module>"}
    assert "glm.predict_prevalence" in referrers("inverse_link") - referrers("exp")


def test_one_binary_design_check():
    # the pattern table checks the design for 0/1 in one scan of its blocks,
    # with no separate look at its first rows
    assert not hasattr(prevratio.data, "_HEAD_ROWS")
    assert referrers("_HEAD_ROWS") == set()


def test_no_dead_names():
    # every top-level function, class and constant is named by another
    # top-level statement of the package, is exported, or is the console entry
    tops = [(path.stem, top) for path in sorted(Path(prevratio.__file__).parent.glob("*.py"))
            for top in ast.parse(path.read_text()).body]
    named = [{getattr(n, "id", None) for n in ast.walk(top)}
             | {getattr(n, "attr", None) for n in ast.walk(top)} for _, top in tops]
    dead = []
    for i, (module, top) in enumerate(tops):
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names = [top.name]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        dead += [f"{module}.{name}" for name in names
                 if not any(name in other for j, other in enumerate(named) if j != i)
                 and name not in prevratio.__all__ and f"{module}.{name}" != "cli.main"
                 and not name.startswith("__")]
    assert dead == []


def test_no_instance_dict_writes():
    # a cached property fills itself; no code stores into an instance's __dict__
    writes = [node for path in Path(prevratio.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
              and getattr(node.value, "attr", None) == "__dict__"
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "attr", None) == "__dict__"]
    assert writes == []


def test_one_csv_parse():
    # np.loadtxt is called in one place, data._loadtxt: its int32 attempt and
    # float fallback are the one parse of the disk and of the filled body alike
    assert referrers("loadtxt") == {"data._loadtxt"}
    calls = [node for path in Path(prevratio.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if "loadtxt" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert len(calls) == 1


def test_logistic_estimators_take_the_fit():
    # every logistic-based estimator reads a fit it is handed and contrasts
    # design column 1; no parameter picks another column or makes a fit
    defs = [node for path in Path(prevratio.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)]
    assert not [d.name for d in defs
                if {a.arg for a in ast.walk(d.args) if isinstance(a, ast.arg)}
                & {"predictor", "full_fit", "nodes"}]
    for name in ("conditional_pr", "marginal_pr", "prevalence_odds_ratio", "bootstrap_prs"):
        assert next(iter(inspect.signature(getattr(prevratio, name)).parameters)) == "fit"
    assert not {"converged", "n_used"} & {f.name for f in dataclasses.fields(prevratio.FitResult)}


def test_one_exposure_contrast():
    # CPR, MPR and the bootstrap read their predicted prevalences from _arms
    # alone: no other definition in ratios.py calls expit
    tree = ast.parse((Path(prevratio.__file__).parent / "ratios.py").read_text())
    callers = {top.name for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "expit"}
    assert callers == {"_arms"}
    assert {"ratios._contrast", "ratios._points"} <= referrers("_arms")
    # a refit's one-step start reads the score of glm's Newton step, in glm
    assert referrers("_score") == {"glm._newton_direction", "glm._refit"}
    assert {"ratios.conditional_pr", "ratios.marginal_pr"} <= referrers("_contrast_estimate")
    assert referrers("_contrast") == {"ratios._contrast_estimate", "methods.<module>"}


def test_one_scoring_path():
    # the study draws, fits and scores each block as stacks: it builds no
    # estimate of one replicate and calls no one-replicate estimator
    tree = ast.parse((Path(prevratio.__file__).parent / "simulate.py").read_text())
    names = {getattr(n, "id", None) for n in ast.walk(tree)} | {
        getattr(n, "attr", None) for n in ast.walk(tree)}
    assert not names & {"estimate", "from_fit", "PrEstimate", "IntervalEstimate",
                        "ratio_interval", "sandwich_vcov", "crude_pr", "conditional_pr",
                        "marginal_pr", "prevalence_odds_ratio"}
    assert "scores" in names


def test_no_one_replicate_twin():
    # every estimate is computed on stacks; a public estimator is its stacked
    # form on a stack of one and no package code calls the one-problem forms
    modules = ("classical", "methods", "ratios", "variance")
    scalar_math = [f"{path.stem}:{node.lineno}"
                   for path in sorted(Path(prevratio.__file__).parent.glob("*.py"))
                   if path.stem in modules
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and getattr(node.func.value, "id", None) == "math"
                   and node.func.attr not in ("isfinite",)]
    assert scalar_math == []
    assert referrers("ratio_interval") == set()
    assert referrers("sandwich_vcov") == set()
    stacks_of_one = {"_ratio_intervals": "variance.ratio_interval",
                     "_hc0": "variance.sandwich_vcov",
                     "_crude_intervals": "classical.crude_pr",
                     "_crude_tables": "classical.crude_table",
                     "_contrast": "ratios._contrast_estimate",
                     "_coefficient_ratios": "ratios.prevalence_odds_ratio",
                     "_arms": "ratios._points"}
    for stacked, one in stacks_of_one.items():
        assert one in referrers(stacked), stacked
    # the registry scores one dataset with the same stacked scores as a block
    assert referrers("scores") >= {"methods._one", "simulate._block_rows"}


def src_trees():
    return [ast.parse(path.read_text())
            for path in sorted(Path(prevratio.__file__).parent.glob("*.py"))]


def test_every_open_names_its_encoding():
    # text is read and written as UTF-8 whatever the locale: every builtin
    # open() names its encoding or opens the file as bytes
    opens = [node for tree in src_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"]
    assert opens
    for call in opens:
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        assert binary or "encoding" in {k.arg for k in call.keywords}, ast.unparse(call)


def test_no_byte_order_mark_literal():
    # the "utf-8-sig" codec drops a leading byte-order mark; no code looks for one
    assert not [node.value for tree in src_trees() for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "\ufeff" in node.value]
