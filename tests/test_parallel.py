"""Resampling loops in forked workers: same bits for any worker count, clean failure."""

import json
import os
import pickle
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import prevratio
from prevratio import (ToyConfig, bootstrap_prs, errors, fit_glm, methods, parallel,
                       replication_study)
from prevratio.errors import (DataError, DegenerateDenominatorError, InvalidArgumentError,
                              NonConvergenceError, NonIdentifiableError, PrevRatioError,
                              RankDeficientError)
from prevratio.methods import dataset_fits
from prevratio.parallel import WorkerTraceback, _fork_map


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tagged(item):
    return os.getpid(), item


def worker_parts(out):
    """The pid of each run of consecutive items that ``tagged`` ran in one process."""
    pids = [pid for pid, _ in out]
    return [pid for j, pid in enumerate(pids) if j == 0 or pid != pids[j - 1]]


class TestForkMap:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fn_gets_each_item(self, workers, k):
        workers(k)
        assert _fork_map(lambda i: i * 2, range(7)) == [0, 2, 4, 6, 8, 10, 12]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_contiguous_parts_in_order(self, workers, k, n):
        workers(k)
        out = _fork_map(tagged, range(n))
        assert [i for _, i in out] == list(range(n))
        parts = worker_parts(out)
        assert parts[0] == os.getpid()
        # one non-empty contiguous part per worker
        assert len(parts) == len(set(parts)) == min(k, n)
        assert_no_children()

    def test_child_error_is_raised_here(self, workers):
        workers(3)
        before = open_fds()
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                raise KeyError(f"item {i}")
            return i
        with pytest.raises(KeyError, match="item 3") as info:
            _fork_map(fn, range(9))
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "in fn" in str(cause) and "KeyError" in str(cause)
        assert_no_children()
        assert open_fds() == before

    def test_typed_error_keeps_its_attributes(self, workers):
        workers(2)
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                raise RankDeficientError(3)
            return i
        with pytest.raises(RankDeficientError) as info:
            _fork_map(fn, range(4))
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert info.value.column == 3
        assert str(info.value) == "matrix is rank deficient at column 3"
        assert_no_children()

    def test_own_part_failing_kills_the_children(self, workers):
        workers(3)
        before = open_fds()
        parent = os.getpid()

        def fn(i):
            if os.getpid() == parent:
                raise ZeroDivisionError("in the parent's part")
            time.sleep(60)
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError):
            _fork_map(fn, range(3))
        assert time.monotonic() - start < 30
        assert_no_children()
        assert open_fds() == before

    def test_child_without_a_result(self, workers):
        workers(2)
        before = open_fds()
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                os._exit(3)
            return i
        with pytest.raises(ChildProcessError, match="exit code 3"):
            _fork_map(fn, range(2))
        assert_no_children()
        assert open_fds() == before

    def test_serial_on_one_cpu_or_off_the_main_thread(self, workers):
        serial = [(os.getpid(), i) for i in range(5)]
        workers(1)
        assert _fork_map(tagged, range(5)) == serial
        workers(4)
        out = []
        thread = threading.Thread(target=lambda: out.append(_fork_map(tagged, range(5))))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert out == [serial]

    def test_real_cpu_count(self):
        # the default count is the affinity mask, capped by the items
        out = _fork_map(tagged, range(50))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert len(worker_parts(out)) == min(cpus, 50)
        assert [i for _, i in out] == list(range(50))


class TestOneLevel:
    @pytest.mark.parametrize("k", [2, 3])
    def test_nested_map_runs_in_its_part(self, workers, k):
        workers(k)
        out = _fork_map(lambda i: (os.getpid(), _fork_map(tagged, range(5))), range(k))
        assert len({pid for pid, _ in out}) == k
        for pid, inner in out:
            assert inner == [(pid, i) for i in range(5)]
        assert not parallel._forking
        assert len(worker_parts(_fork_map(tagged, range(5)))) == k  # forks again
        assert_no_children()

    def test_flag_cleared_when_own_part_raises(self, workers):
        workers(3)
        parent = os.getpid()

        def fn(i):
            if os.getpid() == parent:
                raise ZeroDivisionError("in the parent's part")
            return i
        with pytest.raises(ZeroDivisionError):
            _fork_map(fn, range(3))
        assert not parallel._forking
        assert len(worker_parts(_fork_map(tagged, range(3)))) == 3
        assert_no_children()


ALL_METHODS = ("RobustPoisson", "LogBinomial", "POR", "CPR", "MPR", "Schouten", "Crude")


@pytest.mark.parametrize("cfg, log_binomial_fails", [
    (ToyConfig(n=1000, seed=5), False),
    # the error must come back with its type and message
    (ToyConfig(baseline_prevalence=0.40, pr_at_z0=2.2, beta_z=1.0, n=1000, seed=3), True),
], ids=["all-fit", "log-binomial-fails"])
def test_block_fits_same_bits_for_any_worker_count(workers, monkeypatch, cfg,
                                                   log_binomial_fails):
    ds = prevratio.simulate_toy(cfg)
    monkeypatch.setattr(methods, "_FORK_SIZE", 0)  # so that this small design forks too
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    runs = []
    for k in (1, 2, 3):
        workers(k)
        runs.append(dataset_fits(ds, ALL_METHODS))
    assert len(forks) == 0 + 1 + 2
    kinds = ["poisson-log", "binomial-log", "binomial-logit", "Schouten"]
    for run in runs:
        assert list(run) == kinds
        assert all(len(fits.errors) == 1 for fits in run.values())
    for kind in kinds:
        first = runs[0][kind]
        for run in runs[1:]:
            other = run[kind]
            # a failed fit's rows are NaN in every run
            for attr in ("beta", "vcov", "fitted", "iterations", "deviance"):
                assert np.array_equal(getattr(other, attr), getattr(first, attr), equal_nan=True)
            assert other.deviance_paths == first.deviance_paths
            assert [(type(e), str(e)) for e in other.errors] == [
                (type(e), str(e)) for e in first.errors]
    assert isinstance(runs[0]["binomial-log"].errors[0], NonConvergenceError) == log_binomial_fails
    assert_no_children()


def test_block_fits_of_a_small_design_fork_no_worker(workers, monkeypatch):
    def fork():
        pytest.fail("the fits of a small design forked a child process")
    workers(2)
    monkeypatch.setattr(os, "fork", fork)
    ds = prevratio.simulate_toy(ToyConfig(n=1000, seed=5))
    assert ds.X.size < methods._FORK_SIZE
    assert all(len(fits.errors) == 1 for fits in dataset_fits(ds, ALL_METHODS).values())


def all_error_classes():
    found, todo = set(), [PrevRatioError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo += cls.__subclasses__()
    return {c for c in found if c.__module__ == errors.__name__}


ERRORS = [
    PrevRatioError("base"),
    DataError("no column named 'q'"),
    InvalidArgumentError("cannot condition on the intercept"),
    RankDeficientError(3),
    RankDeficientError(2, "design column 'z' is constant"),
    NonIdentifiableError("collinear design (column 1, 'x')"),
    NonConvergenceError("iteration limit hit", iterations=100, deviance=12.5),
    NonConvergenceError("no feasible step"),
    DegenerateDenominatorError("average unexposed prevalence is 0"),
]


def test_error_cases_cover_every_class():
    assert {type(e) for e in ERRORS} == all_error_classes()


@pytest.mark.parametrize("exc", ERRORS, ids=lambda e: f"{type(e).__name__}-{e}")
def test_error_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    for attr in ("column", "iterations", "deviance"):
        assert getattr(back, attr, "absent") == getattr(exc, attr, "absent")


class TestSameBitsForAnyWorkerCount:
    @pytest.mark.parametrize("reps, seed", [(101, 3), (101, 17), (200, 3), (200, 17)])
    @pytest.mark.parametrize("at", [None, {"z": 0.5}])
    def test_bootstrap(self, toy_ds, workers, reps, seed, at):
        fit = fit_glm(toy_ds, "binomial-logit")
        runs = []
        for k in (1, 2, 3):
            workers(k)
            runs.append(bootstrap_prs(fit, toy_ds, ("CPR", "MPR"), reps, seed=seed, at=at))
        assert runs[0] == runs[1] == runs[2]
        assert all(isinstance(v, prevratio.PrEstimate) for v in runs[0].values())
        assert_no_children()

    @pytest.mark.parametrize("reps", [100, 150])
    @pytest.mark.parametrize("baseline", [0.20, 0.45])
    def test_study(self, workers, reps, baseline):
        cfg = ToyConfig(n=300, seed=1, baseline_prevalence=baseline)
        runs = []
        for k in (1, 2, 3):
            workers(k)
            runs.append(replication_study(cfg, reps).to_dict())
        assert runs[0] == runs[1] == runs[2]
        assert json.dumps(runs[0]) == json.dumps(runs[2])
        if baseline == 0.45:
            assert runs[0]["failure_reasons"]["LogBinomial"]["NonConvergenceError"] > 0
        assert_no_children()


def estimate_in_fresh_process(tmp_path, workers, *args):
    """``prevratio estimate`` on a toy CSV in a new interpreter with ``workers`` workers,
    its stdout a block-buffered pipe."""
    path = tmp_path / "toy.csv"
    prevratio.write_csv(prevratio.simulate_toy(ToyConfig(n=400, seed=5)), path)
    code = ("import sys; from prevratio import parallel; "
            f"parallel._worker_count = lambda: {workers}; "
            "from prevratio.cli import main; sys.exit(main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(prevratio.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, "estimate", "--input", str(path), "--outcome", "y",
         "--exposure", "x", "--covariates", "z", "--format", "json", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    return out.stdout


def test_boot_stdout_is_one_json_payload(tmp_path):
    stdout = estimate_in_fresh_process(tmp_path, 3, "--methods", "por,cpr,mpr", "--boot", "100")
    payload = json.loads(stdout)  # raises on a second payload
    assert [r["status"] for r in payload["rows"]] == ["ok"] * 3


def test_estimate_stdout_same_for_any_worker_count(tmp_path):
    args = ("--methods", "robustpoisson,logbinomial,por,cpr,mpr,schouten,crude")
    one, three = (estimate_in_fresh_process(tmp_path, k, *args) for k in (1, 3))
    assert three == one
    assert [r["status"] for r in json.loads(one)["rows"]] == ["ok"] * 7
    assert_no_children()
