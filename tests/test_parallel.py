"""Resampling loops in forked workers: same bits for any worker count, clean failure."""

import json
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

import prevratio
from prevratio import ToyConfig, bootstrap_prs, errors, replication_study
from prevratio.errors import (DataError, DegenerateDenominatorError, InvalidArgumentError,
                              NonConvergenceError, NonIdentifiableError, PrevRatioError,
                              RankDeficientError)
from prevratio.parallel import WorkerTraceback, _fork_map


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tagged(part):
    return os.getpid(), list(part)


class TestForkMap:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_contiguous_parts_in_order(self, workers, k, n):
        workers(k)
        out = _fork_map(tagged, range(n))
        parts = [items for _, items in out]
        assert [i for p in parts for i in p] == list(range(n))
        assert len(parts) == min(k, n) and all(parts)
        pids = [pid for pid, _ in out]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == len(pids)  # one process per part
        assert_no_children()

    def test_child_error_is_raised_here(self, workers):
        workers(3)
        before = open_fds()

        def fn(part):
            if 0 not in part:
                raise KeyError(f"part from {part[0]}")
            return list(part)
        with pytest.raises(KeyError, match="part from") as info:
            _fork_map(fn, range(9))
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "in fn" in str(cause) and "KeyError" in str(cause)
        assert_no_children()
        assert open_fds() == before

    def test_typed_error_keeps_its_attributes(self, workers):
        workers(2)

        def fn(part):
            if 0 not in part:
                raise RankDeficientError(3)
            return part
        with pytest.raises(RankDeficientError) as info:
            _fork_map(fn, range(4))
        assert info.value.column == 3
        assert str(info.value) == "matrix is rank deficient at column 3"
        assert_no_children()

    def test_own_part_failing_kills_the_children(self, workers):
        workers(3)
        before = open_fds()

        def fn(part):
            if 0 in part:
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

        def fn(part):
            if 0 not in part:
                os._exit(3)
            return part
        with pytest.raises(ChildProcessError, match="exit code 3"):
            _fork_map(fn, range(2))
        assert_no_children()
        assert open_fds() == before

    def test_serial_on_one_cpu_or_off_the_main_thread(self, workers):
        workers(1)
        assert _fork_map(tagged, range(5)) == [(os.getpid(), [0, 1, 2, 3, 4])]
        workers(4)
        out = []
        thread = threading.Thread(target=lambda: out.append(_fork_map(tagged, range(5))))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert out == [[(os.getpid(), [0, 1, 2, 3, 4])]]

    def test_real_cpu_count(self):
        # the default count is the affinity mask, capped by the items
        out = _fork_map(tagged, range(50))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert len(out) == min(cpus, 50)
        assert [i for _, p in out for i in p] == list(range(50))


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
        runs = []
        for k in (1, 2, 3):
            workers(k)
            runs.append(bootstrap_prs(toy_ds, ("CPR", "MPR"), reps, seed=seed, at=at))
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


def test_boot_stdout_is_one_json_payload(tmp_path):
    ds = prevratio.simulate_toy(ToyConfig(n=400, seed=5))
    path = tmp_path / "toy.csv"
    prevratio.write_csv(ds, path)
    # three workers in a fresh process, with stdout a block-buffered pipe
    code = ("import sys; from prevratio import parallel; "
            "parallel._worker_count = lambda: 3; "
            "from prevratio.cli import main; sys.exit(main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(prevratio.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, "estimate", "--input", str(path), "--outcome", "y",
         "--exposure", "x", "--covariates", "z", "--methods", "por,cpr,mpr",
         "--boot", "100", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)  # raises on a second payload
    assert [r["status"] for r in payload["rows"]] == ["ok"] * 3
    assert out.stderr == ""
