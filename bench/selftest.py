"""Self-test of the benchmark at a tiny size (about a minute).

Usage (from the root of a checkout)::

    python3 bench/selftest.py

Checks that

1. every workload, untraced and traced, passes the gate at a tiny size and
   prints exactly the metric names that ``BENCHMARK.json`` lists;
2. corrupted payloads trip the correctness gate and count every one of
   their operations as failed, while a ~1e-10 change passes the reference;
3. two generations with the same seed are byte-identical, and another
   seed gives other bytes;
4. in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import gate
import inputs
import run

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py runs")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.measure(workload, 7, 1, bool(trace), size=run.TINY, log=lambda _: None)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == listed[trace],
                   f"{workload} trace={trace}: metric names and units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: passes the gate at a tiny size")


def _payload(prep, workdir):
    out = workdir / "selftest.json"
    child = run.run_child(["-m", "prevratio.cli", *prep.argv], out)
    return child["rc"], json.loads(out.read_text())


def _tripped(verdict: gate.Verdict) -> bool:
    return bool(verdict.problems) and verdict.failed == verdict.attempted > 0


def check_gate_trips() -> None:
    workdir = run.WORK_ROOT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    prep = run.prepare("estimate-large", 7, workdir, run.TINY)
    rc, good = _payload(prep, workdir)
    expect(rc == 0 and prep.check(good).ok, "an untouched estimate payload passes")

    bad = copy.deepcopy(good)
    row = next(r for r in bad["rows"] if r["method"] == "MPR")
    for key in ("pr", "lower", "upper"):
        row[key] *= 1.5
    expect(_tripped(prep.check(bad)), "MPR moved 50 % off its target trips the gate")
    bad = copy.deepcopy(good)
    bad["rows"][1]["status"] = "failed"
    expect(_tripped(prep.check(bad)), "a failed method row trips the gate")
    bad = copy.deepcopy(good)
    bad["rows"][0]["lower"] = bad["rows"][0]["pr"] * 1.01
    expect(_tripped(prep.check(bad)), "an interval that misses its point trips the gate")
    bad = copy.deepcopy(good)
    bad["header"]["context"]["dropped"] = 1
    expect(_tripped(prep.check(bad)), "a wrong dropped-row count trips the gate")
    expect(_tripped(prep.check(None)), "an unreadable payload trips the gate")
    expect(_tripped(run.judge(prep, 1, workdir / "selftest.json")), "a crashed run trips the gate")

    inp = prep.inputs[0]

    def against(reference, sha="s"):
        return gate.check_estimate(good, run.LARGE_METHODS, inp.n_kept, inp.n_dropped,
                                   inp.targets, {"input_sha256": sha, "payload": reference}, "s")

    nudged = copy.deepcopy(good)
    for r in nudged["rows"]:
        r["pr"] *= 1 + 1e-10
    expect(against(nudged).ok, "a 1e-10 relative change passes the reference check")
    moved = copy.deepcopy(good)
    moved["rows"][0]["se"] *= 1 + 1e-4
    expect(_tripped(against(moved)), "a 1e-4 relative change trips the reference check")
    expect(_tripped(against(good, sha="other")), "another input trips the reference check")

    prep = run.prepare("study", 7, workdir, run.TINY)
    rc, good = _payload(prep, workdir)
    expect(rc == 0 and prep.check(good).ok, "an untouched study payload passes")
    bad = copy.deepcopy(good)
    bad["methods"][1]["coverage"] = 0.5
    expect(_tripped(prep.check(bad)), "MPR coverage 0.5 trips the gate")
    bad = copy.deepcopy(good)
    bad["methods"][0]["mean_estimate"] *= 1.2
    expect(_tripped(prep.check(bad)), "a CPR mean 20 % off its target trips the gate")
    bad = copy.deepcopy(good)
    bad["truth"]["true_mpr"] *= 1.001
    expect(_tripped(prep.check(bad)), "a wrong analytic marginal PR trips the gate")


def check_determinism() -> None:
    dirs = [run.WORK_ROOT / f"selftest-gen{i}" for i in range(3)]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    for gen, rows in ((inputs.mixed_csv, 2000), (inputs.strata_csv, 5000)):
        a = gen(dirs[0] / "in.csv", rows, 11).path.read_bytes()
        b = gen(dirs[1] / "in.csv", rows, 11).path.read_bytes()
        c = gen(dirs[2] / "in.csv", rows, 12).path.read_bytes()
        expect(a == b, f"{gen.__name__}: the same seed gives byte-identical files")
        expect(a != c, f"{gen.__name__}: another seed gives another file")


def check_bare_directory() -> None:
    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "study", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    check_determinism()
    check_gate_trips()
    check_bare_directory()
    check_metric_names()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
