"""The prevratio benchmark: CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from ``--seed`` before timing starts, then
for ``--seconds`` seconds alternates a fresh ``python -m prevratio.cli``
process on the workload with a fresh interpreter that only imports
``prevratio.cli`` (the set-up probe). Every CLI payload goes through the
correctness gate in ``gate.py``. Metrics are medians over the run's
invocations; the end-to-end ones never come from a traced process.

With ``--trace 1`` the run also calls ``prevratio.cli.main`` once in
process under ``tracer.py`` and reports the per-layer metrics and the
tracing overhead instead of the end-to-end metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
provenance and each invocation. Inputs, outputs and spans go to
``.bench_work/<workload>-<seed>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gate
import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_SEED = 0
# at least this many invocations per run, however long they take
MIN_INVOCATIONS = 3

WORKLOADS = ("estimate-large", "bootstrap", "study", "strata")
LARGE_METHODS = ("RobustPoisson", "LogBinomial", "POR", "CPR", "MPR", "Schouten", "Crude")
BOOT_METHODS = ("CPR", "MPR")
STRATA_METHODS = ("MantelHaenszel", "Crude", "CPR", "MPR")
STUDY_METHODS = ("CPR", "MPR", "POR", "LogBinomial", "RobustPoisson", "Schouten")
_FLAG = {"RobustPoisson": "robustpoisson", "LogBinomial": "logbinomial", "POR": "por",
         "CPR": "cpr", "MPR": "mpr", "Schouten": "schouten", "Crude": "crude",
         "MantelHaenszel": "mh"}


@dataclass(frozen=True)
class Size:
    large_rows: int
    boot_rows: int
    boot_reps: int
    study_reps: int
    study_n: int
    strata_rows: int


FULL = Size(large_rows=300_000, boot_rows=10_000, boot_reps=200,
            study_reps=500, study_n=1000, strata_rows=300_000)
TINY = Size(large_rows=3_000, boot_rows=1_000, boot_reps=100,
            study_reps=100, study_n=1000, strata_rows=5_000)


@dataclass
class Prepared:
    """A workload made concrete for one seed: CLI arguments plus its gate."""

    argv: list[str]
    items: int
    check: Callable[[object], gate.Verdict]
    inputs: list[inputs.GeneratedInput] = field(default_factory=list)
    reference: dict | None = None


def study_truth() -> tuple[float, float]:
    """Marginal PR and POR of the CLI's default toy process, computed here.

    The toy process is logistic in exposure x and Z ~ N(0, 1) with
    unexposed prevalence 0.2 and PR 2 at z = 0, and slope 0.2 on z. The
    marginal PR integrates over Z on a fine grid, independently of the
    program's quadrature.
    """
    def logit(p):
        return math.log(p / (1.0 - p))

    b0, b1, b2 = logit(0.2), logit(0.4) - logit(0.2), 0.2
    z = np.linspace(-12.0, 12.0, 48_001)
    dens = np.exp(-0.5 * z * z)
    mpr = float((dens / (1 + np.exp(-(b0 + b1 + b2 * z)))).sum()
                / (dens / (1 + np.exp(-(b0 + b2 * z)))).sum())
    return mpr, math.exp(b1)


def prepare(workload: str, seed: int, workdir: Path, size: Size = FULL,
            use_reference: bool = True) -> Prepared:
    """Generate the workload's inputs for ``seed`` and bind its gate.

    At the default seed and full size the gate also holds the payload to
    ``reference/<workload>.json``, which must exist.
    """
    ref = None
    if use_reference and seed == DEFAULT_SEED and size == FULL:
        ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    if workload == "study":
        true_mpr, por = study_truth()
        reps = size.study_reps
        return Prepared(
            argv=["simulate", "--reps", str(reps), "--n", str(size.study_n),
                  "--seed", str(seed), "--format", "json"],
            items=reps,
            check=lambda p: gate.check_study(p, reps, STUDY_METHODS, true_mpr, por, ref),
            reference=ref)

    if workload == "strata":
        inp = inputs.strata_csv(workdir / "strata.csv", size.strata_rows, seed)
        methods, extra, items = STRATA_METHODS, [], size.strata_rows
    elif workload == "estimate-large":
        inp = inputs.mixed_csv(workdir / "large.csv", size.large_rows, seed)
        methods, extra, items = LARGE_METHODS, [], size.large_rows
    elif workload == "bootstrap":
        inp = inputs.mixed_csv(workdir / "boot.csv", size.boot_rows, seed)
        methods = BOOT_METHODS
        extra = ["--boot", str(size.boot_reps), "--seed", str(seed)]
        items = len(methods) * size.boot_reps
    else:
        raise ValueError(f"unknown workload {workload!r}")
    sha = inp.sha256() if ref is not None else ""
    return Prepared(
        argv=["estimate", "--input", str(inp.path), "--outcome", "y", "--exposure", "x",
              "--covariates", ",".join(inp.covariates),
              "--methods", ",".join(_FLAG[m] for m in methods),
              "--format", "json", *extra],
        items=items,
        check=lambda p: gate.check_estimate(p, methods, inp.n_kept, inp.n_dropped,
                                            inp.targets, ref, sha),
        inputs=[inp],
        reference=ref)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], stdout_path: Path) -> dict:
    """Run a fresh interpreter to completion; wall, CPU and peak RSS from its rusage."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def setup_probe(workdir: Path) -> dict:
    return run_child(["-c", "import prevratio.cli"], workdir / "setup.out")


def _read_payload(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def judge(prep: Prepared, rc: int, out_path: Path) -> gate.Verdict:
    payload = _read_payload(out_path) if rc == 0 else None
    verdict = prep.check(payload)
    if rc != 0:
        verdict.problems.insert(0, f"exit code {rc}")
        verdict.failed = verdict.attempted
    return verdict


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, size: Size, prep: Prepared) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg_version(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "prevratio").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": pkg_version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "size": asdict(size),
        "inputs": [{"file": inp.path.name, "rows": inp.n_rows, "kept": inp.n_kept,
                    "bytes": inp.n_bytes, "sha256": inp.sha256()} for inp in prep.inputs],
        "argv": prep.argv,
        "reference_checked": prep.reference is not None,
    }


class ProgramMissing(RuntimeError):
    """The checkout holds no importable prevratio package."""


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: Size = FULL, log=print) -> dict:
    """One benchmark run; returns the result line's object.

    Raises ProgramMissing when the checkout has no importable program.
    """
    if not (SRC / "prevratio" / "cli.py").is_file():
        raise ProgramMissing(f"no program to measure: {SRC / 'prevratio' / 'cli.py'} is missing")
    workdir = WORK_ROOT / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # warm-up: compiles bytecode and fills the page cache before timing
    if setup_probe(workdir)["rc"] != 0:
        raise ProgramMissing("`import prevratio.cli` fails: "
                             + (workdir / "setup.err").read_text()[-2000:])
    prep = prepare(workload, seed, workdir, size)
    try:
        return _measure(workload, seed, seconds, trace, size, log, workdir, prep)
    finally:
        # inputs are reproducible from the seed; only outputs and spans stay
        for inp in prep.inputs:
            inp.path.unlink(missing_ok=True)


def _measure(workload, seed, seconds, trace, size, log, workdir, prep) -> dict:
    prov = provenance(workload, seed, size, prep)
    log(json.dumps({"provenance": prov}))

    samples, setups, verdicts = [], [], []
    start = time.perf_counter()
    while True:
        out = workdir / f"run{len(samples)}.json"
        sample = run_child(["-m", "prevratio.cli", *prep.argv], out)
        verdict = judge(prep, sample["rc"], out)
        sample["items_per_s"] = prep.items / sample["wall_s"]
        samples.append(sample)
        verdicts.append(verdict)
        setups.append(setup_probe(workdir)["wall_s"])
        log(json.dumps({"invocation": len(samples), **{k: round(v, 4) for k, v in sample.items()},
                        "setup_s": round(setups[-1], 4), "failed": verdict.failed,
                        "problems": verdict.problems[:5]}))
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_INVOCATIONS and elapsed * (1 + 1 / len(samples)) > seconds:
            break

    def med(key):
        return statistics.median(s[key] for s in samples)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "items_per_s": (med("items_per_s"), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
    }
    if trace:
        spans_path = workdir / "trace.json"
        out = workdir / "traced.out"
        child = run_child([str(BENCH / "tracer.py"), str(spans_path), str(out), "--", *prep.argv],
                          workdir / "tracer.log")
        traced = _read_payload(spans_path) if child["rc"] == 0 else None
        verdict = judge(prep, traced["rc"] if traced else 1, out)
        verdicts.append(verdict)
        log(json.dumps({"traced": True, "wall_s": traced and round(traced["wall_s"], 4),
                        "failed": verdict.failed, "problems": verdict.problems[:5],
                        "spans": str(spans_path.relative_to(ROOT))}))
        layer = traced["metrics"] if traced else {name: 0.0 for name in tracer.metric_names()}
        untraced = metrics["wall_s"][0] - metrics["setup_s"][0]
        layer["trace.overhead_s"] = (traced["wall_s"] - untraced) if traced else 0.0
        metrics = {name: (layer[name], tracer.metric_unit(name)) for name in tracer.metric_names()}

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    log(json.dumps({"fail_rate": failed / attempted, "attempted": attempted, "failed": failed,
                    "invocations": len(samples)}))
    if workload == "study" and samples and verdicts[0].ok:
        report = _read_payload(workdir / "run0.json")
        log(json.dumps({"schouten_coverage_ungated": next(
            s["coverage"] for s in report["methods"] if s["method"] == "Schouten")}))
    result = {
        "correct": all(v.ok for v in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "samples": samples, "setup_s": setups}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
