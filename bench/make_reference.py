"""Store the reference payloads the correctness gate compares against.

Usage (from the root of a checkout)::

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload (all by default) once at the default seed and full
size, requires the payload to pass every other check of the gate, and
writes ``bench/reference/<workload>.json``. Run it only on a commit whose
numbers are known to be right: later commits are held to these numbers.
"""

from __future__ import annotations

import json
import sys

import gate
import run


def main(workloads) -> int:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads or run.WORKLOADS:
        workdir = run.WORK_ROOT / f"{workload}-{run.DEFAULT_SEED}"
        workdir.mkdir(parents=True, exist_ok=True)
        prep = run.prepare(workload, run.DEFAULT_SEED, workdir, use_reference=False)
        out = workdir / "reference.out"
        child = run.run_child(["-m", "prevratio.cli", *prep.argv], out)
        verdict = run.judge(prep, child["rc"], out)
        if not verdict.ok:
            sys.stderr.write(f"{workload}: not stored, gate fails: {verdict.problems}\n")
            return 1
        payload = json.loads(out.read_text())
        if workload == "study":
            ref = {"payload": gate.study_view(payload)}
        else:
            ref = {"input_sha256": prep.inputs[0].sha256(), "payload": payload}
        path = run.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{workload}: wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
