"""Command-line interface: estimate, simulate, and table subcommands.

``estimate`` reads a CSV, runs the requested prevalence-ratio methods,
and prints one row per method. A method that fails (log-binomial
non-convergence, say) renders a status row instead of aborting; the exit
code is 0 when at least one method produced an estimate. ``simulate``
runs the replication study on the built-in toy process. ``table`` pools
a stratified 2x2 CSV into crude and Mantel-Haenszel ratios.

Text output rounds to 3 decimals; json carries full precision and
re-renders to the identical text table. All output is deterministic
given identical flags and seed.

The command sets three fixed process policies, with no option for any:
OpenBLAS loads with one thread (set on import, before numpy loads),
malloc keeps freed memory for reuse (:func:`_keep_freed_memory`, when
``main`` starts), and the garbage collector leaves the objects alive
when ``main`` starts, the import-time heap, out of every collection
(``gc.freeze``), the one at exit included. Forked workers inherit all three.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import sys
from typing import Any, Callable, Mapping

# OpenBLAS reads this once, as numpy loads it below: every product in linalg
# runs below OpenBLAS's threading size, and all parallel work runs in forked
# workers, so a helper thread would only spin beside them
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .classical import StratifiedTable, crude_pr, mantel_haenszel_pr
from .data import ModelSpec, load_csv
from .errors import PrevRatioError
from .glm import separation_check
from .methods import ALIASES, METHODS, dataset_fits, estimate
from .ratios import BOOTSTRAP_ESTIMATORS, PrEstimate, bootstrap_prs
from .simulate import ToyConfig, replication_study

DEFAULT_ESTIMATE_METHODS = ("RobustPoisson", "LogBinomial", "POR",
                            "CPR", "MPR", "Schouten")

_FORMATS = ("text", "json", "tsv")

# glibc's mallopt parameters, and the largest thresholds its own dynamic
# rule reaches on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX and twice that)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _parse_methods(raw: str) -> tuple[str, ...]:
    names = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        canon = ALIASES.get(tok.lower().replace("_", "-"))
        if canon is None:
            raise ValueError(
                f"unknown method {tok!r}; choose from {', '.join(sorted(METHODS))}"
            )
        names.append(canon)
    if not names:
        raise ValueError("no methods given")
    return tuple(dict.fromkeys(names))


def _parse_at(raw: str) -> dict[str, float]:
    values = {}
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, sep, val = tok.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"--at expects name=value pairs, got {tok!r}")
        if name in values:
            raise ValueError(f"--at names column {name!r} twice")
        try:
            values[name] = float(val)
        except ValueError:
            raise ValueError(f"--at value for {name!r} is not a number: {val!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prevratio",
        description="Adjusted prevalence ratios for cross-sectional binary outcomes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="estimate prevalence ratios from a CSV")
    est.add_argument("--input", required=True, help="CSV file with one row per subject")
    est.add_argument("--outcome", required=True, help="0/1 outcome column")
    est.add_argument("--exposure", required=True, help="exposure column (contrast is 1 vs 0)")
    est.add_argument("--covariates", default="",
                     help="comma-separated adjustment columns")
    est.add_argument("--methods", default=",".join(DEFAULT_ESTIMATE_METHODS),
                     help="comma-separated methods (default: the six model comparisons)")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--boot", type=int, default=0,
                     help="bootstrap replicates for CPR/MPR intervals (0 = delta method)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--format", choices=_FORMATS, default="text")
    est.add_argument("--at", default="",
                     help="conditioning values for CPR as name=value[,name=value]")
    est.set_defaults(run=cmd_estimate)

    sim = sub.add_parser("simulate", help="replication study on the toy process")
    sim.add_argument("--reps", type=int, default=500, help="replicates (at least 100)")
    sim.add_argument("--n", type=int, default=1000, help="subjects per replicate")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--level", type=float, default=0.95)
    sim.add_argument("--methods", default="",
                     help="comma-separated methods (default: study set)")
    sim.add_argument("--format", choices=("text", "json"), default="text")
    sim.add_argument("--out", default=None, help="also write the JSON report here")
    sim.set_defaults(run=cmd_simulate)

    tab = sub.add_parser("table", help="crude and Mantel-Haenszel ratios from 2x2 strata")
    tab.add_argument("--input", required=True,
                     help="CSV with columns stratum,a,b,c,d")
    tab.add_argument("--level", type=float, default=0.95)
    tab.add_argument("--format", choices=_FORMATS, default="text")
    tab.set_defaults(run=cmd_table)

    return parser


def _check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Parse the comma-separated flags of ``args`` in place and check the numbers.

    A bad value, or an ``--at`` or ``--boot`` that no requested method
    reads, ends the run as a usage error, through ``parser.error``.
    ``simulate`` without ``--methods`` gets None: the study's default set.
    """
    try:
        if args.subcommand == "estimate":
            args.covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
            args.methods = _parse_methods(args.methods)
            args.at = _parse_at(args.at)
            if args.at and "CPR" not in args.methods:
                raise ValueError("--at sets CPR's conditioning values; add cpr to --methods")
        elif args.subcommand == "simulate":
            args.methods = _parse_methods(args.methods) if args.methods else None
        if not 0.5 < args.level < 1.0:
            raise ValueError(f"level must be in (0.5, 1), got {args.level}")
        boot = getattr(args, "boot", 0)
        if boot != 0 and boot < 100:
            raise ValueError(
                f"--boot needs at least 100 replicates (or 0 to disable), got {boot}"
            )
        if boot and not set(BOOTSTRAP_ESTIMATORS) & set(args.methods):
            raise ValueError("--boot resamples CPR and MPR; add cpr or mpr to --methods")
    except ValueError as err:
        parser.error(str(err))


def _notes_for(est) -> str:
    md = est.metadata
    bits = []
    if md.get("interval_type") == "percentile bootstrap":
        bits.append(f"percentile bootstrap, {md['replicates']} reps, "
                    f"seed {md['seed']}")
    if md.get("conditioning"):
        pairs = ", ".join(f"{k}={v:.4g}" for k, v in md["conditioning"].items())
        bits.append(f"at {pairs}")
    if METHODS[est.method].note:
        bits.append(METHODS[est.method].note)
    if "strata" in md:
        bits.append(f"{md['strata']} strata")
    return "; ".join(bits)


def _row(method: str, compute: Callable[[], PrEstimate | Exception]) -> dict[str, Any]:
    """The output row of ``method``: the estimate ``compute`` returns, or why it failed.

    ``compute`` may return an error instead of raising it; a PrevRatioError
    either way makes a failed row, and any other error propagates.
    """
    try:
        est = compute()
        if isinstance(est, Exception):
            raise est
    except PrevRatioError as err:
        return {"method": method, "status": "failed", "pr": None, "lower": None,
                "upper": None, "se": None, "se_scale": "", "notes": str(err)}
    iv = est.interval
    return {
        "method": method,
        "status": "ok",
        "pr": iv.point,
        "lower": iv.lower,
        "upper": iv.upper,
        "se": iv.se,
        "se_scale": est.metadata.get("se_scale", ""),
        "notes": _notes_for(est),
    }


def _render_text(payload: Mapping[str, Any]) -> str:
    head = payload["header"]
    lines = [head["title"],
             "  " + "   ".join(f"{k}: {v}" for k, v in head["context"].items()),
             ""]
    lines.append("  {:<15} {:<8} {:>8} {:>8} {:>8} {:>8}  {:<6} {}".format(
        "method", "status", "PR", "lower", "upper", "SE", "scale", "notes"))

    def fmt(v):
        return f"{v:8.3f}" if v is not None else "       -"

    for row in payload["rows"]:
        lines.append("  {:<15} {:<8} {} {} {} {}  {:<6} {}".format(
            row["method"], row["status"], fmt(row["pr"]), fmt(row["lower"]),
            fmt(row["upper"]), fmt(row["se"]), row["se_scale"], row["notes"]
        ).rstrip())
    return "\n".join(lines) + "\n"


def _render_tsv(payload: Mapping[str, Any]) -> str:
    cols = ("method", "status", "pr", "lower", "upper", "se", "se_scale", "notes")
    lines = ["\t".join(cols)]
    for row in payload["rows"]:
        cells = []
        for c in cols:
            v = row[c]
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def render_payload(payload: Mapping[str, Any], out_format: str = "text") -> str:
    """Render a parsed json payload back to the text or tsv table."""
    if out_format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if out_format == "tsv":
        return _render_tsv(payload)
    return _render_text(payload)


def _write_rows(title: str, context: Mapping[str, Any], rows: list[dict[str, Any]],
                out_format: str) -> int:
    """Print the rows under their header; exit code 0 when any row is ok, else 1."""
    payload = {"header": {"title": title, "context": context}, "rows": rows}
    sys.stdout.write(render_payload(payload, out_format))
    return 0 if any(r["status"] == "ok" for r in rows) else 1


def cmd_estimate(args: argparse.Namespace) -> int:
    spec = ModelSpec(outcome=args.outcome, exposure=args.exposure,
                     covariates=args.covariates)
    ds = load_csv(args.input, spec)
    at = args.at or None
    fits = dataset_fits(ds, args.methods)
    logit = fits.get("binomial-logit")
    logistic = logit.one() if logit is not None and logit.errors[0] is None else None
    # with --boot, CPR and MPR come from the bootstrap of the logistic fit;
    # when that fit failed, their rows report its error through estimate
    boot = [m for m in args.methods if args.boot and m in BOOTSTRAP_ESTIMATORS]
    results = bootstrap_prs(logistic, ds, boot, args.boot, seed=args.seed, level=args.level,
                            at=at) if boot and logistic is not None else {}
    rows = [_row(m, lambda: results.get(m) or estimate(m, fits, ds, args.level, at))
            for m in args.methods]
    if logistic is not None:
        for warning in separation_check(logistic):
            sys.stderr.write(f"warning: {warning}\n")
    context = {"exposure": ds.exposure_name, "level": f"{args.level:g}", "n": ds.n,
               "dropped": ds.n_dropped}
    return _write_rows("Prevalence ratio estimates", context, rows, args.format)


def cmd_simulate(args: argparse.Namespace) -> int:
    toy = ToyConfig(n=args.n, seed=args.seed)
    report = replication_study(toy, args.reps, methods=args.methods, level=args.level)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text())
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    table = StratifiedTable.from_csv(args.input)
    rows = [_row("Crude", lambda: crude_pr(table.pooled(), args.level)),
            _row("MantelHaenszel", lambda: mantel_haenszel_pr(table, args.level))]
    context = {"strata": table.k, "level": f"{args.level:g}"}
    return _write_rows("Stratified 2x2 prevalence ratios", context, rows, args.format)


def _keep_freed_memory() -> None:
    """Have malloc keep freed heap memory for reuse, where it is glibc's.

    glibc's defaults hand large freed blocks back to the OS, to be faulted
    in again on the next allocation, and the study allocates and frees
    about 0.75 MB of stacked IRLS temporaries a step. Setting either
    threshold turns glibc's dynamic rule off, so both are set, to the
    values that rule can reach. Forked workers inherit them. A libc
    without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    # the modules' objects live until exit, so a collection that walks them
    # finds nothing to free
    gc.freeze()
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    try:
        return args.run(args)
    except (PrevRatioError, OSError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
