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
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

from .classical import StratifiedTable, crude_pr, mantel_haenszel_pr
from .data import ModelSpec, load_csv
from .errors import PrevRatioError
from .glm import FitResult, separation_check
from .methods import ALIASES, METHODS, block_fits, estimate
from .ratios import BOOTSTRAP_ESTIMATORS, bootstrap_prs
from .simulate import ToyConfig, replication_study

DEFAULT_ESTIMATE_METHODS = ("RobustPoisson", "LogBinomial", "POR",
                            "CPR", "MPR", "Schouten")

_FORMATS = ("text", "json", "tsv")


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: subcommand plus every flag that affects output."""

    subcommand: str
    input: str | None = None
    outcome: str | None = None
    exposure: str | None = None
    covariates: tuple[str, ...] = ()
    # empty for ``simulate`` means the study's default set
    methods: tuple[str, ...] = DEFAULT_ESTIMATE_METHODS
    level: float = 0.95
    boot: int = 0
    seed: int = 0
    out_format: str = "text"
    at: Mapping[str, float] = field(default_factory=dict)
    n: int = 1000
    reps: int = 500
    out: str | None = None

    def __post_init__(self):
        if not 0.5 < self.level < 1.0:
            raise ValueError(f"level must be in (0.5, 1), got {self.level}")
        if not self.methods and self.subcommand != "simulate":
            raise ValueError("methods must be non-empty")
        if self.out_format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if self.boot != 0 and self.boot < 100:
            raise ValueError(
                f"--boot needs at least 100 replicates (or 0 to disable), "
                f"got {self.boot}"
            )


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
    return tuple(names)


def _parse_at(raw: str) -> dict[str, float]:
    values = {}
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, sep, val = tok.partition("=")
        if not sep or not name:
            raise ValueError(f"--at expects name=value pairs, got {tok!r}")
        try:
            values[name.strip()] = float(val)
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

    sim = sub.add_parser("simulate", help="replication study on the toy process")
    sim.add_argument("--reps", type=int, default=500, help="replicates (at least 100)")
    sim.add_argument("--n", type=int, default=1000, help="subjects per replicate")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--level", type=float, default=0.95)
    sim.add_argument("--methods", default="",
                     help="comma-separated methods (default: study set)")
    sim.add_argument("--format", choices=("text", "json"), default="text")
    sim.add_argument("--out", default=None, help="also write the JSON report here")

    tab = sub.add_parser("table", help="crude and Mantel-Haenszel ratios from 2x2 strata")
    tab.add_argument("--input", required=True,
                     help="CSV with columns stratum,a,b,c,d")
    tab.add_argument("--level", type=float, default=0.95)
    tab.add_argument("--format", choices=_FORMATS, default="text")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs: dict[str, Any] = {"subcommand": args.subcommand}
    if args.subcommand == "estimate":
        covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
        kwargs.update(
            input=args.input,
            outcome=args.outcome,
            exposure=args.exposure,
            covariates=covariates,
            methods=_parse_methods(args.methods),
            level=args.level,
            boot=args.boot,
            seed=args.seed,
            out_format=args.format,
            at=_parse_at(args.at),
        )
    elif args.subcommand == "simulate":
        kwargs.update(
            reps=args.reps,
            n=args.n,
            seed=args.seed,
            level=args.level,
            out_format=args.format,
            out=args.out,
            methods=_parse_methods(args.methods) if args.methods else (),
        )
    else:
        kwargs.update(input=args.input, level=args.level, out_format=args.format)
    return RunConfig(**kwargs)


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


def _row_ok(est) -> dict[str, Any]:
    iv = est.interval
    return {
        "method": est.method,
        "status": "ok",
        "pr": iv.point,
        "lower": iv.lower,
        "upper": iv.upper,
        "se": iv.se,
        "se_scale": est.metadata.get("se_scale", ""),
        "notes": _notes_for(est),
    }


def _row_failed(method: str, err: Exception) -> dict[str, Any]:
    return {
        "method": method,
        "status": "failed",
        "pr": None,
        "lower": None,
        "upper": None,
        "se": None,
        "se_scale": "",
        "notes": str(err),
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


def cmd_estimate(cfg: RunConfig) -> int:
    spec = ModelSpec(outcome=cfg.outcome, exposure=cfg.exposure,
                     covariates=cfg.covariates)
    ds = load_csv(cfg.input, spec)
    at = cfg.at or None
    # with --boot, CPR and MPR come from the bootstrap, which does its own fits
    boot = [m for m in cfg.methods if cfg.boot and m in BOOTSTRAP_ESTIMATORS]
    fits = block_fits([ds], [m for m in cfg.methods if m not in boot])
    results = bootstrap_prs(ds, boot, cfg.boot, seed=cfg.seed, level=cfg.level,
                            at=at) if boot else {}
    rows = []
    for method in cfg.methods:
        try:
            est = results.get(method) or estimate(method, fits, 0, ds, cfg.level, at)
            if isinstance(est, Exception):
                raise est
            rows.append(_row_ok(est))
        except PrevRatioError as err:
            rows.append(_row_failed(method, err))
    logistic = fits.get("binomial-logit", [None])[0]
    if isinstance(logistic, FitResult):
        for warning in separation_check(logistic):
            sys.stderr.write(f"warning: {warning}\n")
    payload = {
        "header": {
            "title": "Prevalence ratio estimates",
            "context": {
                "exposure": ds.exposure_name,
                "level": f"{cfg.level:g}",
                "n": ds.n,
                "dropped": ds.n_dropped,
            },
        },
        "rows": rows,
    }
    sys.stdout.write(render_payload(payload, cfg.out_format))
    return 0 if any(r["status"] == "ok" for r in rows) else 1


def cmd_simulate(cfg: RunConfig) -> int:
    toy = ToyConfig(n=cfg.n, seed=cfg.seed)
    report = replication_study(toy, cfg.reps, methods=cfg.methods or None,
                               level=cfg.level)
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    if cfg.out_format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text())
    return 0


def cmd_table(cfg: RunConfig) -> int:
    table = StratifiedTable.from_csv(cfg.input)
    rows = []
    try:
        rows.append(_row_ok(crude_pr(table.pooled(), cfg.level)))
    except PrevRatioError as err:
        rows.append(_row_failed("Crude", err))
    try:
        rows.append(_row_ok(mantel_haenszel_pr(table, cfg.level)))
    except PrevRatioError as err:
        rows.append(_row_failed("MantelHaenszel", err))
    payload = {
        "header": {
            "title": "Stratified 2x2 prevalence ratios",
            "context": {"strata": table.k, "level": f"{cfg.level:g}"},
        },
        "rows": rows,
    }
    sys.stdout.write(render_payload(payload, cfg.out_format))
    return 0 if any(r["status"] == "ok" for r in rows) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as err:
        parser.error(str(err))
    try:
        if cfg.subcommand == "estimate":
            return cmd_estimate(cfg)
        if cfg.subcommand == "simulate":
            return cmd_simulate(cfg)
        return cmd_table(cfg)
    except (PrevRatioError, OSError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
