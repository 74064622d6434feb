"""Command-line front end.

Subcommands:

* ``fit``: read a diagram and lifetime CSV (plus optional priors), fit the
  hierarchy (or the root's data alone with ``--system-only``), and write the
  fitted curve as CSV and optionally SVG.
* ``simulate``: draw censored lifetime datasets from the built-in demo
  configuration or a JSON one, writing the diagram, the data, and the true
  system CDF for later overlay.
* ``validate``: run the self-check suite and report.

Exit codes: 0 on success, 1 for parse, format, binding, or file-access
failures, 2 when numerical degeneracy prevents estimation.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .dataio import export_curves, load_lifetimes, load_prior_spec, save_lifetimes
from .demo import demo_config, load_sim_config
from .errors import DataFormatError, NotEstimableError, RelfuseError
from .pipeline import curve_export, fit_system, fit_system_only
from .rbd import load_system_source, validate_bindings
from .validation import format_report, run_checks

__all__ = ["cmd_fit", "cmd_simulate", "cmd_validate", "main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2


def _read_overlay(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The ``t,cdf`` columns that ``simulate`` writes, drawn under the fit."""
    try:
        with open(path, encoding="utf-8") as fh:
            if [c.strip() for c in fh.readline().split(",")] != ["t", "cdf"]:
                raise DataFormatError(f"{path}: header must be t,cdf")
            with warnings.catch_warnings():
                # An empty file is reported as an error below, not as a warning.
                warnings.simplefilter("ignore", UserWarning)
                raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if raw.shape[1] != 2 or not np.isfinite(raw).all():
        raise DataFormatError(f"{path}: need rows of two finite columns t,cdf")
    return raw[:, 0], raw[:, 1]


def cmd_fit(args: argparse.Namespace) -> int:
    spec = load_system_source(args.rbd.read_text(encoding="utf-8"))
    datasets = load_lifetimes(args.data)
    priors = load_prior_spec(args.priors) if args.priors else {}
    diags = validate_bindings(spec, [d.label for d in datasets], priors.keys())
    errors = [d for d in diags if d.severity == "error"]
    for diag in diags:
        stream = sys.stderr if diag.severity == "error" else sys.stdout
        print(f"{diag.severity}: {diag.message}", file=stream)
    if errors:
        return EXIT_INPUT
    if not (0.0 < args.level < 1.0):
        raise ValueError("--level must lie strictly inside (0, 1)")
    true_path = args.data.parent / "true_system_cdf.csv"
    overlay = _read_overlay(true_path) if args.svg and true_path.exists() else None
    fitter = fit_system_only if args.system_only else fit_system
    result = fitter(spec, datasets, priors)
    if not result.posterior.estimable.any():
        raise NotEstimableError("no grid point is estimable from the given inputs")
    curve = curve_export(result.posterior, args.level)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "system_cdf.csv"
    export_curves(curve, csv_path, format="csv")
    written = [csv_path]
    if args.svg:
        svg_path = args.out / "system_cdf.svg"
        export_curves(curve, svg_path, format="svg", overlay=overlay)
        written.append(svg_path)
    mode = "system-only" if args.system_only else "hierarchical"
    print(f"{mode} fit: {len(curve)} grid points, level {args.level:g}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = demo_config() if args.config == "demo" else load_sim_config(args.config)
    datasets = cfg.simulate(args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    rbd_path = args.out / "system.rbd"
    rbd_path.write_text(cfg.rbd_source, encoding="utf-8")
    data_path = args.out / "lifetimes.csv"
    save_lifetimes(datasets, data_path)
    t_max = max(s.time for d in datasets for s in d.samples)
    ts = np.linspace(0.0, 1.1 * t_max, 400)
    truth = np.asarray(cfg.true_system_cdf(ts), dtype=float)
    true_path = args.out / "true_system_cdf.csv"
    with open(true_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,cdf\n")
        for t, v in zip(ts, truth):
            fh.write(f"{t:.12g},{v:.12g}\n")
    n_obs = sum(len(d) for d in datasets)
    print(f"simulated {len(datasets)} datasets, {n_obs} observations (seed {args.seed})")
    for path in (rbd_path, data_path, true_path):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_checks(args.seed)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfuse",
        description="Estimate a system time-to-failure CDF by fusing censored "
        "lifetime data through a reliability block diagram.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a system CDF from a diagram and lifetime data")
    fit.add_argument("--rbd", required=True, type=Path, help="block diagram file (text or JSON)")
    fit.add_argument("--data", required=True, type=Path, help="lifetimes CSV (node,time,event)")
    fit.add_argument("--priors", type=Path, help="priors CSV (node,time,cdf,precision)")
    fit.add_argument("--level", type=float, default=0.95, help="credible level (default 0.95)")
    fit.add_argument(
        "--system-only",
        action="store_true",
        help="ignore component and subsystem data; fit the root's data alone",
    )
    fit.add_argument("--out", type=Path, default=Path("."), help="output directory")
    fit.add_argument("--svg", action="store_true", help="also write an SVG plot")

    sim = sub.add_parser("simulate", help="draw censored lifetime datasets")
    sim.add_argument(
        "--config",
        default="demo",
        help="'demo' for the built-in configuration or a path to a JSON one",
    )
    sim.add_argument("--seed", type=int, default=0, help="random seed")
    sim.add_argument("--out", type=Path, default=Path("."), help="output directory")

    val = sub.add_parser("validate", help="run the self-check suite")
    val.add_argument("--seed", type=int, default=0, help="random seed for the Monte Carlo checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"fit": cmd_fit, "simulate": cmd_simulate, "validate": cmd_validate}[args.command]
    try:
        return handler(args)
    except NotEstimableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (RelfuseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
