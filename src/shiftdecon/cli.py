"""Command-line front end.

Every subcommand is a thin shell over the library: parse flags into an
:class:`ExperimentConfig`, call the matching library function, write CSVs.
Failures print a single machine-readable JSON line to stderr and exit 2.

    shiftdecon simulate --out curves.csv
    shiftdecon select --criterion u_tilde
    shiftdecon estimate --out coeffs.csv --grid-out fit.csv
    shiftdecon risk --out risk.csv
    shiftdecon replication-study --out study_out/
    shiftdecon rate-study --n-grid 200,400,800,1600 --out rates.csv
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .config import (CONFIG_FIELDS, ExperimentConfig, build_density, build_template,
                     load_config, save_config)
from .csvio import (write_csv, write_curves_csv, write_rate_study_csv,
                    write_risk_report_csv, write_selection_csv, write_template_csv)
from .errors import ConfigError, ShiftDeconError
from .risk import rate_study, risk_report
from .selection import CRITERION_ESTIMATORS, _cutoff_cap, estimate, select_cutoff
from .simulate import render_curves, render_grid, simulate
from .spectral import _synthesize_rows
from .study import run_replication_study

__all__ = ["main", "build_parser"]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="INI config file; flags override it")
    for field in CONFIG_FIELDS:
        parser.add_argument(field.flag, dest=field.name, help=field.help)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file (or the defaults), then each given flag, parsed by
    its field's parser."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {field.name: field.parse(raw, field.flag) for field in CONFIG_FIELDS
                 if (raw := getattr(args, field.name)) is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    template = build_template(cfg)
    density = build_density(cfg)
    obs = simulate(template, density, cfg.n, cfg.epsilon, cfg.seed)
    curves = render_curves(obs, args.grid_size)
    out = write_curves_csv(args.out, render_grid(args.grid_size), curves)
    print(f"wrote {obs.n} rendered curves ({args.grid_size} points) to {out}")
    return 0


def cmd_select(args) -> int:
    cfg = _resolve_config(args)
    template = build_template(cfg)
    density = build_density(cfg)
    obs = simulate(template, density, cfg.n, cfg.epsilon, cfg.seed)
    sel = select_cutoff(obs, density, cfg.criterion, m0=cfg.m0_override,
                        penalty_variant=cfg.penalty_variant)
    if args.out:
        write_selection_csv(args.out, sel)
        print(f"wrote criterion trace to {args.out}")
    print(f"criterion={sel.criterion_kind} chosen_n={sel.chosen_n} m0={sel.m0}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    template = build_template(cfg)
    density = build_density(cfg)
    obs = simulate(template, density, cfg.n, cfg.epsilon, cfg.seed)
    if args.cutoff is not None:
        cutoff, kind = args.cutoff, "fixed_n"
    else:
        sel = select_cutoff(obs, density, cfg.criterion, m0=cfg.m0_override,
                            penalty_variant=cfg.penalty_variant)
        cutoff, kind = sel.chosen_n, CRITERION_ESTIMATORS[cfg.criterion]
    est = estimate(obs, density, cutoff, kind)
    if args.out:
        write_template_csv(args.out, est)
        print(f"wrote estimated coefficients to {args.out}")
    if args.grid_out:
        grid = render_grid(args.grid_size)
        fit, truth = _synthesize_rows(np.stack([est.coeffs, template.coeffs]),
                                      template.k_max, args.grid_size)
        write_csv(args.grid_out, ["x", "estimate", "truth"],
                  ((float(x), float(e), float(t)) for x, e, t in zip(grid, fit, truth)))
        print(f"wrote rendered estimate to {args.grid_out}")
    print(f"cutoff={est.cutoff} kind={est.kind}")
    return 0


def cmd_risk(args) -> int:
    cfg = _resolve_config(args)
    template = build_template(cfg)
    density = build_density(cfg)
    n_max = (args.n_max if args.n_max is not None
             else _cutoff_cap(density, cfg.n, template.k_max, cfg.m0_override))
    report = risk_report(template, density, cfg.n, cfg.epsilon, n_max)
    if args.out:
        write_risk_report_csv(args.out, report)
        print(f"wrote risk curves to {args.out}")
    print(f"oracle_r={report.oracle_r} oracle_r_bar={report.oracle_r_bar} "
          f"oracle_r_tilde={report.oracle_r_tilde}")
    return 0


def cmd_replication_study(args) -> int:
    cfg = _resolve_config(args)
    study = run_replication_study(cfg, args.out, grid_size=args.grid_size,
                                  workers=args.workers)
    print(f"study bundle written to {study.out_dir}")
    print(f"m0_used={study.m0_used} (formula value {study.m0_formula}"
          f"{', saturated' if study.m0_saturated else ''})")
    print(f"median n_star={int(np.median(study.n_star))} "
          f"median n_tilde={int(np.median(study.n_tilde))}")
    print(f"mean loss theta_star={study.mean_loss_star!r} "
          f"theta_tilde={study.mean_loss_tilde!r}")
    return 0


# The configuration fields rate-study reads.  It builds its own template and
# density from --smoothness, --radius and --beta and selects under the
# formula cap, so every other field must keep its default (m0_override may
# also be none: the formula cap is what rate-study uses).
_RATE_STUDY_FIELDS = ("epsilon", "replications", "seed", "k_max")


def cmd_rate_study(args) -> int:
    cfg = _resolve_config(args)
    default = ExperimentConfig()
    ignored = [field for field in CONFIG_FIELDS
               if field.name not in _RATE_STUDY_FIELDS
               and getattr(cfg, field.name) != getattr(default, field.name)
               and not (field.name == "m0_override" and cfg.m0_override is None)]
    if ignored:
        raise ConfigError(
            f"rate-study reads only {', '.join(_RATE_STUDY_FIELDS)} of the "
            f"configuration; it would ignore " + ", ".join(
                f"{field.flag} ({field.key} = {getattr(cfg, field.name)!r})"
                for field in ignored))
    try:
        n_grid = [int(part) for part in args.n_grid.split(",") if part.strip()]
    except ValueError:
        raise ShiftDeconError(f"--n-grid must be a comma list of integers, got {args.n_grid!r}")
    study = rate_study(args.smoothness, args.beta, args.radius, n_grid,
                       cfg.epsilon, cfg.replications, cfg.seed,
                       k_max=cfg.k_max, workers=args.workers)
    if args.out:
        write_rate_study_csv(args.out, study)
        print(f"wrote rate table to {args.out}")
    print(f"fitted_slope={study.fitted_slope!r} "
          f"theoretical_slope={study.theoretical_slope!r}")
    gap = study.fitted_slope - study.theoretical_slope
    z = gap / study.slope_stderr if study.slope_stderr > 0 else math.nan
    print(f"slope_stderr={study.slope_stderr!r} gap_to_theory={gap:+.3g} ({z:+.2f} stderr)")
    return 0


def cmd_write_config(args) -> int:
    cfg = _resolve_config(args)
    save_config(cfg, args.out)
    print(f"wrote config to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftdecon",
        description="Template estimation for randomly shifted noisy curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    workers_help = ("an integer >= 1: rate-study runs its grid points in up to this many "
                    "forked processes, capped at the usable CPUs (serially off Linux); "
                    "replication-study runs serially; never changes a result")

    p = sub.add_parser("simulate", help="simulate one dataset and render its curves")
    _add_config_flags(p)
    p.add_argument("--grid-size", type=int, default=256, dest="grid_size")
    p.add_argument("--out", default="curves.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select", help="run one cutoff selection")
    _add_config_flags(p)
    p.add_argument("--out", default=None, help="write the criterion trace CSV here")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("estimate", help="estimate the template from one dataset")
    _add_config_flags(p)
    p.add_argument("--cutoff", type=int, default=None,
                   help="fixed cutoff (default: select adaptively per --criterion)")
    p.add_argument("--grid-size", type=int, default=256, dest="grid_size")
    p.add_argument("--out", default=None, help="write estimated coefficients here")
    p.add_argument("--grid-out", dest="grid_out", default=None,
                   help="write (x, estimate, truth) curve CSV here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("risk", help="exact risk curves for the configured problem")
    _add_config_flags(p)
    p.add_argument("--n-max", type=int, default=None, dest="n_max",
                   help="largest cutoff to tabulate (default: the m0 cap)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("replication-study", help="full replication study as a CSV bundle")
    _add_config_flags(p)
    p.add_argument("--grid-size", type=int, default=256, dest="grid_size")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.add_argument("--out", default="study_out")
    p.set_defaults(func=cmd_replication_study)

    p = sub.add_parser("rate-study", help="risk decay against sample size")
    _add_config_flags(p)
    p.add_argument("--smoothness", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--radius", type=float, default=5.0)
    p.add_argument("--n-grid", dest="n_grid", default="200,400,800,1600,3200,6400")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rate_study)

    p = sub.add_parser("write-config", help="write the resolved configuration to a file")
    _add_config_flags(p)
    p.add_argument("--out", default="experiment.ini")
    p.set_defaults(func=cmd_write_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShiftDeconError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
