"""Command-line front end.

Every subcommand is a thin shell over the library: it calls the matching
library function on the :class:`ExperimentConfig` and returns its
``(path, write, message)`` files and its result lines; :func:`main` writes
the files all or none, then prints each message and the lines.  All share
one set of configuration flags, which :func:`main` resolves once, before the
subcommand runs; ``simulate``, ``select`` and ``estimate`` act on the one
dataset drawn at the configured seed.  Failures print nothing to stdout, a
single machine-readable JSON line to stderr, and exit 2.

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
from pathlib import Path

import numpy as np

from . import __version__
from .config import (CONFIG_FIELDS, ExperimentConfig, _float, _int, build_density,
                     build_template, load_config, save_config)
from .csvio import (_write_together, write_csv, write_curves_csv, write_rate_study_csv,
                    write_risk_report_csv, write_selection_csv, write_template_csv)
from .errors import ConfigError, ShiftDeconError
from .risk import rate_study, risk_report
from .selection import CRITERION_ESTIMATORS, _cutoff_cap, estimate, select_cutoff
from .simulate import render_curves, render_grid, simulate
from .spectral import _synthesize_rows
from .study import run_replication_study

__all__ = ["main", "build_parser"]


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file (or the defaults), then each given flag, parsed by
    its field's parser."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {field.name: field.parse(raw, field.flag) for field in CONFIG_FIELDS
                 if (raw := getattr(args, field.name)) is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _dataset(cfg: ExperimentConfig):
    """The configured template and density, and the dataset drawn at ``cfg.seed``."""
    template, density = build_template(cfg), build_density(cfg)
    return template, density, simulate(template, density, cfg.n, cfg.epsilon, cfg.seed)


def cmd_simulate(args, cfg):
    grid_size = _int(args.grid_size, "--grid-size")
    _, _, obs = _dataset(cfg)
    curves = render_curves(obs, grid_size)
    grid = render_grid(grid_size)
    return [(args.out, lambda path: write_curves_csv(path, grid, curves),
             f"wrote {obs.n} rendered curves ({grid_size} points) to {Path(args.out)}")], []


def cmd_select(args, cfg):
    _, density, obs = _dataset(cfg)
    sel = select_cutoff(obs, density, cfg.criterion, m0=cfg.m0_override,
                        penalty_variant=cfg.penalty_variant)
    files = [(args.out, lambda path: write_selection_csv(path, sel),
              f"wrote criterion trace to {args.out}")] if args.out else []
    return files, [f"criterion={sel.criterion_kind} chosen_n={sel.chosen_n} m0={sel.m0}"]


def cmd_estimate(args, cfg):
    grid_size = _int(args.grid_size, "--grid-size")
    template, density, obs = _dataset(cfg)
    if args.cutoff is not None:
        cutoff, kind = _int(args.cutoff, "--cutoff"), "fixed_n"
    else:
        sel = select_cutoff(obs, density, cfg.criterion, m0=cfg.m0_override,
                            penalty_variant=cfg.penalty_variant)
        cutoff, kind = sel.chosen_n, CRITERION_ESTIMATORS[cfg.criterion]
    est = estimate(obs, density, cutoff, kind)
    files = [(args.out, lambda path: write_template_csv(path, est),
              f"wrote estimated coefficients to {args.out}")] if args.out else []
    if args.grid_out:
        grid = render_grid(grid_size)
        fit, truth = _synthesize_rows(np.stack([est.coeffs, template.coeffs]),
                                      template.k_max, grid_size)
        files.append((args.grid_out, lambda path: write_csv(
            path, ["x", "estimate", "truth"], zip(grid, fit, truth)),
            f"wrote rendered estimate to {args.grid_out}"))
    return files, [f"cutoff={est.cutoff} kind={est.kind}"]


def cmd_risk(args, cfg):
    template, density = build_template(cfg), build_density(cfg)
    n_max = (_int(args.n_max, "--n-max") if args.n_max is not None
             else _cutoff_cap(density, cfg.n, template.k_max, cfg.m0_override))
    report = risk_report(template, density, cfg.n, cfg.epsilon, n_max)
    files = [(args.out, lambda path: write_risk_report_csv(path, report),
              f"wrote risk curves to {args.out}")] if args.out else []
    return files, [f"oracle_r={report.oracle_r} oracle_r_bar={report.oracle_r_bar} "
                   f"oracle_r_tilde={report.oracle_r_tilde}"]


def cmd_replication_study(args, cfg):
    study = run_replication_study(cfg, args.out, grid_size=_int(args.grid_size, "--grid-size"),
                                  workers=_int(args.workers, "--workers"))
    return [], [f"study bundle written to {study.out_dir}",
                f"m0_used={study.m0_used} (formula value {study.m0_formula}"
                f"{', saturated' if study.m0_saturated else ''})",
                f"median n_star={int(np.median(study.n_star))} "
                f"median n_tilde={int(np.median(study.n_tilde))}",
                f"mean loss theta_star={study.mean_loss_star!r} "
                f"theta_tilde={study.mean_loss_tilde!r}"]


# The configuration fields rate-study reads.  It builds its own template and
# density from --smoothness, --radius and --beta and selects under the
# formula cap, so every other field must keep its default (m0_override may
# also be none: the formula cap is what rate-study uses).
_RATE_STUDY_FIELDS = ("epsilon", "replications", "seed", "k_max")


def cmd_rate_study(args, cfg):
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
    n_grid = [_int(part, "--n-grid") for part in args.n_grid.split(",")]
    s, beta, radius = (_float(getattr(args, name), f"--{name}")
                       for name in ("smoothness", "beta", "radius"))
    study = rate_study(s, beta, radius, n_grid, cfg.epsilon, cfg.replications, cfg.seed,
                       k_max=cfg.k_max, workers=_int(args.workers, "--workers"))
    files = [(args.out, lambda path: write_rate_study_csv(path, study),
              f"wrote rate table to {args.out}")] if args.out else []
    gap = study.fitted_slope - study.theoretical_slope
    z = gap / study.slope_stderr if study.slope_stderr > 0 else math.nan
    return files, [f"fitted_slope={study.fitted_slope!r} "
                   f"theoretical_slope={study.theoretical_slope!r}",
                   f"slope_stderr={study.slope_stderr!r} gap_to_theory={gap:+.3g} "
                   f"({z:+.2f} stderr)"]


def cmd_write_config(args, cfg):
    return [(args.out, lambda path: save_config(cfg, path), f"wrote config to {args.out}")], []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftdecon",
        description="Template estimation for randomly shifted noisy curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="FILE", help="INI config file; flags override it")
    for field in CONFIG_FIELDS:
        config.add_argument(field.flag, dest=field.name, help=field.help)
    workers_help = ("an integer >= 1: rate-study runs its grid points in up to this many "
                    "forked processes, capped at the usable CPUs (serially off Linux); "
                    "replication-study runs serially; never changes a result")

    p = sub.add_parser("simulate", parents=[config],
                       help="simulate one dataset and render its curves")
    p.add_argument("--grid-size", default=256, dest="grid_size")
    p.add_argument("--out", default="curves.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select", parents=[config], help="run one cutoff selection")
    p.add_argument("--out", default=None, help="write the criterion trace CSV here")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("estimate", parents=[config], help="estimate the template from one dataset")
    p.add_argument("--cutoff", default=None,
                   help="fixed cutoff (default: select adaptively per --criterion)")
    p.add_argument("--grid-size", default=256, dest="grid_size")
    p.add_argument("--out", default=None, help="write estimated coefficients here")
    p.add_argument("--grid-out", dest="grid_out", default=None,
                   help="write (x, estimate, truth) curve CSV here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("risk", parents=[config],
                       help="exact risk curves for the configured problem")
    p.add_argument("--n-max", default=None, dest="n_max",
                   help="largest cutoff to tabulate (default: the m0 cap)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("replication-study", parents=[config],
                       help="full replication study as a CSV bundle")
    p.add_argument("--grid-size", default=256, dest="grid_size")
    p.add_argument("--workers", default=1, help=workers_help)
    p.add_argument("--out", default="study_out")
    p.set_defaults(func=cmd_replication_study)

    p = sub.add_parser("rate-study", parents=[config], help="risk decay against sample size")
    p.add_argument("--smoothness", default=2.0)
    p.add_argument("--beta", default=2.0)
    p.add_argument("--radius", default=5.0)
    p.add_argument("--n-grid", dest="n_grid", default="200,400,800,1600,3200,6400")
    p.add_argument("--workers", default=1, help=workers_help)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rate_study)

    p = sub.add_parser("write-config", parents=[config],
                       help="write the resolved configuration to a file")
    p.add_argument("--out", default="experiment.ini")
    p.set_defaults(func=cmd_write_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        files, lines = args.func(args, _resolve_config(args))
        _write_together([(path, write) for path, write, _ in files])
        print(*(message for _, _, message in files), *lines, sep="\n")
    except ShiftDeconError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
