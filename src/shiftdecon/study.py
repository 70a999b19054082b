"""Reproduction of the reference simulation study as a CSV bundle.

One call simulates ``replications`` independent datasets, runs both adaptive
cutoff selections (penalized and plain) on each, and writes plot-ready CSVs:

* ``template_curve.csv``   — the true pattern on a display grid;
* ``sample_curves.csv``    — a few rendered noisy shifted curves (see below);
* ``traces.csv``           — both criterion traces for replicate 0;
* ``selections.csv``       — per-replicate cutoffs and losses for both estimators;
* ``histograms.csv``       — cutoff histograms over all replicates;
* ``risk_summary.csv``     — Monte Carlo risk of both estimators next to the
  best theoretical risks and the resulting oracle ratios;
* ``risk_curves.csv``      — the exact risk decomposition over the scan band;
* ``meta.csv``             — every parameter actually used, including the cap.

Output bytes depend only on the configuration (not on worker count), so a
bundle can be diffed run-to-run as a regression check.

The replicates themselves run in ``shiftdecon.risk._run_replicates``, the
engine of :func:`shiftdecon.risk.mc_risk`, on the same seeds; it returns
per-replicate rows only, and this module adds the bundle.  ``traces.csv``
holds the criterion traces of replicate 0's summary, drawn again at its
seed, so its argmins are row 0 of ``selections.csv``.  Curves exist only in
the per-curve draw, so ``sample_curves.csv`` renders
:func:`shiftdecon.simulate.simulate` at replicate 0's seed: the same
shifts, hence the same ``gamma_tilde``, but independent noise.
``meta.csv`` says so in its ``sample_curves_draw`` row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig, build_density, build_template
from .csvio import write_csv, write_curves_csv, write_risk_report_csv
from .risk import (RiskReport, _check_replicates, _mean_and_stderr, _replicate_seed,
                   _run_replicates, risk_report)
from .selection import CRITERION_ESTIMATORS, _cutoff_cap, compute_m0, criterion_trace
from .simulate import _check_inputs, render_grid, simulate, simulate_summary
from .spectral import _check_integer, _synthesize_rows, synthesize

__all__ = ["ReplicationStudy", "run_replication_study"]

_SAMPLE_CURVE_COUNT = 10


@dataclass(frozen=True)
class ReplicationStudy:
    """Summary of one study run; the CSVs under ``out_dir`` hold the details."""

    out_dir: Path
    m0_used: int
    m0_formula: int
    m0_saturated: bool
    n_star: np.ndarray
    n_tilde: np.ndarray
    loss_star: np.ndarray
    loss_tilde: np.ndarray
    report: RiskReport

    @property
    def mean_loss_star(self) -> float:
        return float(np.mean(self.loss_star))

    @property
    def mean_loss_tilde(self) -> float:
        return float(np.mean(self.loss_tilde))


def run_replication_study(cfg: ExperimentConfig, out_dir, *, grid_size: int = 256,
                       workers: int = 1) -> ReplicationStudy:
    """Run the study described by ``cfg`` and write the CSV bundle to ``out_dir``.

    Both adaptive estimators are always evaluated side by side on shared
    datasets (``cfg.criterion`` only steers the single-selection commands).
    ``cfg.replications`` must be at least 2, so that ``risk_summary.csv``
    has a standard error.  ``workers`` must be an integer >= 1;
    the replicates run serially, in chunks of contiguous seeds in seed
    order, so it changes no output byte.  Every input is checked before
    anything is written.
    """
    seed, replications = _check_replicates(cfg.seed, cfg.replications)
    n, epsilon = _check_inputs(cfg.n, cfg.epsilon)
    template = build_template(cfg)
    density = build_density(cfg)
    k_max = template.k_max
    grid_size = _check_integer("grid_size", grid_size, 2 * k_max + 1)
    _check_integer("workers", workers, 1)

    m0_res = compute_m0(density, n, k_max)
    m0_used = _cutoff_cap(density, n, k_max, cfg.m0_override)

    rules, options = ("u_bar", "u_tilde"), {"penalty_variant": cfg.penalty_variant}
    reps = _run_replicates(template, density, n, epsilon, seed, replications,
                           rules, m0_used, **options)
    n_star, n_tilde = reps.cutoffs
    loss_star, loss_tilde = reps.losses
    neg_fracs = reps.negative_fractions

    # Theoretical risk curves over the scan band, for the summary ratios.
    report = risk_report(template, density, n, epsilon, m0_used)
    inf_r = float(np.min(report.r))
    inf_r_bar = float(np.min(report.r_bar))
    inf_r_tilde = float(np.min(report.r_tilde))

    summary_rows = []
    for crit, losses in zip(rules, reps.losses):
        mean, stderr = _mean_and_stderr(losses, epsilon)
        summary_rows.append((
            CRITERION_ESTIMATORS[crit], crit, mean, stderr,
            inf_r, inf_r_bar, inf_r_tilde,
            mean / inf_r if inf_r > 0 else float("nan"),
            mean / inf_r_bar if inf_r_bar > 0 else float("nan"),
            mean / inf_r_tilde if inf_r_tilde > 0 else float("nan"),
        ))

    # --- CSV bundle -------------------------------------------------------
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = render_grid(grid_size)
    write_curves_csv(out_dir / "template_curve.csv", grid,
                     synthesize(template, grid_size))

    seed0 = _replicate_seed(seed, 0)
    curves = simulate(template, density, n, epsilon, seed0)
    write_curves_csv(out_dir / "sample_curves.csv", grid,
                     _synthesize_rows(curves.per_curve[:_SAMPLE_CURVE_COUNT],
                                      curves.k_max, grid_size))

    summary0 = simulate_summary(template, density, n, epsilon, seed0)
    traces = [criterion_trace(summary0, density, rule, m0_used, **options) for rule in rules]
    write_csv(out_dir / "traces.csv", ["n", *rules],
              ((n, *map(float, row)) for n, row in enumerate(zip(*traces))))

    write_csv(out_dir / "selections.csv",
              ["replicate", "n_star", "loss_star", "n_tilde", "loss_tilde",
               "negative_energy_fraction"],
              ((i, int(n_star[i]), float(loss_star[i]), int(n_tilde[i]),
                float(loss_tilde[i]), float(neg_fracs[i]))
               for i in range(replications)))

    counts_star = np.bincount(n_star, minlength=m0_used + 1)
    counts_tilde = np.bincount(n_tilde, minlength=m0_used + 1)
    write_csv(out_dir / "histograms.csv", ["n", "count_n_star", "count_n_tilde"],
              ((n, int(counts_star[n]), int(counts_tilde[n]))
               for n in range(m0_used + 1)))

    write_risk_report_csv(out_dir / "risk_curves.csv", report)

    write_csv(out_dir / "risk_summary.csv",
              ["estimator", "criterion", "mc_mean", "mc_stderr", "inf_r",
               "inf_r_bar", "inf_r_tilde", "ratio_vs_r", "ratio_vs_r_bar",
               "ratio_vs_r_tilde"],
              summary_rows)

    meta = [
        ("template", template.label),
        ("density", density.label),
        ("n", cfg.n),
        ("epsilon", cfg.epsilon),
        ("k_max", k_max),
        ("criterion", cfg.criterion),
        ("replications", cfg.replications),
        ("seed", cfg.seed),
        ("grid_size", grid_size),
        ("m0_used", m0_used),
        ("m0_formula", m0_res.value),
        ("m0_formula_saturated", m0_res.saturated),
        ("m0_threshold", m0_res.threshold),
        ("penalty_variant", cfg.penalty_variant),
        ("mean_negative_energy_fraction", float(np.mean(neg_fracs))),
        ("sample_curves_draw", "simulate at the seed of replicate 0: same shifts "
                               "and gamma_tilde; independent noise"),
    ]
    write_csv(out_dir / "meta.csv", ["key", "value"], meta)

    return ReplicationStudy(out_dir=out_dir, m0_used=m0_used,
                         m0_formula=m0_res.value, m0_saturated=m0_res.saturated,
                         n_star=n_star, n_tilde=n_tilde,
                         loss_star=loss_star, loss_tilde=loss_tilde,
                         report=report)

