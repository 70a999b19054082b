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

The replicates run in ``shiftdecon.risk._run_replicates``, the run path of
:func:`shiftdecon.risk.mc_risk`, on the same seed.  It checks the inputs
and returns one :class:`~shiftdecon.risk.McRisk` per rule, with its cap,
mean loss, standard error, cutoffs and losses, next to the negative-energy
fractions and replicate 0's criterion traces, whose argmins are row 0 of
``selections.csv``; this module writes them as the bundle.  Curves exist
only in the per-curve draw, so ``sample_curves.csv`` renders
:func:`shiftdecon.simulate.simulate` at the study's seed: replicate 0's
shifts, hence its ``gamma_tilde``, but independent noise.  ``meta.csv`` says
so in its ``sample_curves_draw`` row.  The template and the sample curves
are synthesized in one call, the template's row first; each row is its own
product, so the template's samples are those of
:func:`shiftdecon.spectral.synthesize`.

Nothing is written before every array of the bundle exists: the replicates,
the risk curves, the sample curves and the histograms are computed first, so
a refusal from any of them leaves no ``out_dir`` behind.  The tables go to
:mod:`shiftdecon.csvio` as the numpy values they hold, through its one write
step, which makes ``out_dir`` and its missing parents: a failed write leaves
none of the study's files, not even one written part-way, and none of the
directories made.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig, build_density, build_template
from .csvio import _write_together, write_csv, write_curves_csv, write_risk_report_csv
from .risk import RiskReport, _run_replicates, risk_report
from .selection import CRITERION_ESTIMATORS, compute_m0
from .simulate import render_grid, simulate
from .spectral import _synthesize_rows

__all__ = ["ReplicationStudy", "run_replication_study"]

_SAMPLE_CURVE_COUNT = 10


@dataclass(frozen=True)
class ReplicationStudy:
    """Summary of one study run; the CSVs under ``out_dir`` hold the details.
    ``mean_loss_star`` and ``mean_loss_tilde`` are the engine's means of
    ``loss_star`` and ``loss_tilde``, the ``mc_mean`` of ``risk_summary.csv``."""

    out_dir: Path
    m0_used: int
    m0_formula: int
    m0_saturated: bool
    n_star: np.ndarray
    n_tilde: np.ndarray
    loss_star: np.ndarray
    loss_tilde: np.ndarray
    mean_loss_star: float
    mean_loss_tilde: float
    report: RiskReport


def run_replication_study(cfg: ExperimentConfig, out_dir, *, grid_size: int = 256,
                       workers: int = 1) -> ReplicationStudy:
    """Run the study described by ``cfg`` and write the CSV bundle to ``out_dir``.

    Both adaptive estimators are always evaluated side by side on shared
    datasets (``cfg.criterion`` only steers the single-selection commands).
    ``cfg.replications`` must be at least 2, so that ``risk_summary.csv``
    has a standard error.  ``workers`` must be an integer >= 1;
    the replicates run serially, in chunks of contiguous replicates in
    replicate order, so it changes no output byte.  A ``grid_size`` that cannot
    resolve the template's band raises
    :class:`~shiftdecon.errors.AliasingError`.  Every input is checked,
    and every array computed, before ``out_dir`` is created; a failed
    write removes every file and directory the call made, the failed file
    included, and keeps every path that was there before.
    """
    template = build_template(cfg)
    density = build_density(cfg)
    k_max = template.k_max
    sample = simulate(template, density, cfg.n, cfg.epsilon, cfg.seed).per_curve
    curves = _synthesize_rows(np.vstack([template.coeffs, sample[:_SAMPLE_CURVE_COUNT]]),
                              k_max, grid_size)
    template_curve, sample_curves = curves[0], curves[1:]
    m0_res = compute_m0(density, cfg.n, k_max)

    rules = ("u_bar", "u_tilde")
    reps = _run_replicates(template, density, cfg.n, cfg.epsilon, cfg.seed, cfg.replications,
                           rules, cfg.m0_override, penalty_variant=cfg.penalty_variant,
                           workers=workers)
    star, tilde = reps.rules
    m0_used = star.m0
    neg_fracs = reps.negative_fractions

    # Theoretical risk curves over the scan band, for the summary ratios.
    report = risk_report(template, density, cfg.n, cfg.epsilon, m0_used)
    infs = [np.min(curve) for curve in (report.r, report.r_bar, report.r_tilde)]
    summary_rows = [(CRITERION_ESTIMATORS[crit], crit, mc.mean, mc.stderr, *infs,
                     *(mc.mean / inf if inf > 0 else float("nan") for inf in infs))
                    for crit, mc in zip(rules, reps.rules)]

    grid = render_grid(grid_size)
    counts_star = np.bincount(star.cutoffs, minlength=m0_used + 1)
    counts_tilde = np.bincount(tilde.cutoffs, minlength=m0_used + 1)

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
        ("mean_negative_energy_fraction", np.mean(neg_fracs)),
        ("sample_curves_draw", "simulate at the seed: replicate 0's shifts "
                               "and gamma_tilde; independent noise"),
    ]

    # --- CSV bundle: every array exists, so only a failing write stops it ---
    out_dir = Path(out_dir)
    bundle = [
        ("template_curve.csv", lambda path: write_curves_csv(path, grid, template_curve)),
        ("sample_curves.csv", lambda path: write_curves_csv(path, grid, sample_curves)),
        ("traces.csv", lambda path: write_csv(
            path, ["n", *rules], ((n, *row) for n, row in enumerate(reps.traces.T)))),
        ("selections.csv", lambda path: write_csv(
            path, ["replicate", "n_star", "loss_star", "n_tilde", "loss_tilde",
                   "negative_energy_fraction"],
            zip(range(cfg.replications), star.cutoffs, star.losses, tilde.cutoffs,
                tilde.losses, neg_fracs))),
        ("histograms.csv", lambda path: write_csv(
            path, ["n", "count_n_star", "count_n_tilde"],
            zip(range(m0_used + 1), counts_star, counts_tilde))),
        ("risk_curves.csv", lambda path: write_risk_report_csv(path, report)),
        ("risk_summary.csv", lambda path: write_csv(
            path, ["estimator", "criterion", "mc_mean", "mc_stderr", "inf_r", "inf_r_bar",
                   "inf_r_tilde", "ratio_vs_r", "ratio_vs_r_bar", "ratio_vs_r_tilde"],
            summary_rows)),
        ("meta.csv", lambda path: write_csv(path, ["key", "value"], meta)),
    ]
    _write_together([(out_dir / name, write) for name, write in bundle], directory=out_dir)

    return ReplicationStudy(out_dir=out_dir, m0_used=m0_used,
                         m0_formula=m0_res.value, m0_saturated=m0_res.saturated,
                         n_star=star.cutoffs, n_tilde=tilde.cutoffs,
                         loss_star=star.losses, loss_tilde=tilde.losses,
                         mean_loss_star=star.mean, mean_loss_tilde=tilde.mean,
                         report=report)

