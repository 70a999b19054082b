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
and returns the cap, each rule's mean and standard error, the per-replicate
rows and replicate 0's criterion traces, whose argmins are row 0 of
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
a refusal from any of them leaves no ``out_dir`` behind, and a failed write
leaves none of the study's files.  The tables go to :mod:`shiftdecon.csvio`
as the numpy values they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig, build_density, build_template
from .csvio import _written_together, write_csv, write_curves_csv, write_risk_report_csv
from .risk import RiskReport, _run_replicates, risk_report
from .selection import CRITERION_ESTIMATORS, compute_m0
from .simulate import render_grid, simulate
from .spectral import _synthesize_rows

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
    the replicates run serially, in chunks of contiguous replicates in
    replicate order, so it changes no output byte.  A ``grid_size`` that cannot
    resolve the template's band raises
    :class:`~shiftdecon.errors.AliasingError`.  Every input is checked,
    and every array computed, before ``out_dir`` is created; a failed
    write removes the files written before it, and ``out_dir`` if created.
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
    m0_used = reps.m0
    n_star, n_tilde = reps.cutoffs
    loss_star, loss_tilde = reps.losses
    neg_fracs = reps.negative_fractions

    # Theoretical risk curves over the scan band, for the summary ratios.
    report = risk_report(template, density, cfg.n, cfg.epsilon, m0_used)
    infs = [np.min(curve) for curve in (report.r, report.r_bar, report.r_tilde)]
    summary_rows = [(CRITERION_ESTIMATORS[crit], crit, mean, stderr, *infs,
                     *(mean / inf if inf > 0 else float("nan") for inf in infs))
                    for crit, (mean, stderr) in zip(rules, reps.summaries)]

    grid = render_grid(grid_size)
    counts_star = np.bincount(n_star, minlength=m0_used + 1)
    counts_tilde = np.bincount(n_tilde, minlength=m0_used + 1)

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
    with _written_together() as keep:
        if not out_dir.is_dir():
            out_dir.mkdir(parents=True)
            keep(out_dir)
        keep(write_curves_csv(out_dir / "template_curve.csv", grid, template_curve))
        keep(write_curves_csv(out_dir / "sample_curves.csv", grid, sample_curves))

        keep(write_csv(out_dir / "traces.csv", ["n", *rules],
                       ((n, *row) for n, row in enumerate(reps.traces.T))))

        keep(write_csv(out_dir / "selections.csv",
                       ["replicate", "n_star", "loss_star", "n_tilde", "loss_tilde",
                        "negative_energy_fraction"],
                       zip(range(cfg.replications), n_star, loss_star, n_tilde, loss_tilde,
                           neg_fracs)))

        keep(write_csv(out_dir / "histograms.csv", ["n", "count_n_star", "count_n_tilde"],
                       zip(range(m0_used + 1), counts_star, counts_tilde)))

        keep(write_risk_report_csv(out_dir / "risk_curves.csv", report))

        keep(write_csv(out_dir / "risk_summary.csv",
                       ["estimator", "criterion", "mc_mean", "mc_stderr", "inf_r",
                        "inf_r_bar", "inf_r_tilde", "ratio_vs_r", "ratio_vs_r_bar",
                        "ratio_vs_r_tilde"],
                       summary_rows))

        keep(write_csv(out_dir / "meta.csv", ["key", "value"], meta))

    return ReplicationStudy(out_dir=out_dir, m0_used=m0_used,
                         m0_formula=m0_res.value, m0_saturated=m0_res.saturated,
                         n_star=n_star, n_tilde=n_tilde,
                         loss_star=loss_star, loss_tilde=loss_tilde,
                         report=report)

