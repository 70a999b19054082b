"""Adaptive template estimation for randomly shifted, noisy periodic curves.

The observation model lives in Fourier space: each curve contributes noisy
coefficients of a common template translated by a random shift.  Averaging
across curves and deconvolving by the shift density's Fourier coefficients
recovers the template; the band width is chosen from the data by minimizing
an (optionally penalized) unbiased risk criterion over a safe frequency range.

Typical use::

    from shiftdecon import (wave_template, laplace_density, simulate,
                            select_cutoff, estimate)

    template = wave_template(k_max=40)
    density = laplace_density(0.1)
    obs = simulate(template, density, n=100, epsilon=0.015, seed=7)
    sel = select_cutoff(obs, density, "u_bar")
    fit = estimate(obs, density, sel.chosen_n, kind="theta_star")
"""

from .catalog import (TEMPLATE_BUILDERS, catalog_template, sobolev_template,
                      spike_template, wave_template)
from .config import (ExperimentConfig, build_density, build_template, load_config,
                     parse_config, save_config, serialize_config)
from .errors import (AliasingError, ConfigError, DegenerateInputError,
                     InvalidParameterError, InvariantViolationError,
                     ShiftDeconError, VanishingEigenvalueError)
from .risk import (McRisk, RateStudy, RiskBreakdown, RiskReport, exact_risk,
                   mc_risk, oracle_ratio, rate_study, risk_report,
                   theoretical_rate_exponent)
from .selection import (CRITERION_KINDS, CutoffSelection, M0Result,
                        SpectralEstimate, compute_m0, criterion_trace, estimate,
                        fraction_negative_theta_hat, select_cutoff,
                        theta_hat_squared)
from .simulate import (SequenceObservations, SequenceSummary, render_curves,
                       render_grid, simulate, simulate_summary)
from .spectral import (DecayCheck, DecayProfile, ShiftDensity, Template, analyze,
                       gaussian_density, laplace_density, point_mass_density,
                       synthesize, uniform_density, verify_polynomial_decay)
from .study import ReplicationStudy, run_replication_study

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spectral
    "Template", "DecayProfile", "DecayCheck", "ShiftDensity",
    "laplace_density", "gaussian_density", "uniform_density",
    "point_mass_density", "verify_polynomial_decay", "synthesize", "analyze",
    # simulate
    "SequenceSummary", "SequenceObservations", "simulate", "simulate_summary",
    "render_curves", "render_grid",
    # selection
    "CRITERION_KINDS", "M0Result", "CutoffSelection", "SpectralEstimate",
    "compute_m0", "theta_hat_squared", "fraction_negative_theta_hat",
    "criterion_trace", "select_cutoff", "estimate",
    # risk
    "RiskBreakdown", "RiskReport", "McRisk", "RateStudy", "risk_report",
    "exact_risk", "mc_risk", "oracle_ratio", "rate_study",
    "theoretical_rate_exponent",
    # catalog
    "wave_template", "sobolev_template", "spike_template", "catalog_template",
    "TEMPLATE_BUILDERS",
    # config / study
    "ExperimentConfig", "parse_config", "load_config", "serialize_config",
    "save_config", "build_density", "build_template",
    "ReplicationStudy", "run_replication_study",
    # errors
    "ShiftDeconError", "InvalidParameterError", "AliasingError",
    "InvariantViolationError", "VanishingEigenvalueError",
    "DegenerateInputError", "ConfigError",
]
