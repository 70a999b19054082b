"""Theoretical risks, oracle cutoffs, Monte Carlo risks, and rate studies.

For a known template the quadratic risk of the band-``N`` deconvolution
estimator splits exactly into three pieces:

    bias(N) = sum_{|k| > N} |theta_k|^2
    v1(N)   = (eps^2 / n) sum_{|k| <= N} |gamma_k|^{-2}
    v2(N)   = (1 / n) sum_{|k| <= N} |theta_k|^2 (|gamma_k|^{-2} - 1)
    r(N)    = bias + v1 + v2

with the penalized and plain envelopes

    r_bar(N)   = bias + v1 + (log^2(n)/n) sum_{|k| <= N} |theta_k|^2 |gamma_k|^{-2}
    r_tilde(N) = bias + v1.

All curves over ``N`` are built from per-frequency increments accumulated by
sequential recurrences, which keeps the identity ``r = (bias + v1) + v2`` and
the monotonicity of ``bias`` and ``v1`` exact in floating point.

The Monte Carlo replicate loop (simulate, select, score the loss) lives here
once, in ``_run_replicates``: :func:`mc_risk` runs it with one selection
rule, and :func:`shiftdecon.study.run_replication_study` with both adaptive
criteria on shared datasets.  Each replicate draws only the column means,
with :func:`shiftdecon.simulate.simulate_summary`: the selections and the
loss read nothing else, and the noise mean is drawn from its exact
``CN(0, epsilon^2/n)`` law instead of averaged from ``n`` curves.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError
from .selection import CRITERION_ESTIMATORS, ESTIMATE_KINDS, compute_m0, select_cutoff
from .simulate import simulate_summary
from .spectral import (ShiftDensity, Template, _pair_sums, _tail_energy, laplace_density,
                       point_mass_density)

__all__ = [
    "RiskBreakdown",
    "RiskReport",
    "McRisk",
    "RateStudy",
    "risk_report",
    "exact_risk",
    "oracle_cutoff",
    "mc_risk",
    "oracle_ratio",
    "rate_study",
    "theoretical_rate_exponent",
]

RISK_KINDS = ("r", "r_bar", "r_tilde")
_ESTIMATOR_CRITERIA = {est: crit for crit, est in CRITERION_ESTIMATORS.items()}


class RiskBreakdown(NamedTuple):
    """Exact risk of one cutoff, split into bias and the two variance pieces."""

    bias: float
    v1: float
    v2: float
    r: float


@dataclass(frozen=True)
class RiskReport:
    """Risk curves over ``N = 0..n_max`` and their argmins.

    Columns are aligned arrays; ``point(N)`` returns one row.  The argmins
    use smallest-``N`` tie-breaking.
    """

    bias: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    r: np.ndarray
    r_bar: np.ndarray
    r_tilde: np.ndarray
    oracle_r: int
    oracle_r_bar: int
    oracle_r_tilde: int

    @property
    def n_max(self) -> int:
        return len(self.r) - 1

    def point(self, cutoff: int) -> RiskBreakdown:
        return RiskBreakdown(bias=float(self.bias[cutoff]), v1=float(self.v1[cutoff]),
                             v2=float(self.v2[cutoff]), r=float(self.r[cutoff]))

    def column(self, kind: str) -> np.ndarray:
        if kind not in RISK_KINDS:
            raise InvalidParameterError(f"unknown risk kind {kind!r}; expected one of {RISK_KINDS}")
        return getattr(self, kind)

    def oracle(self, kind: str) -> int:
        if kind not in RISK_KINDS:
            raise InvalidParameterError(f"unknown risk kind {kind!r}; expected one of {RISK_KINDS}")
        return getattr(self, "oracle_" + kind)


def risk_report(template: Template, density: ShiftDensity, n: int, epsilon: float,
                n_max: int, *, log_base: float = math.e,
                penalty_multiplier: float = 1.0) -> RiskReport:
    """Evaluate all risk curves for cutoffs ``0..n_max``.

    ``n_max`` may exceed the template band (the tail bias is then zero), but
    every ``gamma_k`` on ``|k| <= n_max`` must be invertible: see
    :meth:`ShiftDensity.gamma_band`.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not (0.0 <= epsilon < math.inf):
        raise InvalidParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
    if n_max < 0:
        raise InvalidParameterError(f"n_max must be >= 0, got {n_max}")
    k_max = template.k_max
    g2inv = 1.0 / np.abs(density.gamma_band(n_max)) ** 2

    bias = _tail_energy(template, n_max)

    # Per-frequency theta energy on |k| <= n_max, zero past the template band.
    wide = max(n_max, k_max)
    theta2 = np.zeros(2 * wide + 1, dtype=float)
    theta2[wide - k_max : wide + k_max + 1] = np.abs(template.coeffs) ** 2
    theta2_band = theta2[wide - n_max : wide + n_max + 1]

    v1_steps = _pair_sums(g2inv, n_max)
    v2_steps = _pair_sums(theta2_band * (g2inv - 1.0), n_max)
    pen_steps = _pair_sums(theta2_band * g2inv, n_max)

    # Forward recurrences (np.cumsum is sequential), so v1 is exactly
    # non-decreasing and shared terms associate identically across curves.
    v1 = (epsilon ** 2 / n) * np.cumsum(v1_steps)
    v2 = (1.0 / n) * np.cumsum(v2_steps)
    level = penalty_multiplier * (math.log(n) / math.log(log_base)) ** 2 / n if n >= 2 else 0.0
    pen = level * np.cumsum(pen_steps)

    base = bias + v1
    r = base + v2
    r_bar_curve = base + pen
    r_tilde_curve = base

    return RiskReport(
        bias=bias, v1=v1, v2=v2, r=r, r_bar=r_bar_curve, r_tilde=r_tilde_curve,
        oracle_r=int(np.argmin(r)), oracle_r_bar=int(np.argmin(r_bar_curve)),
        oracle_r_tilde=int(np.argmin(r_tilde_curve)),
    )


def exact_risk(template: Template, density: ShiftDensity, n: int, epsilon: float,
               cutoff: int) -> RiskBreakdown:
    """Exact risk decomposition of the band-``cutoff`` estimator."""
    if cutoff < 0:
        raise InvalidParameterError(f"cutoff must be >= 0, got {cutoff}")
    report = risk_report(template, density, n, epsilon, cutoff)
    return report.point(cutoff)


def oracle_cutoff(template: Template, density: ShiftDensity, n: int, epsilon: float,
                  kind: str, m0: int, *, log_base: float = math.e,
                  penalty_multiplier: float = 1.0) -> int:
    """Exhaustive argmin of a theoretical risk curve over ``N = 0..m0``."""
    if m0 < 0:
        raise InvalidParameterError(f"m0 must be >= 0, got {m0}")
    report = risk_report(template, density, n, epsilon, m0,
                         log_base=log_base, penalty_multiplier=penalty_multiplier)
    return report.oracle(kind)


class McRisk(NamedTuple):
    """Monte Carlo risk summary; ``losses``/``cutoffs`` are per-replicate, in
    replicate order."""

    mean: float
    stderr: float
    losses: np.ndarray
    cutoffs: np.ndarray


class _Replicates(NamedTuple):
    """Per-replicate results in seed order; row ``j`` of ``cutoffs`` and
    ``losses`` belongs to the ``j``-th rule."""

    cutoffs: np.ndarray
    losses: np.ndarray
    negative_fractions: np.ndarray


def _run_replicates(template: Template, density: ShiftDensity, n: int,
                    epsilon: float, seeds: Sequence[np.random.SeedSequence],
                    rules: Sequence[Union[str, int]], m0: int, *, workers: int,
                    **options) -> _Replicates:
    """The replicate loop behind :func:`mc_risk` and the replication study.

    Each seed gives one dataset's column means (:func:`simulate_summary`),
    on which every rule picks a cutoff: a criterion kind is minimized over
    ``0..m0`` (``options`` go to :func:`select_cutoff`), an ``int`` is a
    fixed cutoff ``<= m0``.  A cutoff ``N`` scores ``||theta_hat - theta||^2``
    of the band-``N`` estimator, its tail ``sum_{|k| > N} |theta_k|^2`` taken
    in closed form.  The negative-energy fraction on ``|k| <= m0`` is that of
    :func:`shiftdecon.selection.fraction_negative_theta_hat`: the guard keeps
    every ``|gamma_k|^2`` positive, so ``t_k / |gamma_k|^2`` is negative
    exactly where ``t_k = |c_tilde_k|^2 - epsilon^2/n`` is.  Replicates are
    collected in seed order, so results are bit-identical for any ``workers``.
    """
    k_max = template.k_max
    gamma = density.gamma_band(m0)
    tail = _tail_energy(template, m0)
    scan = slice(k_max - m0, k_max + m0 + 1)

    def replicate(seed):
        obs = simulate_summary(template, density, n, epsilon, seed)
        cutoffs = [rule if isinstance(rule, int)
                   else select_cutoff(obs, density, rule, m0=m0, **options).chosen_n
                   for rule in rules]
        losses = []
        for cutoff in cutoffs:
            band = slice(k_max - cutoff, k_max + cutoff + 1)
            theta_hat = obs.c_tilde[band] / gamma[m0 - cutoff : m0 + cutoff + 1]
            diff = theta_hat - template.coeffs[band]
            losses.append(float(np.sum(np.abs(diff) ** 2) + tail[cutoff]))
        t = np.abs(obs.c_tilde[scan]) ** 2 - obs.epsilon ** 2 / obs.n
        return cutoffs, losses, float(np.count_nonzero(t < 0.0)) / (2 * m0 + 1)

    if workers == 1:
        rows = [replicate(seed) for seed in seeds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(replicate, seeds))
    cutoffs, losses, negative_fractions = zip(*rows)
    return _Replicates(cutoffs=np.array(cutoffs, dtype=int).T.copy(),
                       losses=np.array(losses, dtype=float).T.copy(),
                       negative_fractions=np.array(negative_fractions, dtype=float))


def mc_risk(template: Template, density: ShiftDensity, n: int, epsilon: float,
            estimator_kind: str, replications: int, seed: int, *,
            cutoff: Optional[int] = None, m0: Optional[int] = None,
            workers: int = 1, log_base: float = math.e,
            threshold_multiplier: float = 1.0, penalty_multiplier: float = 1.0,
            penalty_variant: str = "proof_form") -> McRisk:
    """Monte Carlo estimate of ``E ||theta_hat - theta||^2``.

    Parameters
    ----------
    estimator_kind : {"theta_u", "theta_star", "theta_tilde", "fixed_n"}
        An adaptive estimator selects its cutoff with its criterion in
        :data:`~shiftdecon.selection.CRITERION_ESTIMATORS`: ``theta_star``
        with the penalized ``u_bar``, ``theta_tilde`` with the plain
        ``u_tilde``, ``theta_u`` with the unbiased ``u``.  ``fixed_n`` uses
        ``cutoff``.
    replications : int
        Number of independent datasets (>= 2 so a standard error exists).
    seed : int
        Base seed; replicate ``i`` runs on the ``i``-th spawned substream, so
        results are reproducible for any ``workers`` value.
    workers : int
        Thread count for replicate execution; output is bit-identical for any
        value because replicates are reduced in index order.
    """
    if estimator_kind not in ESTIMATE_KINDS:
        raise InvalidParameterError(
            f"unknown estimator kind {estimator_kind!r}; expected one of {ESTIMATE_KINDS}"
        )
    if replications < 2:
        raise InvalidParameterError(f"replications must be >= 2, got {replications}")
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if not (0.0 <= epsilon < math.inf):
        raise InvalidParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
    if estimator_kind == "fixed_n":
        if cutoff is None:
            raise InvalidParameterError("fixed_n estimator requires a cutoff")
        band_top = int(cutoff)
        rule: Union[str, int] = band_top
    else:
        if m0 is None:
            m0 = compute_m0(density, n, template.k_max, log_base=log_base,
                            threshold_multiplier=threshold_multiplier).value
        band_top = int(m0)
        rule = _ESTIMATOR_CRITERIA[estimator_kind]
    if not (0 <= band_top <= template.k_max):
        raise InvalidParameterError(
            f"cutoff bound must be in 0..{template.k_max}, got {band_top}"
        )

    seeds = np.random.SeedSequence(seed).spawn(replications)
    reps = _run_replicates(template, density, n, epsilon, seeds, (rule,), band_top,
                           workers=workers, log_base=log_base,
                           penalty_multiplier=penalty_multiplier,
                           penalty_variant=penalty_variant)
    losses = reps.losses[0]
    mean = float(np.mean(losses))
    stderr = float(np.std(losses, ddof=1) / math.sqrt(replications))
    return McRisk(mean=mean, stderr=stderr, losses=losses, cutoffs=reps.cutoffs[0])


def oracle_ratio(template: Template, density: ShiftDensity, n: int, epsilon: float,
                 estimator_kind: str, replications: int, seed: int, *,
                 m0: Optional[int] = None, baseline: Optional[str] = None,
                 workers: int = 1, log_base: float = math.e,
                 threshold_multiplier: float = 1.0, penalty_multiplier: float = 1.0,
                 penalty_variant: str = "proof_form") -> float:
    """Monte Carlo risk divided by the best theoretical risk ``inf_{N<=m0}``.

    The baseline defaults to the envelope matching the estimator:
    ``r_bar`` for ``theta_star``, ``r`` for ``theta_tilde`` and ``theta_u``;
    pass ``baseline`` explicitly to compare against another curve.
    """
    if estimator_kind == "fixed_n":
        raise InvalidParameterError("oracle_ratio is defined for the adaptive estimators")
    if baseline is None:
        baseline = "r_bar" if estimator_kind == "theta_star" else "r"
    if baseline not in RISK_KINDS:
        raise InvalidParameterError(f"unknown baseline {baseline!r}; expected one of {RISK_KINDS}")
    if m0 is None:
        m0 = compute_m0(density, n, template.k_max, log_base=log_base,
                        threshold_multiplier=threshold_multiplier).value
    report = risk_report(template, density, n, epsilon, m0, log_base=log_base,
                         penalty_multiplier=penalty_multiplier)
    denom = float(np.min(report.column(baseline)))
    if denom == 0.0:
        raise DegenerateInputError(
            "oracle risk is exactly zero (noiseless, fully recoverable template); "
            "the ratio is undefined"
        )
    mc = mc_risk(template, density, n, epsilon, estimator_kind, replications, seed,
                 m0=m0, workers=workers, log_base=log_base,
                 threshold_multiplier=threshold_multiplier,
                 penalty_multiplier=penalty_multiplier,
                 penalty_variant=penalty_variant)
    return mc.mean / denom


def theoretical_rate_exponent(s: float, beta: float) -> float:
    """Minimax rate exponent ``-2s / (2s + 2*beta + 1)``."""
    if not (s > 0.0):
        raise InvalidParameterError(f"s must be > 0, got {s}")
    if not (beta >= 0.0):
        raise InvalidParameterError(f"beta must be >= 0, got {beta}")
    return -2.0 * s / (2.0 * s + 2.0 * beta + 1.0)


@dataclass(frozen=True)
class RateStudy:
    """Decay of the adaptive estimator's risk along a grid of sample sizes."""

    n_grid: np.ndarray
    mise: np.ndarray
    mise_stderr: np.ndarray
    fitted_slope: float
    theoretical_slope: float
    s: float
    beta: float


def _default_rate_density(beta: float) -> ShiftDensity:
    if beta == 0.0:
        return point_mass_density()
    if beta == 2.0:
        return laplace_density(0.1)
    raise InvalidParameterError(
        f"no built-in shift density with polynomial decay beta={beta}; "
        f"pass density= explicitly (built-ins cover beta=0 and beta=2)"
    )


def rate_study(s: float, beta: float, radius: float, n_grid: Sequence[int],
               epsilon: float, replications: int, seed: int, *,
               density: Optional[ShiftDensity] = None, k_max: int = 64,
               delta: float = 0.01, workers: int = 1) -> RateStudy:
    """Measure how the adaptive (plain-criterion) estimator's risk scales with n.

    A deterministic Sobolev-edge template with smoothness ``s`` and ball
    radius ``radius`` is estimated at every size in ``n_grid``; the slope of
    ``log(mise)`` against ``log(n)`` is fit by least squares and reported next
    to the minimax exponent ``-2s/(2s + 2 beta + 1)``.
    """
    from .catalog import sobolev_template

    n_grid_arr = np.asarray(list(n_grid), dtype=int)
    if n_grid_arr.size < 3:
        raise InvalidParameterError(
            f"n_grid needs at least 3 points for a slope fit, got {n_grid_arr.size}"
        )
    if np.any(np.diff(n_grid_arr) <= 0):
        raise InvalidParameterError("n_grid must be strictly increasing")
    if np.any(n_grid_arr < 2):
        raise InvalidParameterError("all n in n_grid must be >= 2")
    if density is None:
        density = _default_rate_density(beta)
    template = sobolev_template(smoothness=s, radius=radius, k_max=k_max, delta=delta)

    mise = np.empty(n_grid_arr.size, dtype=float)
    stderr = np.empty(n_grid_arr.size, dtype=float)
    for i, n in enumerate(n_grid_arr):
        mc = mc_risk(template, density, int(n), epsilon, "theta_tilde",
                     replications, seed + i, workers=workers)
        mise[i] = mc.mean
        stderr[i] = mc.stderr
    if np.any(mise <= 0.0):
        raise DegenerateInputError("Monte Carlo risk is not positive; cannot fit a log-log slope")
    slope = float(np.polyfit(np.log(n_grid_arr.astype(float)), np.log(mise), 1)[0])
    return RateStudy(n_grid=n_grid_arr, mise=mise, mise_stderr=stderr,
                     fitted_slope=slope,
                     theoretical_slope=theoretical_rate_exponent(s, beta),
                     s=float(s), beta=float(beta))
