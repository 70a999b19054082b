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

The Monte Carlo replicate engine lives here once, in ``_run_replicates``:
:func:`mc_risk` runs it with one selection rule, and
:func:`shiftdecon.study.run_replication_study` with both adaptive criteria
on shared datasets.  Each replicate draws only the column means, as
:func:`shiftdecon.simulate.simulate_summary` does: the selections and the
loss read nothing else, and the noise mean is drawn from its exact
``CN(0, epsilon^2/n)`` law instead of averaged from ``n`` curves.

Replicate ``i`` of a run at ``seed`` draws from
``SeedSequence(seed, spawn_key=(i,))``, which is child ``i`` of
``SeedSequence(seed).spawn``: it depends on ``(seed, i)`` and nothing else.
The engine works on contiguous chunks of replicates, one chunk after the
other in replicate order, so its memory does not grow with the number of
replicates.  Two bounds share one budget of ``_CHUNK_VALUES`` values: a
chunk holds two band rows per replicate, ``2 * (2*k_max + 1)`` values, so
its size does not depend on ``n``; the draw inside it holds ``n`` values
per seed, so it runs in blocks of ``_CHUNK_VALUES // n`` seeds.  Per chunk
the engine runs three steps:

* draw: block by block, every seed's shifts and noise from its own
  generator, then the phases of the block, one frequency at a time,
  keeping only their means;
* select: :func:`~shiftdecon.selection.fraction_negative_theta_hat` for
  the negative-energy diagnostic, then per rule one row-wise
  :func:`~shiftdecon.selection.criterion_trace` and one argmin: the public
  criteria of :mod:`shiftdecon.selection`, called on the whole chunk;
* score: one row-wise loss trace for every rule, ``loss[N]`` the squared
  error of the band-``N`` estimator for every ``N = 0..m0``, built as the
  criteria are; each rule reads its rows' losses at their cutoffs.

Each step treats a replicate's row as if it were alone, so results are
bit-identical for any chunking and any ``workers`` value.

``workers`` is a number of processes.  ``_fork_map`` runs independent units
in a ``fork`` pool of at most ``workers`` processes, capped at the units and
at the CPUs this process may use, and returns their results in unit order;
the units are :func:`rate_study`'s grid points, each :func:`mc_risk`'s own
arguments.  Off Linux, or while the caller runs other Python threads, the
units run serially in this process.  The replicate engine always runs in
this process: at 200 replicates a pool's start-up costs more than the split
saves.  ``workers`` never changes a result.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .catalog import sobolev_template
from .errors import DegenerateInputError, InvalidParameterError
from .selection import (CRITERION_ESTIMATORS, _cutoff_cap, _noise_terms, criterion_trace,
                        fraction_negative_theta_hat, log_squared_over_n)
from .simulate import _check_inputs, _draw_summaries
from .spectral import (ShiftDensity, Template, _check_choice, _check_integer, _check_real,
                       _pair_sums, _tail_energy, laplace_density, point_mass_density)

__all__ = [
    "RiskBreakdown",
    "RiskReport",
    "McRisk",
    "RateStudy",
    "risk_report",
    "exact_risk",
    "mc_risk",
    "oracle_ratio",
    "rate_study",
    "theoretical_rate_exponent",
]

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


def risk_report(template: Template, density: ShiftDensity, n: int, epsilon: float,
                n_max: int) -> RiskReport:
    """Evaluate all risk curves for cutoffs ``0..n_max``.

    ``n_max`` may exceed the template band (the tail bias is then zero), but
    every ``gamma_k`` on ``|k| <= n_max`` must be invertible: see
    :meth:`ShiftDensity.gamma_band`.
    """
    n, epsilon = _check_inputs(n, epsilon)
    n_max = _check_integer("n_max", n_max, 0)
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
    with _noise_terms(epsilon):
        v1 = (epsilon ** 2 / n) * np.cumsum(v1_steps)
    v2 = (1.0 / n) * np.cumsum(v2_steps)
    pen = log_squared_over_n(n) * np.cumsum(pen_steps)

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
    cutoff = _check_integer("cutoff", cutoff, 0)
    report = risk_report(template, density, n, epsilon, cutoff)
    return report.point(cutoff)


class McRisk(NamedTuple):
    """Monte Carlo risk summary; ``losses``/``cutoffs`` are per-replicate, in
    replicate order."""

    mean: float
    stderr: float
    losses: np.ndarray
    cutoffs: np.ndarray


def _check_replicates(seed, replications) -> tuple:
    """``(seed, replications)`` of a Monte Carlo run as ints: any seed >= 0 and
    at least 2 replicates, so that a standard error exists."""
    return _check_integer("seed", seed, 0, None), _check_integer("replications", replications, 2)


def _replicate_seed(seed: int, i: int) -> np.random.SeedSequence:
    """The seed of replicate ``i`` of a run at ``seed``."""
    return np.random.SeedSequence(seed, spawn_key=(i,))


def _mean_and_stderr(losses: np.ndarray, epsilon: float) -> tuple:
    """Monte Carlo mean of per-replicate ``losses`` and its standard error;
    ``epsilon`` is refused if the squared deviations of its losses overflow."""
    with _noise_terms(epsilon):
        return (float(np.mean(losses)),
                float(np.std(losses, ddof=1) / math.sqrt(losses.size)))


def _pool_size(workers, units: int) -> int:
    """Processes for ``units`` independent units of work: ``workers`` capped at
    ``units`` and at the CPUs this process may run on.  It is 1 off Linux,
    where ``fork`` is unavailable, and while the calling process runs other
    Python threads, which a forked child could find holding a lock."""
    size = min(_check_integer("workers", workers, 1), units)
    if size <= 1 or sys.platform != "linux":
        return min(size, 1)
    import multiprocessing  # only a pool needs it, so the package imports without it
    import threading
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    return min(size, len(os.sched_getaffinity(0)))


def _fork_map(fn, units: Sequence, workers) -> list:
    """``[fn(unit) for unit in units]``, in unit order.

    The units run in a ``fork`` pool of ``_pool_size(workers, len(units))``
    processes, or serially in this process when that is 1.  Jobs and results
    are pickled, so ``fn`` is a module-level function and a unit holds values
    that pickle, as a built-in density does.  An exception raised
    by ``fn`` in a pool process is raised here, with its type and message; a
    pool process that dies raises ``BrokenProcessPool``.
    """
    size = _pool_size(workers, len(units))
    if size <= 1:
        return [fn(unit) for unit in units]
    import concurrent.futures
    import multiprocessing
    with concurrent.futures.ProcessPoolExecutor(
            size, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, units))


class _Replicates(NamedTuple):
    """Per-replicate results in seed order, row ``j`` for the ``j``-th rule."""

    cutoffs: np.ndarray
    losses: np.ndarray
    negative_fractions: np.ndarray


# The budget of values for each of two bounds: a chunk, at 2 * (2*k_max + 1)
# per seed for its c_tilde and gamma_tilde, which the select and score steps
# read; and a block of the draw, at n per seed for its shifts and its row of
# phases.  The bounds hold whatever the number of replicates: at the default
# configuration (n = 100, k_max = 40) a chunk is 50 seeds drawn in one block,
# and the whole engine's traced peak is about 0.53 MB at 2000 replicates.  At
# n = 6400 and k_max = 24 a chunk is 83 seeds, drawn one at a time.  Larger
# chunks save per-chunk calls but raise the peak memory of a study above that
# of its CSV rendering.
_CHUNK_VALUES = 2 ** 13


def _run_replicates(template: Template, density: ShiftDensity, n: int, epsilon: float,
                    seed: int, replications: int, rules: Sequence[str], m0: int, *,
                    penalty_variant: str) -> _Replicates:
    """The replicate loop behind :func:`mc_risk` and the replication study.

    Replicate ``i`` draws one dataset's column means from
    ``_replicate_seed(seed, i)``, as
    :func:`shiftdecon.simulate.simulate_summary` draws them, on which every
    rule, a criterion kind, picks the cutoff minimizing its criterion over
    ``0..m0`` (``penalty_variant`` goes to
    :func:`~shiftdecon.selection.criterion_trace`; ties go to the smallest
    cutoff).  A cutoff ``N`` scores ``loss[N]``, the replicate's
    :func:`_loss_trace`.  The negative-energy fraction on
    ``|k| <= m0`` is :func:`~shiftdecon.selection.fraction_negative_theta_hat`'s.

    Replicates run in contiguous chunks of ``_CHUNK_VALUES`` values at
    ``2 * (2*k_max + 1)`` per replicate, one chunk after the other in
    replicate order: draw the chunk in blocks of ``_CHUNK_VALUES // n``
    seeds, take its loss trace and its negative-energy fraction once, select
    with one row-wise criterion trace and argmin per rule, and read each
    row's loss at its cutoff.  The ``gamma_band`` and tail energy of the loss
    trace are read once per run.  Every step works row by row, so a
    replicate's results do not depend on its chunk or its block.
    """
    gamma = density.gamma_band(m0)
    tail = _tail_energy(template, m0)
    cutoffs = np.empty((len(rules), replications), dtype=int)
    losses = np.empty((len(rules), replications), dtype=float)
    negative_fractions = np.empty(replications, dtype=float)
    step = max(1, _CHUNK_VALUES // (2 * (2 * template.k_max + 1)))
    block = max(1, _CHUNK_VALUES // n)
    for start in range(0, replications, step):
        chunk = slice(start, min(start + step, replications))
        seeds = [_replicate_seed(seed, i) for i in range(chunk.start, chunk.stop)]
        obs = _draw_summaries(template, density, n, epsilon, seeds, block)
        loss = _loss_trace(template, obs.c_tilde, gamma, tail, epsilon)
        negative_fractions[chunk] = fraction_negative_theta_hat(obs, density, m0)
        for j, rule in enumerate(rules):
            trace = criterion_trace(obs, density, rule, m0, penalty_variant=penalty_variant)
            cutoffs[j, chunk] = np.argmin(trace, axis=-1)
            losses[j, chunk] = np.take_along_axis(loss, cutoffs[j, chunk, None], -1)[:, 0]
        del obs, loss  # so that the next draw does not share the peak with them
    return _Replicates(cutoffs=cutoffs, losses=losses, negative_fractions=negative_fractions)


def _loss_trace(template: Template, c_tilde: np.ndarray, gamma: np.ndarray,
                tail: np.ndarray, epsilon: float) -> np.ndarray:
    """``loss[..., N] = ||theta_hat_N - theta||^2`` of the band-``N``
    estimator for every ``N = 0..m0``, one row per row of ``c_tilde``;
    ``gamma`` is :meth:`ShiftDensity.gamma_band` over ``|k| <= m0`` and
    ``tail`` is ``_tail_energy(template, m0)``.  As the criteria are, it is
    an in-order cumulative sum of per-step pair sums, plus the tail
    ``sum_{|k| > N} |theta_k|^2`` in closed form.  Its expectation is
    :func:`risk_report`'s ``r``."""
    m0 = len(gamma) // 2
    band = slice(template.k_max - m0, template.k_max + m0 + 1)
    with _noise_terms(epsilon):
        error = np.abs(c_tilde[..., band] / gamma - template.coeffs[band]) ** 2
        return np.cumsum(_pair_sums(error, m0), axis=-1) + tail


def mc_risk(template: Template, density: ShiftDensity, n: int, epsilon: float,
            estimator_kind: str, replications: int, seed: int, *,
            m0: Optional[int] = None, workers: int = 1,
            penalty_variant: str = "printed_form") -> McRisk:
    """Monte Carlo estimate of an adaptive estimator's ``E ||theta_hat - theta||^2``.

    Parameters
    ----------
    estimator_kind : {"theta_u", "theta_star", "theta_tilde"}
        The estimator selects its cutoff over ``0..m0`` with its criterion in
        :data:`~shiftdecon.selection.CRITERION_ESTIMATORS`: ``theta_star``
        with the penalized ``u_bar``, ``theta_tilde`` with the plain
        ``u_tilde``, ``theta_u`` with the unbiased ``u``.  A fixed cutoff
        needs no Monte Carlo: :func:`risk_report` and :func:`exact_risk`
        give its risk exactly.
    replications : int
        Number of independent datasets, an integer >= 2 so that a standard
        error exists.
    seed : int
        Base seed, an integer >= 0; replicate ``i`` draws from
        ``numpy.random.SeedSequence(seed, spawn_key=(i,))``.  ``None``, a
        ``bool`` or a float is refused, so every run can be reproduced.
    workers : int
        Must be an integer >= 1.  Replicates run serially, in chunks of
        contiguous seeds in seed order, so the value changes no result.
    """
    rule = _ESTIMATOR_CRITERIA[_check_choice("estimator kind", estimator_kind,
                                             _ESTIMATOR_CRITERIA)]
    seed, replications = _check_replicates(seed, replications)
    n, epsilon = _check_inputs(n, epsilon)
    _check_integer("workers", workers, 1)
    m0 = _cutoff_cap(density, n, template.k_max, m0)
    reps = _run_replicates(template, density, n, epsilon, seed, replications, (rule,), m0,
                           penalty_variant=penalty_variant)
    mean, stderr = _mean_and_stderr(reps.losses[0], epsilon)
    return McRisk(mean=mean, stderr=stderr, losses=reps.losses[0], cutoffs=reps.cutoffs[0])


def oracle_ratio(template: Template, density: ShiftDensity, n: int, epsilon: float,
                 estimator_kind: str, replications: int, seed: int, *,
                 m0: Optional[int] = None, workers: int = 1,
                 penalty_variant: str = "printed_form") -> float:
    """Monte Carlo risk divided by the best theoretical risk ``inf_{N<=m0}``
    of the envelope matching the estimator: ``r_bar`` for ``theta_star``,
    ``r`` for ``theta_tilde`` and ``theta_u``.  ``estimator_kind`` and
    ``workers`` go to :func:`mc_risk`.
    """
    _check_choice("estimator kind", estimator_kind, _ESTIMATOR_CRITERIA)
    _check_replicates(seed, replications)
    m0 = _cutoff_cap(density, n, template.k_max, m0)
    report = risk_report(template, density, n, epsilon, m0)
    denom = float(np.min(report.r_bar if estimator_kind == "theta_star" else report.r))
    if denom == 0.0:
        raise DegenerateInputError(
            "oracle risk is exactly zero (noiseless, fully recoverable template); "
            "the ratio is undefined"
        )
    mc = mc_risk(template, density, n, epsilon, estimator_kind, replications, seed,
                 m0=m0, workers=workers, penalty_variant=penalty_variant)
    return mc.mean / denom


def theoretical_rate_exponent(s: float, beta: float) -> float:
    """Minimax rate exponent ``-2s / (2s + 2*beta + 1)``."""
    s = _check_real("s", s, 0.0, strict=True)
    beta = _check_real("beta", beta, 0.0, strict=False)
    return -2.0 * s / (2.0 * s + 2.0 * beta + 1.0)


def _rate_point(job: tuple) -> tuple:
    """``(mise, stderr)`` of one :func:`rate_study` grid point; ``job`` holds
    :func:`mc_risk`'s positional arguments."""
    mc = mc_risk(*job)
    return mc.mean, mc.stderr


@dataclass(frozen=True)
class RateStudy:
    """Decay of the adaptive estimator's risk along a grid of sample sizes.

    ``fitted_slope`` is the unweighted least-squares slope of ``log(mise)``
    against ``log(n)``.  ``slope_stderr`` is its standard error, propagated
    from each point's ``mise_stderr``: ``fitted_slope`` is a fixed linear
    combination of the ``log(mise)``, whose standard errors are
    ``mise_stderr / mise`` to first order.
    """

    n_grid: np.ndarray
    mise: np.ndarray
    mise_stderr: np.ndarray
    fitted_slope: float
    slope_stderr: float
    theoretical_slope: float
    s: float
    beta: float


def rate_study(s: float, beta: float, radius: float, n_grid: Sequence[int],
               epsilon: float, replications: int, seed: int, *,
               k_max: int = 64, workers: int = 1) -> RateStudy:
    """Measure how the adaptive (plain-criterion) estimator's risk scales with n.

    A deterministic Sobolev-edge template with smoothness ``s`` and ball
    radius ``radius`` is estimated at every size in ``n_grid``; the slope of
    ``log(mise)`` against ``log(n)`` is fit by least squares and reported next
    to the minimax exponent ``-2s/(2s + 2 beta + 1)``.  Each size must be an
    integer >= 1, as for :func:`mc_risk`; none is rounded.  ``seed`` and
    ``replications`` are checked as :func:`mc_risk` checks them, and ``s``,
    ``beta`` and ``radius`` as reals, before any grid point runs.  The shifts
    are point masses for ``beta = 0`` and Laplace(0.1) for ``beta = 2``; no
    other ``beta`` has a built-in density.

    ``workers`` is a process count, an integer >= 1: the grid points run in
    a ``fork`` pool of at most that many processes, capped at the CPUs this
    process may use, largest ``n`` first, each point on its own seed
    ``seed + i``.  Off Linux, or while the caller runs other Python threads,
    they run serially.  Every point is computed as if alone, so the value
    changes no result.
    """
    seed, replications = _check_replicates(seed, replications)
    theoretical_slope = theoretical_rate_exponent(s, beta)
    n_grid_arr = np.array([_check_inputs(n, epsilon)[0] for n in n_grid], dtype=int)
    if n_grid_arr.size < 3:
        raise InvalidParameterError(
            f"n_grid needs at least 3 points for a slope fit, got {n_grid_arr.size}"
        )
    if np.any(np.diff(n_grid_arr) <= 0):
        raise InvalidParameterError("n_grid must be strictly increasing")
    if beta == 0.0:  # a beta with no density is refused before any point runs
        density = point_mass_density()
    elif beta == 2.0:
        density = laplace_density(0.1)
    else:
        raise InvalidParameterError(f"no built-in shift density with polynomial decay "
                                    f"beta={beta} (built-ins cover beta=0 and beta=2)")
    template = sobolev_template(smoothness=s, radius=radius, k_max=k_max)
    jobs = [(template, density, int(n), epsilon, "theta_tilde", replications, seed + i)
            for i, n in enumerate(n_grid_arr)]
    # n_grid increases, so this runs the largest n first
    mise, stderr = np.array(_fork_map(_rate_point, jobs[::-1], workers)[::-1]).T.copy()
    if np.any(mise <= 0.0):
        raise DegenerateInputError("Monte Carlo risk is not positive; cannot fit a log-log slope")
    log_n = np.log(n_grid_arr.astype(float))
    slope = float(np.polyfit(log_n, np.log(mise), 1)[0])
    # fitted_slope = sum(lever * log(mise)), the least-squares slope written out
    lever = (log_n - np.mean(log_n)) / np.sum((log_n - np.mean(log_n)) ** 2)
    slope_stderr = float(np.sqrt(np.sum((lever * stderr / mise) ** 2)))
    return RateStudy(n_grid=n_grid_arr, mise=mise, mise_stderr=stderr,
                     fitted_slope=slope, slope_stderr=slope_stderr,
                     theoretical_slope=theoretical_slope,
                     s=float(s), beta=float(beta))
