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

The engine works on contiguous chunks of seeds, one chunk after the other
in seed order, so its memory does not grow with the number of replicates.
Per chunk it runs three steps:

* draw: every seed's shifts and noise from its own generator, then the
  phases of the whole chunk at once;
* select: one row-wise criterion trace (a cumulative sum) and one argmin per
  rule, with the criteria of :mod:`shiftdecon.selection`;
* score: the losses of the rows that chose the same cutoff, summed together
  over equal-width rows.

Each step treats a replicate's row as if it were alone, so results are
bit-identical for any chunking and any ``workers`` value.

``workers`` is a number of processes.  ``_fork_map`` runs independent units
in a ``fork`` pool of at most ``workers`` processes, capped at the units and
at the CPUs this process may use, and returns their results in unit order;
the units are :func:`rate_study`'s grid points.  Off Linux, or while the
caller runs other Python threads, the units run serially in this process.
The replicate engine always runs in this process: at 200 replicates a
pool's start-up costs more than the split saves.  ``workers`` never changes
a result.
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
from .spectral import (ShiftDensity, Template, _pair_sums, _tail_energy, laplace_density,
                       point_mass_density)

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
    n = _check_inputs(n, epsilon)
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
    if cutoff < 0:
        raise InvalidParameterError(f"cutoff must be >= 0, got {cutoff}")
    report = risk_report(template, density, n, epsilon, cutoff)
    return report.point(cutoff)


class McRisk(NamedTuple):
    """Monte Carlo risk summary; ``losses``/``cutoffs`` are per-replicate, in
    replicate order."""

    mean: float
    stderr: float
    losses: np.ndarray
    cutoffs: np.ndarray


def _replicate_seeds(seed: int, replications: int) -> list:
    """The seed of every replicate: ``replications`` substreams spawned from
    ``seed``.  At least 2, so that a standard error exists."""
    if replications < 2:
        raise InvalidParameterError(f"replications must be >= 2, got {replications}")
    return np.random.SeedSequence(seed).spawn(replications)


def _mean_and_stderr(losses: np.ndarray, epsilon: float) -> tuple:
    """Monte Carlo mean of per-replicate ``losses`` and its standard error;
    ``epsilon`` is refused if the squared deviations of its losses overflow."""
    with _noise_terms(epsilon):
        return (float(np.mean(losses)),
                float(np.std(losses, ddof=1) / math.sqrt(losses.size)))


def _check_workers(workers) -> int:
    """``workers``, a process count, as an int; it must be an integer >= 1."""
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise InvalidParameterError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    return int(workers)


def _pool_size(workers, units: int) -> int:
    """Processes for ``units`` independent units of work: ``workers`` capped at
    ``units`` and at the CPUs this process may run on.  It is 1 off Linux,
    where ``fork`` is unavailable, and while the calling process runs other
    Python threads, which a forked child could find holding a lock."""
    size = min(_check_workers(workers), units)
    if size <= 1 or sys.platform != "linux":
        return min(size, 1)
    import multiprocessing  # only a pool needs it, so the package imports without it
    import threading
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    return min(size, len(os.sched_getaffinity(0)))


# The work of a pool process, ``(fn, units)``.  The pool's initializer sets it
# in each child; under ``fork`` the initializer's arguments are inherited, not
# pickled, so ``fn`` may be a closure.  It stays ``None`` in the parent.
_pool_job = None


def _set_pool_job(job) -> None:
    global _pool_job
    _pool_job = job


def _run_pool_unit(index: int):
    fn, units = _pool_job
    return fn(units[index])


def _fork_map(fn, units: Sequence, workers) -> list:
    """``[fn(unit) for unit in units]``, in unit order.

    The units run in a ``fork`` pool of ``_pool_size(workers, len(units))``
    processes, or serially in this process when that is 1.  Only unit indices
    and results cross between processes.  An exception raised by ``fn`` in a
    pool process is raised here, with its type and message; a pool process
    that dies raises ``BrokenProcessPool``.
    """
    size = _pool_size(workers, len(units))
    if size <= 1:
        return [fn(unit) for unit in units]
    import concurrent.futures
    import multiprocessing
    with concurrent.futures.ProcessPoolExecutor(
            size, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_pool_job, initargs=((fn, units),)) as pool:
        return list(pool.map(_run_pool_unit, range(len(units))))


class _Replicates(NamedTuple):
    """Per-replicate results in seed order, row ``j`` for the ``j``-th rule;
    ``traces`` are the rules' criteria over ``0..m0`` on replicate 0 only."""

    cutoffs: np.ndarray
    losses: np.ndarray
    negative_fractions: np.ndarray
    traces: np.ndarray


# Phases held by one chunk of the draw, (k_max + 1) per curve: 2**15 complex
# values are 512 kB, whatever the number of replicates.  A larger chunk
# raises the peak memory of a study above that of its CSV rendering.
_CHUNK_PHASES = 2 ** 15


def _run_replicates(template: Template, density: ShiftDensity, n: int,
                    epsilon: float, seeds: Sequence[np.random.SeedSequence],
                    rules: Sequence[str], m0: int, *, workers: int,
                    **options) -> _Replicates:
    """The replicate loop behind :func:`mc_risk` and the replication study.

    Each seed gives one dataset's column means, as
    :func:`shiftdecon.simulate.simulate_summary` draws them, on which every
    rule, a criterion kind, picks the cutoff minimizing its criterion over
    ``0..m0`` (``options`` go to :func:`criterion_trace`; ties go to the
    smallest cutoff) and keeps the criterion of replicate 0, which the study
    writes to ``traces.csv``.  A cutoff ``N`` scores ``||theta_hat - theta||^2``
    of the band-``N`` estimator, its tail ``sum_{|k| > N} |theta_k|^2`` taken
    in closed form.  The negative-energy fraction on ``|k| <= m0`` is
    :func:`fraction_negative_theta_hat`'s.

    Seeds run in contiguous chunks of at most ``_CHUNK_PHASES`` phases, one
    chunk after the other in seed order: draw the chunk, select with one
    row-wise criterion trace and argmin per rule, score the rows that share
    a cutoff together.  Every step works row by row, so a replicate's
    results do not depend on its chunk.  ``workers`` is checked (an integer
    >= 1) and changes nothing: the chunks run in this process, because a
    pool's start-up costs more than it saves at the usual 100 to 200
    replicates.
    """
    _check_workers(workers)
    gamma = density.gamma_band(m0)
    tail = _tail_energy(template, m0)
    cutoffs = np.empty((len(rules), len(seeds)), dtype=int)
    losses = np.empty((len(rules), len(seeds)), dtype=float)
    negative_fractions = np.empty(len(seeds), dtype=float)
    traces = np.empty((len(rules), m0 + 1), dtype=float)
    step = max(1, _CHUNK_PHASES // ((template.k_max + 1) * n))
    for start in range(0, len(seeds), step):
        chunk = slice(start, start + step)
        obs = _draw_summaries(template, density, n, epsilon, seeds[chunk])
        negative_fractions[chunk] = fraction_negative_theta_hat(obs, density, m0)
        for j, rule in enumerate(rules):
            trace = criterion_trace(obs, density, rule, m0, **options)
            if start == 0:
                traces[j] = trace[0]
            cutoffs[j, chunk] = np.argmin(trace, axis=-1)
            with _noise_terms(epsilon):
                losses[j, chunk] = _score(template, obs.c_tilde, cutoffs[j, chunk],
                                          gamma, tail, m0)
    return _Replicates(cutoffs=cutoffs, losses=losses,
                       negative_fractions=negative_fractions, traces=traces)


def _score(template: Template, c_tilde: np.ndarray, cutoffs: np.ndarray,
           gamma: np.ndarray, tail: np.ndarray, m0: int) -> np.ndarray:
    """Loss of the band-``cutoffs[i]`` estimator on row ``i`` of ``c_tilde``;
    ``gamma`` spans ``|k| <= m0`` and ``tail`` is ``_tail_energy(template, m0)``.
    The rows sharing a cutoff are summed in one call over equal-width rows."""
    k_max = template.k_max
    losses = np.empty(len(cutoffs), dtype=float)
    for cutoff in set(cutoffs.tolist()):
        rows = np.flatnonzero(cutoffs == cutoff)
        band = slice(k_max - cutoff, k_max + cutoff + 1)
        theta_hat = c_tilde[rows, band] / gamma[m0 - cutoff : m0 + cutoff + 1]
        diff = theta_hat - template.coeffs[band]
        losses[rows] = np.sum(np.abs(diff) ** 2, axis=1) + tail[cutoff]
    return losses


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
        Number of independent datasets (>= 2 so a standard error exists).
    seed : int
        Base seed; replicate ``i`` runs on the ``i``-th spawned substream.
    workers : int
        Must be an integer >= 1.  Replicates run serially, in chunks of
        contiguous seeds in seed order, so the value changes no result.
    """
    if estimator_kind not in _ESTIMATOR_CRITERIA:
        raise InvalidParameterError(f"unknown estimator kind {estimator_kind!r}; "
                                    f"expected one of {tuple(_ESTIMATOR_CRITERIA)}")
    seeds = _replicate_seeds(seed, replications)
    _check_inputs(n, epsilon)
    m0 = _cutoff_cap(density, n, template.k_max, m0)
    reps = _run_replicates(template, density, n, epsilon, seeds,
                           (_ESTIMATOR_CRITERIA[estimator_kind],), m0,
                           workers=workers, penalty_variant=penalty_variant)
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
    if not (s > 0.0):
        raise InvalidParameterError(f"s must be > 0, got {s}")
    if not (beta >= 0.0):
        raise InvalidParameterError(f"beta must be >= 0, got {beta}")
    return -2.0 * s / (2.0 * s + 2.0 * beta + 1.0)


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
    to the minimax exponent ``-2s/(2s + 2 beta + 1)``.  The shifts are
    point masses for ``beta = 0`` and Laplace(0.1) for ``beta = 2``; no
    other ``beta`` has a built-in density.

    ``workers`` is a process count, an integer >= 1: the grid points run in
    a ``fork`` pool of at most that many processes, capped at the CPUs this
    process may use, largest ``n`` first, each point on its own seed
    ``seed + i``.  Off Linux, or while the caller runs other Python threads,
    they run serially.  Every point is computed as if alone, so the value
    changes no result.
    """
    n_grid_arr = np.asarray(list(n_grid), dtype=int)
    if n_grid_arr.size < 3:
        raise InvalidParameterError(
            f"n_grid needs at least 3 points for a slope fit, got {n_grid_arr.size}"
        )
    if np.any(np.diff(n_grid_arr) <= 0):
        raise InvalidParameterError("n_grid must be strictly increasing")
    if beta == 0.0:
        density = point_mass_density()
    elif beta == 2.0:
        density = laplace_density(0.1)
    else:
        raise InvalidParameterError(
            f"no built-in shift density with polynomial decay beta={beta} "
            f"(built-ins cover beta=0 and beta=2)"
        )
    template = sobolev_template(smoothness=s, radius=radius, k_max=k_max)

    def point(i):
        mc = mc_risk(template, density, int(n_grid_arr[i]), epsilon, "theta_tilde",
                     replications, seed + i)
        return mc.mean, mc.stderr

    # n_grid increases, so this runs the largest n first
    order = range(n_grid_arr.size - 1, -1, -1)
    mise, stderr = np.array(_fork_map(point, order, workers)[::-1]).T.copy()
    if np.any(mise <= 0.0):
        raise DegenerateInputError("Monte Carlo risk is not positive; cannot fit a log-log slope")
    log_n = np.log(n_grid_arr.astype(float))
    slope = float(np.polyfit(log_n, np.log(mise), 1)[0])
    # fitted_slope = sum(lever * log(mise)), the least-squares slope written out
    lever = (log_n - np.mean(log_n)) / np.sum((log_n - np.mean(log_n)) ** 2)
    slope_stderr = float(np.sqrt(np.sum((lever * stderr / mise) ** 2)))
    return RateStudy(n_grid=n_grid_arr, mise=mise, mise_stderr=stderr,
                     fitted_slope=slope, slope_stderr=slope_stderr,
                     theoretical_slope=theoretical_rate_exponent(s, beta),
                     s=float(s), beta=float(beta))
