"""Cutoff selection and spectral estimation.

Implements the coefficient-energy estimator ``theta_hat_squared``, the three
selection criteria (unbiased risk ``u``, penalized ``u_bar``, plain quadratic
``u_tilde``), the frequency cap ``m0``, and the resulting cutoff selection and
deconvolution estimators.

Writing ``t_k = |c_tilde_k|^2 - epsilon^2/n`` and ``L = log^2(n)/n`` (natural
log by default), the criteria over the band ``|k| <= N`` are

    u:       -(1 - 1/n) sum t_k/|g_k|^2 + (eps^2/n) sum 1/|g_k|^2 + (1/n) sum t_k/|g_k|^4
    u_bar:   -            sum t_k/|g_k|^2 + (eps^2/n) sum 1/|g_k|^2 +   L   sum t_k/|g_k|^4
    u_tilde: -            sum t_k/|g_k|^2 + (eps^2/n) sum 1/|g_k|^2

As written, ``u_bar``'s penalty summand ``t_k/|g_k|^4`` is
``penalty_variant="proof_form"``, the form that makes the penalty an
estimate of ``L sum |theta_k|^2/|g_k|^2``.  The default, ``"printed_form"``
(also the default of the configuration and the CLI), has the summand
``(|c_tilde_k| - eps^2/n)/|g_k|^2``.  The cap ``m0`` is one below the first
``k`` with ``|g_k|^2 <= L``.

Every function here reads a dataset only through its column means
(``c_tilde``, ``n``, ``epsilon``, ``k_max``), so it takes a
:class:`~shiftdecon.simulate.SequenceSummary`: the summary-only draw or a
full :class:`~shiftdecon.simulate.SequenceObservations`.
:func:`fraction_negative_theta_hat`, :func:`criterion_increments` and
:func:`criterion_trace` also take a stack of summaries (``c_tilde`` of shape
``(..., 2*k_max + 1)``) and answer row by row, each row bit for bit as if
alone: one dataset is the one-row case of the same formula.  The Monte
Carlo engine selects a whole chunk of replicates this way.

Every criterion is assembled from per-frequency increments and accumulated
with a sequential cumulative sum, so the telescoping identity
``criterion(N) == criterion(N-1) + increment(N)`` holds exactly in floating
point, not just approximately.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import InvalidParameterError
from .simulate import SequenceSummary
from .spectral import ShiftDensity, _pair_sums, _synthesize_rows

__all__ = [
    "CRITERION_ESTIMATORS",
    "CRITERION_KINDS",
    "ESTIMATE_KINDS",
    "PENALTY_VARIANTS",
    "M0Result",
    "CutoffSelection",
    "SpectralEstimate",
    "compute_m0",
    "theta_hat_squared",
    "fraction_negative_theta_hat",
    "criterion_increments",
    "criterion_trace",
    "select_cutoff",
    "estimate",
]

# The estimator each criterion selects the cutoff of.
CRITERION_ESTIMATORS = {"u": "theta_u", "u_bar": "theta_star", "u_tilde": "theta_tilde"}
CRITERION_KINDS = tuple(CRITERION_ESTIMATORS)
ESTIMATE_KINDS = (*CRITERION_ESTIMATORS.values(), "fixed_n")
PENALTY_VARIANTS = ("proof_form", "printed_form")


class M0Result(NamedTuple):
    """Frequency cap: value, whether the scan hit ``k_max`` without crossing,
    and the threshold that was used."""

    value: int
    saturated: bool
    threshold: float


def log_squared_over_n(n: int, log_base: float = math.e) -> float:
    """``log^2(n) / n`` in the requested base (natural by default)."""
    if not (log_base > 1.0):
        raise InvalidParameterError(f"log_base must be > 1, got {log_base}")
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    return (math.log(n) / math.log(log_base)) ** 2 / n


def compute_m0(density: ShiftDensity, n: int, k_max: int, *,
               log_base: float = math.e) -> M0Result:
    """Largest usable cutoff: one below the first ``k`` with
    ``|gamma_k|^2 <= log^2(n)/n``.

    Scans ``k = 1..k_max``; if no frequency crosses the threshold the value
    saturates at ``k_max`` and the result is flagged accordingly.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if k_max < 1:
        raise InvalidParameterError(f"k_max must be >= 1, got {k_max}")
    threshold = log_squared_over_n(n, log_base)
    mags2 = np.abs(density.gamma(np.arange(1, k_max + 1))) ** 2
    crossed = np.nonzero(mags2 <= threshold)[0]
    if crossed.size == 0:
        return M0Result(value=k_max, saturated=True, threshold=threshold)
    return M0Result(value=int(crossed[0]), saturated=False, threshold=threshold)


def _cutoff_cap(density: ShiftDensity, n: int, k_max: int, m0: Optional[int],
                log_base: float) -> int:
    """The cap of every cutoff search: ``m0``, or :func:`compute_m0`'s value
    when it is ``None``; in ``0..k_max`` either way."""
    if m0 is None:
        m0 = compute_m0(density, n, k_max, log_base=log_base).value
    if not (0 <= m0 <= k_max):
        raise InvalidParameterError(f"m0 must be in 0..{k_max}, got {m0}")
    return int(m0)


@contextmanager
def _noise_terms(epsilon: float):
    """Refuse ``epsilon`` if a noise term ``epsilon**2/(n |gamma_k|^2)`` of the
    block, a ``|gamma_k|^4`` penalty term or a band sum of them overflows: a
    finite ``epsilon**2`` does not keep them finite."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise InvalidParameterError(
            f"epsilon={epsilon!r} is too large: its noise terms overflow") from None


def theta_hat_squared(obs: SequenceSummary, density: ShiftDensity,
                      k: int) -> float:
    """Unbiased estimate ``(|c_tilde_k|^2 - eps^2/n) / |gamma_k|^2`` of
    ``|theta_k|^2``; may be negative, deliberately unclipped.

    ``gamma_k`` is read from :meth:`ShiftDensity.gamma_band` over ``|k'| <= |k|``,
    so, as for every band estimate, a vanishing eigenvalue anywhere on that
    band raises :class:`~shiftdecon.errors.VanishingEigenvalueError`.
    """
    if abs(k) > obs.k_max:
        raise InvalidParameterError(f"|k| must be <= k_max={obs.k_max}, got {k}")
    g2 = float(np.abs(density.gamma_band(abs(k))[k + abs(k)]) ** 2)
    c = obs.c_tilde[obs.coeff_index(k)]
    return float((abs(c) ** 2 - obs.epsilon ** 2 / obs.n) / g2)


def fraction_negative_theta_hat(obs: SequenceSummary, density: ShiftDensity,
                                n_max: int) -> Union[float, np.ndarray]:
    """Diagnostic: fraction of frequencies ``|k| <= n_max`` whose
    coefficient-energy estimate is negative (i.e. where clipping at zero
    would have altered the criteria).

    A ``float`` for one dataset; for a stack, an array with one fraction per
    row.
    """
    if not (0 <= n_max <= obs.k_max):
        raise InvalidParameterError(f"n_max must be in 0..{obs.k_max}, got {n_max}")
    g2 = np.abs(density.gamma_band(n_max)) ** 2
    sl = slice(obs.k_max - n_max, obs.k_max + n_max + 1)
    with _noise_terms(obs.epsilon):
        t = np.abs(obs.c_tilde[..., sl]) ** 2 - obs.epsilon ** 2 / obs.n
        fraction = np.count_nonzero(t / g2 < 0.0, axis=-1) / (2 * n_max + 1)
    return float(fraction) if fraction.ndim == 0 else fraction


def criterion_increments(obs: SequenceSummary, density: ShiftDensity,
                         kind: str, n_max: int, *,
                         log_base: float = math.e,
                         penalty_variant: str = "printed_form") -> np.ndarray:
    """Per-step criterion increments ``inc[..., 0..n_max]``, one row per
    dataset of a stack.

    ``inc[0]`` is the ``k = 0`` term and ``inc[N]`` (``N >= 1``) is the summed
    contribution of ``k = +N`` and ``k = -N``, so the criterion at cutoff
    ``N`` is the cumulative sum of ``inc[0..N]``.
    """
    if kind not in CRITERION_KINDS:
        raise InvalidParameterError(f"unknown criterion kind {kind!r}; expected one of {CRITERION_KINDS}")
    if penalty_variant not in PENALTY_VARIANTS:
        raise InvalidParameterError(
            f"unknown penalty_variant {penalty_variant!r}; expected one of {PENALTY_VARIANTS}"
        )
    if not (0 <= n_max <= obs.k_max):
        raise InvalidParameterError(
            f"n_max must be in 0..{obs.k_max}, got {n_max}"
        )
    n = obs.n
    g2 = np.abs(density.gamma_band(n_max)) ** 2
    sl = slice(obs.k_max - n_max, obs.k_max + n_max + 1)
    c_abs = np.abs(obs.c_tilde[..., sl])
    noise_floor = obs.epsilon ** 2 / n

    with _noise_terms(obs.epsilon):
        t = c_abs ** 2 - noise_floor
        if kind == "u":
            per_k = (-(1.0 - 1.0 / n) * t / g2 + noise_floor / g2
                     + (1.0 / n) * t / (g2 * g2))
        elif kind == "u_bar":
            level = log_squared_over_n(n, log_base)
            if penalty_variant == "proof_form":
                pen = level * t / (g2 * g2)
            else:
                pen = level * (c_abs - noise_floor) / g2
            per_k = -t / g2 + noise_floor / g2 + pen
        else:  # u_tilde
            per_k = -t / g2 + noise_floor / g2
        return _pair_sums(per_k, n_max)


def criterion_trace(obs: SequenceSummary, density: ShiftDensity,
                    kind: str, n_max: int, **options) -> np.ndarray:
    """Criterion values for every cutoff ``N = 0..n_max`` (sequential sum),
    one row per dataset of a stack."""
    increments = criterion_increments(obs, density, kind, n_max, **options)
    with _noise_terms(obs.epsilon):
        return np.cumsum(increments, axis=-1)


@dataclass(frozen=True)
class CutoffSelection:
    """Result of minimizing a criterion over ``N = 0..m0``."""

    chosen_n: int
    m0: int
    criterion_values: np.ndarray
    criterion_kind: str

    def __post_init__(self):
        values = np.asarray(self.criterion_values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "criterion_values", values)
        if not (0 <= self.chosen_n <= self.m0):
            raise InvalidParameterError(
                f"chosen_n={self.chosen_n} outside 0..m0={self.m0}"
            )
        if values.shape != (self.m0 + 1,):
            raise InvalidParameterError(
                f"criterion_values must have length m0+1={self.m0 + 1}, got {values.shape}"
            )


def select_cutoff(obs: SequenceSummary, density: ShiftDensity,
                  kind: str = "u_bar", *,
                  m0: Optional[int] = None,
                  log_base: float = math.e,
                  penalty_variant: str = "printed_form") -> CutoffSelection:
    """Minimize a criterion over cutoffs ``0..m0``.

    ``m0`` defaults to :func:`compute_m0` for the density at the observed
    ``(n, k_max)``; pass an explicit value to override.  Ties are broken
    toward the smallest cutoff (the most regularized choice).
    """
    m0 = _cutoff_cap(density, obs.n, obs.k_max, m0, log_base)
    trace = criterion_trace(obs, density, kind, m0, log_base=log_base,
                            penalty_variant=penalty_variant)
    chosen = int(np.argmin(trace))  # argmin returns the first (smallest-N) minimum
    return CutoffSelection(chosen_n=chosen, m0=m0,
                           criterion_values=trace, criterion_kind=kind)


@dataclass(frozen=True)
class SpectralEstimate:
    """Deconvolution estimate: ``c_tilde_k / gamma_k`` on ``|k| <= cutoff``,
    zero beyond."""

    coeffs: np.ndarray
    cutoff: int
    k_max: int
    kind: str

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape != (2 * self.k_max + 1,):
            raise InvalidParameterError(
                f"coeffs must have length {2 * self.k_max + 1}, got {coeffs.shape}"
            )
        if not (0 <= self.cutoff <= self.k_max):
            raise InvalidParameterError(
                f"cutoff must be in 0..{self.k_max}, got {self.cutoff}"
            )

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    def render(self, grid_size: int) -> np.ndarray:
        """Real part of the synthesized estimate on ``x_j = j / grid_size``:
        the synthesis of its Hermitian part."""
        return _synthesize_rows(self.coeffs[np.newaxis, :], self.k_max, grid_size)[0]


def estimate(obs: SequenceSummary, density: ShiftDensity, cutoff: int,
             kind: str = "fixed_n") -> SpectralEstimate:
    """Deconvolve the averaged coefficients on the symmetric band ``|k| <= cutoff``."""
    if kind not in ESTIMATE_KINDS:
        raise InvalidParameterError(f"unknown estimate kind {kind!r}; expected one of {ESTIMATE_KINDS}")
    if not (0 <= cutoff <= obs.k_max):
        raise InvalidParameterError(f"cutoff must be in 0..{obs.k_max}, got {cutoff}")
    gam = density.gamma_band(cutoff)
    coeffs = np.zeros(2 * obs.k_max + 1, dtype=np.complex128)
    sl = slice(obs.k_max - cutoff, obs.k_max + cutoff + 1)
    coeffs[sl] = obs.c_tilde[sl] / gam
    return SpectralEstimate(coeffs=coeffs, cutoff=int(cutoff), k_max=obs.k_max,
                            kind=kind)
