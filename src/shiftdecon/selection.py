"""Cutoff selection and spectral estimation.

Implements the coefficient-energy estimator ``theta_hat_squared``, the three
selection criteria (unbiased risk ``u``, penalized ``u_bar``, plain quadratic
``u_tilde``), the frequency cap ``m0``, and the resulting cutoff selection and
deconvolution estimators.

Writing ``t_k = |c_tilde_k|^2 - epsilon^2/n`` and ``L = log^2(n)/n`` (natural
log), the criteria over the band ``|k| <= N`` are

    u:       -(1 - 1/n) sum t_k/|g_k|^2 + (eps^2/n) sum 1/|g_k|^2 + (1/n) sum t_k/|g_k|^4
    u_bar:   -            sum t_k/|g_k|^2 + (eps^2/n) sum 1/|g_k|^2 +   L   sum t_k/|g_k|^4
    u_tilde: -            sum t_k/|g_k|^2 + (eps^2/n) sum 1/|g_k|^2

As written, ``u_bar``'s penalty summand ``t_k/|g_k|^4`` is
``penalty_variant="proof_form"``, the form that makes the penalty an
estimate of ``L sum |theta_k|^2/|g_k|^2``.  The default, ``"printed_form"``
(also the default of the configuration and the CLI), has the summand
``(|c_tilde_k| - eps^2/n)/|g_k|^2``.  The cap ``m0`` is one below the first
``k`` with ``|g_k|^2 <= L``.

``t_k`` over a band has one kernel, ``_band_energy``; :func:`theta_hat_squared`
is its scalar reference.  At ``n = 1``, ``L`` is 0: ``u_bar`` has no
penalty, and the cap saturates at ``k_max`` unless a ``g_k`` is exactly 0.

Every function here reads a dataset only through its column means
(``c_tilde``, ``n``, ``epsilon``, ``k_max``), so it takes a
:class:`~shiftdecon.simulate.SequenceSummary`: the summary-only draw or a
full :class:`~shiftdecon.simulate.SequenceObservations`.  None reads the
shifts or their ``gamma_tilde``: each divides by the known ``gamma_k``.
:func:`fraction_negative_theta_hat`, :func:`criterion_increments` and
:func:`criterion_trace` also take a stack of summaries (``c_tilde`` of shape
``(..., 2*k_max + 1)``) and answer row by row, each row bit for bit as if
alone: one dataset is the one-row case of the same formula.  The Monte
Carlo engine selects a whole chunk of replicates this way.
:func:`theta_hat_squared`, :func:`select_cutoff` and :func:`estimate` answer
for one dataset and refuse a stack before any arithmetic.

Every criterion is assembled from per-frequency increments and accumulated
with a sequential cumulative sum, so the telescoping identity
``criterion(N) == criterion(N-1) + increment(N)`` holds exactly in floating
point, not just approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import InvalidParameterError
from .simulate import SequenceSummary, _check_inputs
from .spectral import (ShiftDensity, _check_choice, _check_integer, _pair_sums,
                       _refuse_overflow, _synthesize_rows)

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


def log_squared_over_n(n: int) -> float:
    """``log^2(n) / n``, natural log: the cap threshold and the penalty level;
    0.0 at ``n = 1``."""
    n, _ = _check_inputs(n, 0.0)
    return math.log(n) ** 2 / n


def compute_m0(density: ShiftDensity, n: int, k_max: int) -> M0Result:
    """Largest usable cutoff: one below the first ``k`` with
    ``|gamma_k|^2 <= log^2(n)/n``.

    Reads :meth:`ShiftDensity.gamma` on ``k = 0..k_max``, so ``gamma_0`` is
    checked too, and scans ``k = 1..k_max``; if no frequency crosses the
    threshold the value saturates at ``k_max`` and the result is flagged
    accordingly.
    """
    k_max = _check_integer("k_max", k_max, 1)
    threshold = log_squared_over_n(n)
    mags2 = np.abs(density.gamma(np.arange(k_max + 1))) ** 2
    crossed = np.nonzero(mags2[1:] <= threshold)[0]
    if crossed.size == 0:
        return M0Result(value=k_max, saturated=True, threshold=threshold)
    return M0Result(value=int(crossed[0]), saturated=False, threshold=threshold)


def _cutoff_cap(density: ShiftDensity, n: int, k_max: int, m0: Optional[int]) -> int:
    """The cap of every cutoff search: ``m0``, or :func:`compute_m0`'s value
    when it is ``None``; in ``0..k_max`` either way."""
    if m0 is None:
        m0 = compute_m0(density, n, k_max).value
    return _check_integer("m0", m0, 0, k_max)


def _one_dataset(obs: SequenceSummary) -> None:
    """Refuse a stack of summaries where one dataset is read."""
    if obs.c_tilde.ndim != 1:
        raise InvalidParameterError(
            f"expected one dataset, got a stack: c_tilde has shape {obs.c_tilde.shape}")


def _noise_terms(epsilon: float):
    """Refuse ``epsilon`` if a noise term ``epsilon**2/(n |gamma_k|^2)`` of the
    block, a ``|gamma_k|^4`` penalty term or a band sum of them overflows: a
    finite ``epsilon**2`` does not keep them finite."""
    return _refuse_overflow(f"epsilon={epsilon!r} is too large: its noise terms overflow")


def theta_hat_squared(obs: SequenceSummary, density: ShiftDensity,
                      k: int) -> float:
    """Unbiased estimate ``(|c_tilde_k|^2 - eps^2/n) / |gamma_k|^2`` of
    ``|theta_k|^2``; may be negative, deliberately unclipped.

    ``gamma_k`` is read from :meth:`ShiftDensity.gamma_band` over ``|k'| <= |k|``,
    so, as for every band estimate, a vanishing eigenvalue anywhere on that
    band raises :class:`~shiftdecon.errors.VanishingEigenvalueError`.
    ``|c|`` is Python's ``abs``, which may differ from ``np.abs`` in the last bit.
    """
    _one_dataset(obs)
    k = _check_integer("k", k, -obs.k_max, obs.k_max)
    g2 = float(np.abs(density.gamma_band(abs(k))[k + abs(k)]) ** 2)
    c = obs.c_tilde[obs.coeff_index(k)]
    return float((abs(c) ** 2 - obs.epsilon ** 2 / obs.n) / g2)


def _band_energy(obs: SequenceSummary, density: ShiftDensity, n_max: int) -> tuple:
    """``(|c_tilde_k|, t_k, |gamma_k|^2)`` on ``|k| <= n_max``, row by row,
    once ``n_max`` is checked: all that the criteria and the diagnostic read."""
    n_max = _check_integer("n_max", n_max, 0, obs.k_max)
    g2 = np.abs(density.gamma_band(n_max)) ** 2
    c_abs = np.abs(obs.c_tilde[..., obs.k_max - n_max : obs.k_max + n_max + 1])
    with _noise_terms(obs.epsilon):
        return c_abs, c_abs ** 2 - obs.epsilon ** 2 / obs.n, g2


def fraction_negative_theta_hat(obs: SequenceSummary, density: ShiftDensity,
                                n_max: int) -> Union[float, np.ndarray]:
    """Diagnostic: fraction of frequencies ``|k| <= n_max`` whose
    coefficient-energy estimate is negative (i.e. where clipping at zero
    would have altered the criteria).

    A ``float`` for one dataset; for a stack, an array with one fraction per
    row.
    """
    _, t, g2 = _band_energy(obs, density, n_max)
    with _noise_terms(obs.epsilon):
        fraction = np.count_nonzero(t / g2 < 0.0, axis=-1) / g2.size
    return float(fraction) if fraction.ndim == 0 else fraction


def criterion_increments(obs: SequenceSummary, density: ShiftDensity,
                         kind: str, n_max: int, *,
                         penalty_variant: str = "printed_form") -> np.ndarray:
    """Per-step criterion increments ``inc[..., 0..n_max]``, one row per
    dataset of a stack.

    ``inc[0]`` is the ``k = 0`` term and ``inc[N]`` (``N >= 1``) is the summed
    contribution of ``k = +N`` and ``k = -N``, so the criterion at cutoff
    ``N`` is the cumulative sum of ``inc[0..N]``.
    """
    c_abs, t, g2 = _band_energy(obs, density, n_max)
    kind = _check_choice("criterion kind", kind, CRITERION_KINDS)
    penalty_variant = _check_choice("penalty_variant", penalty_variant, PENALTY_VARIANTS)
    n, epsilon = obs.n, obs.epsilon
    noise_floor = epsilon ** 2 / n

    with _noise_terms(epsilon):
        if kind == "u":
            per_k = (-(1.0 - 1.0 / n) * t / g2 + noise_floor / g2
                     + (1.0 / n) * t / (g2 * g2))
        elif kind == "u_bar":
            level = log_squared_over_n(n)
            if penalty_variant == "proof_form":
                pen = level * t / (g2 * g2)
            else:
                pen = level * (c_abs - noise_floor) / g2
            per_k = -t / g2 + noise_floor / g2 + pen
        else:  # u_tilde
            per_k = -t / g2 + noise_floor / g2
        return _pair_sums(per_k, len(g2) // 2)


def criterion_trace(obs: SequenceSummary, density: ShiftDensity, kind: str, n_max: int, *,
                    penalty_variant: str = "printed_form") -> np.ndarray:
    """Criterion values for every cutoff ``N = 0..n_max`` (sequential sum),
    one row per dataset of a stack."""
    increments = criterion_increments(obs, density, kind, n_max,
                                      penalty_variant=penalty_variant)
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
        m0 = _check_integer("m0", self.m0, 0)
        object.__setattr__(self, "m0", m0)
        values = np.asarray(self.criterion_values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "criterion_values", values)
        object.__setattr__(self, "chosen_n", _check_integer("chosen_n", self.chosen_n, 0, m0))
        object.__setattr__(self, "criterion_kind",
                           _check_choice("criterion kind", self.criterion_kind, CRITERION_KINDS))
        if values.shape != (m0 + 1,):
            raise InvalidParameterError(
                f"criterion_values must have length m0+1={m0 + 1}, got {values.shape}"
            )


def select_cutoff(obs: SequenceSummary, density: ShiftDensity,
                  kind: str = "u_bar", *,
                  m0: Optional[int] = None,
                  penalty_variant: str = "printed_form") -> CutoffSelection:
    """Minimize a criterion over cutoffs ``0..m0``.

    ``m0`` defaults to :func:`compute_m0` for the density at the observed
    ``(n, k_max)``; pass an explicit value to override.  Ties are broken
    toward the smallest cutoff (the most regularized choice).
    """
    _one_dataset(obs)
    m0 = _cutoff_cap(density, obs.n, obs.k_max, m0)
    trace = criterion_trace(obs, density, kind, m0, penalty_variant=penalty_variant)
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
        k_max = _check_integer("k_max", self.k_max, 0)
        object.__setattr__(self, "k_max", k_max)
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape != (2 * k_max + 1,):
            raise InvalidParameterError(
                f"coeffs must have length {2 * k_max + 1}, got {coeffs.shape}"
            )
        object.__setattr__(self, "cutoff", _check_integer("cutoff", self.cutoff, 0, k_max))
        object.__setattr__(self, "kind", _check_choice("estimate kind", self.kind, ESTIMATE_KINDS))

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
    _one_dataset(obs)
    cutoff = _check_integer("cutoff", cutoff, 0, obs.k_max)
    gam = density.gamma_band(cutoff)
    coeffs = np.zeros(2 * obs.k_max + 1, dtype=np.complex128)
    sl = slice(obs.k_max - cutoff, obs.k_max + cutoff + 1)
    coeffs[sl] = obs.c_tilde[sl] / gam
    return SpectralEstimate(coeffs=coeffs, cutoff=cutoff, k_max=obs.k_max,
                            kind=kind)
