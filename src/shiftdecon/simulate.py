"""Sequence-space simulator for randomly shifted, noisy curves.

Each observed curve ``j`` is carried by its Fourier coefficients

    c[j, k] = coeff_k * exp(-2j*pi*k*shift_j) + epsilon * z[j, k]

where the shifts are i.i.d. draws from a shift density and ``z`` is complex
white noise with ``E|z|^2 = 1`` (independent real and imaginary parts, each
``N(0, 1/2)``), independent across curves and across all frequencies.  The
simulation is exact in sequence space; a time-domain sample path exists only
in :func:`render_curves`, which synthesizes curves on a grid for display.

Draw order per dataset is fixed (shifts, then real noise parts, then
imaginary noise parts) so a seed pins the entire dataset bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameterError, InvariantViolationError
from .spectral import ShiftDensity, Template, _synthesize_rows

__all__ = ["SequenceObservations", "simulate", "render_curves", "render_grid"]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True)
class SequenceObservations:
    """One simulated dataset in sequence space.

    Attributes
    ----------
    per_curve : ndarray of complex, shape ``(n, 2*k_max + 1)``
        Row ``j`` holds the coefficients of curve ``j``; column ``i`` is
        frequency ``k = i - k_max``.
    c_tilde : ndarray of complex, shape ``(2*k_max + 1,)``
        Column means of ``per_curve``.
    gamma_tilde : ndarray of complex, shape ``(2*k_max + 1,)``
        Empirical characteristic function of the drawn shifts,
        ``(1/n) sum_j exp(-2j*pi*k*shift_j)``.
    n, epsilon, k_max
        Simulation parameters.
    shifts : ndarray of float or None
        The drawn shifts (kept by default; an estimator never needs them).
    """

    per_curve: np.ndarray
    c_tilde: np.ndarray
    gamma_tilde: np.ndarray
    n: int
    epsilon: float
    k_max: int
    shifts: Optional[np.ndarray] = None

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    def coeff_index(self, k: int) -> int:
        if abs(k) > self.k_max:
            raise InvalidParameterError(f"|k| must be <= k_max={self.k_max}, got {k}")
        return k + self.k_max

    def validate(self) -> None:
        """Re-check structural invariants; raise on violation.

        ``c_tilde`` must equal the column mean of ``per_curve`` bit-for-bit,
        ``gamma_tilde`` must be exactly Hermitian with ``gamma_tilde[0] == 1``
        and magnitudes at most 1 (a 1e-12 rounding slack is allowed on the
        magnitude bound).
        """
        if self.per_curve.shape != (self.n, 2 * self.k_max + 1):
            raise InvariantViolationError("per_curve shape does not match (n, 2*k_max+1)")
        if not np.array_equal(self.per_curve.mean(axis=0), self.c_tilde):
            raise InvariantViolationError("c_tilde is not the exact column mean of per_curve")
        gt = self.gamma_tilde
        if gt.shape != (2 * self.k_max + 1,):
            raise InvariantViolationError("gamma_tilde has the wrong shape")
        if not gt[self.k_max] == 1.0:
            raise InvariantViolationError("gamma_tilde at k=0 must be exactly 1")
        if not np.array_equal(np.conj(gt[::-1]), gt):
            raise InvariantViolationError("gamma_tilde is not exactly Hermitian")
        if float(np.max(np.abs(gt))) > 1.0 + 1e-12:
            raise InvariantViolationError("|gamma_tilde| exceeds 1 beyond rounding slack")


def _resolve_rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def simulate(template: Template, density: ShiftDensity, n: int, epsilon: float,
             seed: SeedLike, *, keep_shifts: bool = True) -> SequenceObservations:
    """Draw one dataset of ``n`` randomly shifted, noisy curves.

    Parameters
    ----------
    template : Template
        True mean pattern; its band ``-k_max..k_max`` fixes the observed band.
    density : ShiftDensity
        Distribution of the random shifts.
    n : int
        Number of curves (>= 1).
    epsilon : float
        Noise level (finite, >= 0); ``epsilon = 0`` gives exact shifted coefficients.
    seed : int, SeedSequence or Generator
        Source of randomness; equal seeds give bit-identical datasets.
    keep_shifts : bool
        Store the drawn shifts on the result (handy for diagnostics).

    Returns
    -------
    SequenceObservations
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (0.0 <= epsilon < math.inf):
        raise InvalidParameterError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    n = int(n)
    k_max = template.k_max
    rng = _resolve_rng(seed)

    shifts = density.sample(rng, n)
    if shifts.shape != (n,):
        raise InvariantViolationError(
            f"density sampler returned shape {shifts.shape}, expected ({n},)"
        )
    width = 2 * k_max + 1
    noise_re = rng.standard_normal((n, width))
    noise_im = rng.standard_normal((n, width))

    # Phase matrix with exact Hermitian symmetry: columns for -k are the
    # conjugates of the columns for +k, and the k=0 column is exactly 1.
    k_pos = np.arange(0, k_max + 1)
    pos = np.exp(-2j * np.pi * np.outer(shifts, k_pos))
    phases = np.empty((n, width), dtype=np.complex128)
    phases[:, k_max:] = pos
    phases[:, :k_max] = np.conj(pos[:, 1:])[:, ::-1]

    noise = (noise_re + 1j * noise_im) * np.sqrt(0.5)
    per_curve = template.coeffs[np.newaxis, :] * phases + epsilon * noise

    return SequenceObservations(
        per_curve=per_curve,
        c_tilde=per_curve.mean(axis=0),
        gamma_tilde=phases.mean(axis=0),
        n=n,
        epsilon=float(epsilon),
        k_max=k_max,
        shifts=shifts if keep_shifts else None,
    )


def render_curves(obs: SequenceObservations, grid_size: int) -> np.ndarray:
    """Synthesize each observed curve on the uniform grid ``x_j = j / grid_size``.

    The coefficients of each curve are Hermitian-symmetrized
    (``0.5 * (c_k + conj(c_{-k}))``) before synthesis, which discards the
    anti-Hermitian half of the complex noise and yields a real path.  A
    noiseless curve with no shift renders exactly as ``synthesize`` of its
    template.

    Returns
    -------
    ndarray of float, shape ``(obs.n, grid_size)``
    """
    sym = 0.5 * (obs.per_curve + np.conj(obs.per_curve[:, ::-1]))
    rows = np.empty((obs.n, grid_size), dtype=float)
    # One row at a time through the shared synthesis helper: identical input
    # coefficients then give bit-identical samples regardless of n.
    for j in range(obs.n):
        rows[j] = _synthesize_rows(sym[j : j + 1], obs.k_max, grid_size)[0].real
    return rows


def render_grid(grid_size: int) -> np.ndarray:
    """Abscissae ``x_j = j / grid_size`` used by :func:`render_curves`."""
    if grid_size < 1:
        raise InvalidParameterError(f"grid_size must be >= 1, got {grid_size}")
    return np.arange(grid_size) / grid_size
