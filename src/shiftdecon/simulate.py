"""Sequence-space simulator for randomly shifted, noisy curves.

Each observed curve ``j`` is carried by its Fourier coefficients

    c[j, k] = coeff_k * exp(-2j*pi*k*shift_j) + epsilon * z[j, k]

where the shifts are i.i.d. draws from a shift density and ``z`` is complex
white noise with ``E|z|^2 = 1`` (independent real and imaginary parts, each
``N(0, 1/2)``), independent across curves and across all frequencies.  The
simulation is exact in sequence space; a time-domain sample path exists only
in :func:`render_curves`, which synthesizes curves on a grid for display.

The shift phases are built by recurrence, not by one complex exponential
per ``(j, k)``: ``z_j = exp(-2j*pi*shift_j)`` is computed once per shift,
and row ``k`` of the phases is row ``k - 1`` times ``z`` (one contiguous
multiply per frequency, in :func:`_phase_rows`, the one recurrence).
``gamma_tilde`` is the mean of each row.  Both simulators use it:

* :func:`simulate` draws every curve (shifts, then real noise parts, then
  imaginary noise parts, each ``n x (2*k_max + 1)``) and averages them; it
  keeps every row of the phases, a ``(k_max + 1, n)`` array.
* :func:`simulate_summary` draws only what the estimators read, the column
  means.  The mean of ``n`` i.i.d. ``CN(0, 1)`` noise rows is exactly
  ``CN(0, 1/n)``, so after the same shifts it adds one ``(2*k_max + 1)``
  vector of ``CN(0, epsilon^2/n)`` noise to ``coeff_k * gamma_tilde_k``.
  It gives the same ``gamma_tilde`` as :func:`simulate` at the same seed,
  bit for bit, and a ``c_tilde`` with the same law but from other draws.

The Monte Carlo engine in :mod:`shiftdecon.risk` draws summaries a chunk
of seeds at a time (``_draw_summaries``): each seed's shifts and noise come
from its own generator in the order above.  The phases of the whole chunk
are then streamed, one ``(seeds, n)`` row per frequency, and only each
row's mean is kept, so the chunk holds ``n + 2*k_max + 1`` values per seed
rather than ``(k_max + 1) * n``.  Every step after the draw is elementwise
or reduces one row, so each seed gets the bytes :func:`simulate_summary`
gives it alone.

Draw order per dataset is fixed, so a seed pins the entire dataset
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidParameterError, InvariantViolationError
from .spectral import (ShiftDensity, Template, _check_integer, _check_real, _hermitian,
                       _synthesize_rows)

__all__ = ["SequenceSummary", "SequenceObservations", "simulate", "simulate_summary",
           "render_curves", "render_grid"]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True)
class SequenceSummary:
    """The column means of one dataset: everything an estimator reads.

    Attributes
    ----------
    c_tilde : ndarray of complex, shape ``(2*k_max + 1,)``
        Averaged coefficients; column ``i`` is frequency ``k = i - k_max``.
    gamma_tilde : ndarray of complex, shape ``(2*k_max + 1,)``
        Empirical characteristic function of the drawn shifts,
        ``(1/n) sum_j exp(-2j*pi*k*shift_j)``.
    n, epsilon, k_max
        Simulation parameters.

    A summary may also hold a stack of datasets that share ``n``,
    ``epsilon`` and ``k_max``: ``c_tilde`` and ``gamma_tilde`` then have
    shape ``(..., 2*k_max + 1)``, one dataset per row, as the Monte Carlo
    engine draws them.  The criteria in :mod:`shiftdecon.selection` work row
    by row on such a stack.
    """

    c_tilde: np.ndarray
    gamma_tilde: np.ndarray
    n: int
    epsilon: float
    k_max: int

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    def coeff_index(self, k: int) -> int:
        return _check_integer("k", k, -self.k_max, self.k_max) + self.k_max

    def validate(self) -> None:
        """Re-check structural invariants, on every row of a stack; raise on
        violation.

        ``c_tilde`` and ``gamma_tilde`` must span the band, and
        ``gamma_tilde`` must be exactly Hermitian with ``gamma_tilde[0] == 1``
        and magnitudes at most 1 (a 1e-12 rounding slack is allowed on the
        magnitude bound).
        """
        if self.c_tilde.shape[-1:] != (2 * self.k_max + 1,):
            raise InvariantViolationError("c_tilde has the wrong shape")
        gt = self.gamma_tilde
        if gt.shape != self.c_tilde.shape:
            raise InvariantViolationError("gamma_tilde has the wrong shape")
        if not np.all(gt[..., self.k_max] == 1.0):
            raise InvariantViolationError("gamma_tilde at k=0 must be exactly 1")
        if not np.array_equal(np.conj(gt[..., ::-1]), gt):
            raise InvariantViolationError("gamma_tilde is not exactly Hermitian")
        if float(np.max(np.abs(gt))) > 1.0 + 1e-12:
            raise InvariantViolationError("|gamma_tilde| exceeds 1 beyond rounding slack")


@dataclass(frozen=True)
class SequenceObservations(SequenceSummary):
    """One simulated dataset in sequence space, every curve included.

    Attributes
    ----------
    per_curve : ndarray of complex, shape ``(n, 2*k_max + 1)``
        Row ``j`` holds the coefficients of curve ``j``; ``c_tilde`` is its
        column mean.
    shifts : ndarray of float or None
        The drawn shifts (:func:`simulate` keeps them; an estimator never
        needs them, so a hand-built dataset may leave them out).
    """

    per_curve: np.ndarray
    shifts: Optional[np.ndarray] = None

    def validate(self) -> None:
        """As :meth:`SequenceSummary.validate`, and ``c_tilde`` must also
        equal the column mean of ``per_curve`` bit-for-bit."""
        if self.per_curve.shape != (self.n, 2 * self.k_max + 1):
            raise InvariantViolationError("per_curve shape does not match (n, 2*k_max+1)")
        if not np.array_equal(self.per_curve.mean(axis=0), self.c_tilde):
            raise InvariantViolationError("c_tilde is not the exact column mean of per_curve")
        super().validate()


def _check_inputs(n, epsilon) -> tuple:
    """``(n, epsilon)`` as an ``int`` and a ``float``.  ``epsilon * epsilon``
    must be finite (``epsilon ** 2`` would raise ``OverflowError``)."""
    n = _check_integer("n", n, 1)
    epsilon = _check_real("epsilon", epsilon, 0.0, strict=False)
    if not epsilon * epsilon < math.inf:
        raise InvalidParameterError(f"epsilon must have a finite square, got {epsilon!r}")
    return n, epsilon


def _check_seed(seed) -> SeedLike:
    """A ``SeedSequence`` or ``Generator`` as it is, else an integer >= 0."""
    if isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        return seed
    return _check_integer("seed", seed, 0, None)


def _draw_shifts(density: ShiftDensity, rng: np.random.Generator, n: int) -> np.ndarray:
    """The first draw of every dataset: ``n`` shifts."""
    shifts = density.sample(rng, n)
    if shifts.shape != (n,):
        raise InvariantViolationError(
            f"density sampler returned shape {shifts.shape}, expected ({n},)"
        )
    return shifts


def _phase_rows(shifts: np.ndarray, k_max: int):
    """Yield the phases ``exp(-2j*pi*k*shifts)`` for ``k = 1..k_max``, one
    row of shape ``shifts.shape`` at a time; at ``k = 0`` they are exactly 1.

    ``z = exp(-2j*pi*shifts)`` is the only exponential; row ``k`` is a new
    array, row ``k - 1`` times ``z``.  Row ``k`` differs from ``np.exp`` by
    rounding that grows with ``k`` (about ``2e-13`` at ``k = 256``).
    """
    row = z = np.exp(-2j * np.pi * shifts)
    yield z
    for _ in range(2, k_max + 1):
        row = row * z
        yield row


def _draw_phases(shifts: np.ndarray, k_max: int) -> np.ndarray:
    """The phases for ``k = 0..k_max`` in one array, shape
    ``(k_max + 1,) + shifts.shape``: the per-curve draw needs them all."""
    pos = np.empty((k_max + 1,) + shifts.shape, dtype=np.complex128)
    pos[0] = 1.0
    for k, row in enumerate(_phase_rows(shifts, k_max), start=1):
        pos[k] = row
    return pos


def _phase_means(shifts: np.ndarray, k_max: int) -> np.ndarray:
    """The mean over the curves (the last axis) of each row of
    :func:`_phase_rows`, with ``k = 0..k_max`` moved last.  The rows are
    never stored together: ``z`` and two rows exist at a time."""
    half = np.ones(shifts.shape[:-1] + (k_max + 1,), dtype=np.complex128)
    for k, row in enumerate(_phase_rows(shifts, k_max), start=1):
        half[..., k] = np.add.reduce(row, axis=-1)
    # numpy's mean, whose bits the per-curve draw gets: the sum, then a
    # division by the count; one division for all rows saves a call per row
    np.true_divide(half[..., 1:], shifts.shape[-1], out=half[..., 1:])
    return half


def _mean_phase(half: np.ndarray) -> np.ndarray:
    """``gamma_tilde`` from the means of the phase rows over the curves,
    ``k = 0..k_max`` on the last axis: extended to the full band.

    The ``k = 0`` phases are exactly 1, and so is their mean; numpy's complex
    mean multiplies the sum by ``1/n``, which rounds below 1 at some ``n``
    (49, 98, 103, ...).  Conjugating a mean gives the mean of the conjugated
    row bit for bit, except for the sign of a zero: a numpy sum is never
    ``-0.0``, its conjugate can be.  Adding ``0.0`` turns ``-0.0`` into
    ``0.0`` and leaves every other value as it is.  Each mean reduces one
    contiguous row of one dataset, so it does not depend on how many
    datasets were drawn with it.
    """
    half[..., 0] = 1.0
    return _hermitian(half) + 0.0


def simulate(template: Template, density: ShiftDensity, n: int, epsilon: float,
             seed: SeedLike) -> SequenceObservations:
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
        Source of randomness; equal seeds give bit-identical datasets.  An
        integer must be >= 0; ``None``, which would not reproduce, is refused.

    Returns
    -------
    SequenceObservations
    """
    n, epsilon = _check_inputs(n, epsilon)
    k_max = template.k_max
    rng = np.random.default_rng(_check_seed(seed))

    shifts = _draw_shifts(density, rng, n)
    pos = _draw_phases(shifts, k_max)
    width = 2 * k_max + 1
    noise_re = rng.standard_normal((n, width))
    noise_im = rng.standard_normal((n, width))

    noise = (noise_re + 1j * noise_im) * np.sqrt(0.5)
    per_curve = template.coeffs[np.newaxis, :] * _hermitian(pos.T) + epsilon * noise

    return SequenceObservations(
        per_curve=per_curve,
        c_tilde=per_curve.mean(axis=0),
        gamma_tilde=_mean_phase(pos.mean(axis=-1)),
        n=n,
        epsilon=epsilon,
        k_max=k_max,
        shifts=shifts,
    )


def simulate_summary(template: Template, density: ShiftDensity, n: int,
                     epsilon: float, seed: SeedLike) -> SequenceSummary:
    """Draw the column means of one dataset of ``n`` curves, not the curves.

    Takes the arguments of :func:`simulate` and draws the same shifts from the
    same seed, so ``gamma_tilde`` is bit-identical to :func:`simulate`'s.
    Then ``c_tilde_k = coeff_k * gamma_tilde_k + (epsilon/sqrt(n)) xi_k``
    with one ``(2*k_max + 1)`` vector of i.i.d. ``CN(0, 1)`` noise ``xi``
    (real parts, then imaginary parts), independent across all frequencies,
    ``-k`` and ``+k`` included.  The cost is ``k_max`` rows of ``n`` phases,
    made one at a time, instead of :func:`simulate`'s ``n x (2*k_max + 1)``
    draws.
    """
    stack = _draw_summaries(template, density, n, epsilon, [_check_seed(seed)])
    return SequenceSummary(c_tilde=stack.c_tilde[0], gamma_tilde=stack.gamma_tilde[0],
                           n=stack.n, epsilon=stack.epsilon, k_max=stack.k_max)


def _draw_summaries(template: Template, density: ShiftDensity, n: int,
                    epsilon: float, seeds: Sequence[SeedLike]) -> SequenceSummary:
    """The column means of one dataset per seed, stacked in seed order;
    :func:`simulate_summary` is the one-seed case.

    Each seed's generator draws its shifts, then its real and imaginary noise
    parts.  The phases of all seeds are then made one frequency at a time, a
    ``(len(seeds), n)`` row each, and only each row's mean is kept.  Every
    later step is elementwise or reduces one row, so row ``i`` does not
    depend on the other seeds.
    """
    n, epsilon = _check_inputs(n, epsilon)
    k_max = template.k_max
    width = 2 * k_max + 1
    shifts = np.empty((len(seeds), n))
    noise_re = np.empty((len(seeds), width))
    noise_im = np.empty((len(seeds), width))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        shifts[i] = _draw_shifts(density, rng, n)
        noise_re[i] = rng.standard_normal(width)
        noise_im[i] = rng.standard_normal(width)

    gamma_tilde = _mean_phase(_phase_means(shifts, k_max))
    noise = (noise_re + 1j * noise_im) * np.sqrt(0.5)
    return SequenceSummary(
        c_tilde=template.coeffs * gamma_tilde + (epsilon / math.sqrt(n)) * noise,
        gamma_tilde=gamma_tilde,
        n=n,
        epsilon=epsilon,
        k_max=k_max,
    )


def render_curves(obs: SequenceObservations, grid_size: int) -> np.ndarray:
    """Synthesize each observed curve on the uniform grid ``x_j = j / grid_size``.

    Each curve renders its Hermitian part (``0.5 * (c_k + conj(c_{-k}))``),
    which discards the anti-Hermitian half of the complex noise and yields a
    real path.  A noiseless curve with no shift renders exactly as
    ``synthesize`` of its template.

    Returns
    -------
    ndarray of float, shape ``(obs.n, grid_size)``
    """
    return _synthesize_rows(obs.per_curve, obs.k_max, grid_size)


def render_grid(grid_size: int) -> np.ndarray:
    """Abscissae ``x_j = j / grid_size`` used by :func:`render_curves`."""
    grid_size = _check_integer("grid_size", grid_size, 1)
    return np.arange(grid_size) / grid_size
