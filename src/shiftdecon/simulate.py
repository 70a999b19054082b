"""Sequence-space simulator for randomly shifted, noisy curves.

Each observed curve ``j`` is carried by its Fourier coefficients

    c[j, k] = coeff_k * exp(-2j*pi*k*shift_j) + epsilon * z[j, k]

where the shifts are i.i.d. draws from a shift density and ``z`` is the
noise of a real curve in white noise, independent across curves: ``z[j, 0]``
is real ``N(0, 1)``; for ``k >= 1`` the real and imaginary parts of
``z[j, k]`` are independent ``N(0, 1/2)``, independent across ``k``; and
``z[j, -k] = conj(z[j, k])``.  So ``E|z|^2 = 1`` at every ``k`` and every
curve's coefficients are exactly Hermitian.  :func:`_noise` is the one
draw of that law.  The simulation is exact in sequence space; a time-domain
sample path exists only in :func:`render_curves`, which synthesizes curves
on a grid for display.

The shift phases are built by recurrence, not by one complex exponential
per ``(j, k)``: ``z_j = exp(-2j*pi*shift_j)`` is computed once per shift,
and row ``k`` of the phases is row ``k - 1`` times ``z`` (one contiguous
multiply per frequency, in :func:`_phase_rows`, the one recurrence).
``gamma_tilde``, the mean of each row, is the simulation's truth: no
estimator reads it.  Both simulators use it:

* :func:`simulate` draws every curve; it keeps every row of the phases, a
  ``(k_max + 1, n)`` array.
* :func:`simulate_summary` draws only what the estimators read, the column
  means.  The mean of ``n`` i.i.d. noise rows of the law above is one row
  of that law scaled by ``1/sqrt(n)``, so after the same shifts it adds one
  ``(2*k_max + 1)`` noise row times ``epsilon/sqrt(n)`` to
  ``coeff_k * gamma_tilde_k`` and keeps the sum, ``c_tilde``: the law of
  :func:`simulate`'s, from its shifts bit for bit but other noise draws.

Every value comes from one counter-based stream per seed: a
``numpy.random.Philox`` generator keyed by
``SeedSequence(seed).generate_state(2, numpy.uint64)``, which gives four
uniforms on ``[0, 1)`` per counter step.  Replicate ``i`` of a Monte Carlo
run owns the run of ``M = _run_length(density, n, k_max)`` uniforms that
starts at counter ``i * M / 4``: ``n * uniforms_per_shift`` for its shifts
(shift ``j`` from its own ``uniforms_per_shift`` of them), then
``2*k_max + 2`` whose Box-Muller normals (the first ``2*k_max + 1`` of
them) make its noise row, then the padding up to a multiple of 4.  So every
replicate consumes the same uniforms, whatever its values.
:func:`simulate` draws replicate 0's shifts, and its per-curve noise, one
row of ``2*k_max + 1`` standard normals per curve, from counter
``2**192``, which no run of replicates reaches.

The Monte Carlo engine in :mod:`shiftdecon.risk` draws the summaries of a
chunk of replicates at a time (``_draw_summaries``), in blocks of
replicates whose size the engine sets from ``n``.  A block keeps only the
mean of each of its phase rows, never ``(k_max + 1) * n`` phases, and each
replicate gets the bytes it gets alone, whatever its chunk and its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameterError, InvariantViolationError
from .spectral import (ShiftDensity, Template, _box_muller, _check_integer, _check_real,
                       _hermitian, _refuse_overflow, _synthesize_rows)

__all__ = ["SequenceSummary", "SequenceObservations", "simulate", "simulate_summary",
           "render_curves", "render_grid"]

SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class SequenceSummary:
    """The column means of one dataset: everything an estimator reads.

    Attributes
    ----------
    c_tilde : ndarray of complex, shape ``(2*k_max + 1,)``
        Averaged coefficients; column ``i`` is frequency ``k = i - k_max``.
    n, epsilon, k_max
        Number of curves, noise level and band half-width.

    A summary may also hold a stack of datasets that share ``n``,
    ``epsilon`` and ``k_max``: ``c_tilde`` then has shape
    ``(..., 2*k_max + 1)``, one dataset per row, as the Monte Carlo engine
    draws them.  The criteria in :mod:`shiftdecon.selection` work row by
    row on such a stack.  Each field is checked when the summary is built.
    """

    c_tilde: np.ndarray
    n: int
    epsilon: float
    k_max: int

    def __post_init__(self):
        k_max = _check_integer("k_max", self.k_max, 0)
        n, epsilon = _check_inputs(self.n, self.epsilon)
        c_tilde = np.asarray(self.c_tilde)
        if c_tilde.shape[-1:] != (2 * k_max + 1,):
            raise InvalidParameterError(
                f"c_tilde must have shape (..., {2 * k_max + 1}), got {c_tilde.shape}")
        if not np.all(np.isfinite(c_tilde)):
            raise InvalidParameterError("c_tilde must be finite")
        vars(self).update(c_tilde=c_tilde, n=n, epsilon=epsilon, k_max=k_max)

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    def coeff_index(self, k: int) -> int:
        return _check_integer("k", k, -self.k_max, self.k_max) + self.k_max


@dataclass(frozen=True, kw_only=True)
class SequenceObservations(SequenceSummary):
    """One dataset in sequence space, every curve included, built as
    ``SequenceObservations(per_curve=..., epsilon=...)``: the curves fix
    ``c_tilde``, their column mean, ``n`` and ``k_max``, which are derived.

    Attributes
    ----------
    per_curve : ndarray of complex, shape ``(n, 2*k_max + 1)``
        Row ``j`` holds the coefficients of curve ``j``: 2-d, with at least
        one row, an odd width and finite values.
    gamma_tilde, shifts : ndarray or None
        The simulation's truth, which :func:`simulate` fills in and no
        estimator reads: the empirical characteristic function of the drawn
        shifts, ``(1/n) sum_j exp(-2j*pi*k*shift_j)``, and the shifts.
    """

    c_tilde: np.ndarray = field(init=False)
    n: int = field(init=False)
    k_max: int = field(init=False)
    per_curve: np.ndarray
    gamma_tilde: Optional[np.ndarray] = None
    shifts: Optional[np.ndarray] = None

    def __post_init__(self):
        per_curve = np.asarray(self.per_curve)
        if per_curve.ndim != 2 or len(per_curve) < 1 or per_curve.shape[1] % 2 != 1:
            raise InvalidParameterError(
                f"per_curve must have shape (n, 2*k_max + 1) with n >= 1, "
                f"got {per_curve.shape}")
        # before the mean, which would warn on an inf or a NaN
        if not np.all(np.isfinite(per_curve)):
            raise InvalidParameterError("per_curve must be finite")
        with _refuse_overflow("the column mean of per_curve overflows"):
            vars(self).update(per_curve=per_curve, c_tilde=per_curve.mean(axis=0),
                              n=len(per_curve), k_max=per_curve.shape[1] // 2)
        super().__post_init__()
        gt = self.gamma_tilde
        if gt is not None and np.shape(gt) != self.c_tilde.shape:
            raise InvalidParameterError(
                f"gamma_tilde must have shape {self.c_tilde.shape}, got {np.shape(gt)}")

    def validate(self) -> None:
        """Check a drawn ``gamma_tilde``, if there is one, and raise on
        violation: it must be exactly Hermitian with ``gamma_tilde[0] == 1``
        and magnitudes at most 1 (a 1e-12 rounding slack is allowed on the
        magnitude bound).  Every other field was checked when it was built.
        """
        gt = self.gamma_tilde
        if gt is None:
            return
        if gt[self.k_max] != 1.0:
            raise InvariantViolationError("gamma_tilde at k=0 must be exactly 1")
        if not np.array_equal(np.conj(gt[::-1]), gt):
            raise InvariantViolationError("gamma_tilde is not exactly Hermitian")
        if float(np.max(np.abs(gt))) > 1.0 + 1e-12:
            raise InvariantViolationError("|gamma_tilde| exceeds 1 beyond rounding slack")


def _check_inputs(n, epsilon) -> tuple:
    """``(n, epsilon)`` as an ``int`` and a ``float``.  ``epsilon * epsilon``
    must be finite (``epsilon ** 2`` would raise ``OverflowError``)."""
    n = _check_integer("n", n, 1)
    epsilon = _check_real("epsilon", epsilon, 0.0, strict=False)
    if not epsilon * epsilon < math.inf:
        raise InvalidParameterError(f"epsilon must have a finite square, got {epsilon!r}")
    return n, epsilon


#: The counter of :func:`simulate`'s per-curve noise: the top word of
#: Philox's four-word counter set to 1, past every replicate's run.
_CURVE_NOISE_COUNTER = 1 << 192


def _stream(seed: SeedLike, counter: int) -> np.random.Generator:
    """The generator of ``seed``'s uniforms from ``counter`` on, four per
    counter step: Philox keyed by the first two 64-bit words of the seed's
    ``SeedSequence`` state.  A seed is a ``SeedSequence`` or an integer >= 0."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(_check_integer("seed", seed, 0, None))
    return np.random.Generator(
        np.random.Philox(key=seed.generate_state(2, np.uint64), counter=counter))


def _run_length(density: ShiftDensity, n: int, k_max: int) -> int:
    """``M``, the uniforms of one replicate: its shifts' and its noise row's,
    padded to a whole Philox counter step of 4."""
    return -(-(n * density.uniforms_per_shift + 2 * k_max + 2) // 4) * 4


def _noise(normals: np.ndarray) -> np.ndarray:
    """One noise row of a real curve per row of ``normals``, i.i.d. standard
    normals of shape ``(..., 2*k_max + 1)``: the band ``-k_max..k_max``,
    exactly Hermitian, with ``E|z_k|^2 = 1`` at every ``k``.

    ``z_0`` is normal 0, real.  For ``k = 1..k_max`` the real part of
    ``z_k`` is normal ``k`` and its imaginary part normal ``k_max + k``,
    each times ``sqrt(1/2)``.  The negative frequencies are the conjugates,
    through :func:`_hermitian`.
    """
    k_max = normals.shape[-1] // 2
    half = np.zeros(normals.shape[:-1] + (k_max + 1,), dtype=np.complex128)
    half.real[..., 0] = normals[..., 0]
    half.real[..., 1:] = math.sqrt(0.5) * normals[..., 1 : k_max + 1]
    half.imag[..., 1:] = math.sqrt(0.5) * normals[..., k_max + 1 :]
    return _hermitian(half)


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
    seed : int or SeedSequence
        Source of randomness; equal seeds give bit-identical datasets.  An
        integer must be >= 0; ``None`` and a ``Generator`` are refused.  The
        shifts are replicate 0's of a Monte Carlo run at the seed, as in
        :func:`simulate_summary`; the per-curve noise is :func:`_noise` of
        one row of standard normals per curve from the seed's stream at
        counter ``2**192``.

    Returns
    -------
    SequenceObservations
    """
    n, epsilon = _check_inputs(n, epsilon)
    k_max = template.k_max

    shifts = density.sample(_stream(seed, 0).random((n, density.uniforms_per_shift)))
    pos = _draw_phases(shifts, k_max)
    noise = _noise(_stream(seed, _CURVE_NOISE_COUNTER).standard_normal((n, 2 * k_max + 1)))
    per_curve = template.coeffs[np.newaxis, :] * _hermitian(pos.T) + epsilon * noise

    return SequenceObservations(per_curve=per_curve, epsilon=epsilon,
                                gamma_tilde=_mean_phase(pos.mean(axis=-1)), shifts=shifts)


def simulate_summary(template: Template, density: ShiftDensity, n: int,
                     epsilon: float, seed: SeedLike) -> SequenceSummary:
    """Draw the column means of one dataset of ``n`` curves, not the curves.

    Takes the arguments of :func:`simulate` and draws the same shifts from the
    same seed, so their ``gamma_tilde`` is bit-identical to :func:`simulate`'s.
    Then ``c_tilde_k = coeff_k * gamma_tilde_k + (epsilon/sqrt(n)) xi_k``
    with one :func:`_noise` row ``xi`` of Box-Muller normals from the
    uniforms after the shifts: replicate 0 of a Monte Carlo run at the seed.  The cost is
    ``k_max`` rows of ``n`` phases, made one at a time, instead of
    :func:`simulate`'s ``n x (2*k_max + 1)`` noise.
    """
    stack = _draw_summaries(template, density, n, epsilon, seed, 0, 1, 1)
    return replace(stack, c_tilde=stack.c_tilde[0])


def _draw_summaries(template: Template, density: ShiftDensity, n: int, epsilon: float,
                    seed: SeedLike, start: int, rows: int, block: int) -> SequenceSummary:
    """The column means of replicates ``start .. start + rows - 1`` of a run
    at ``seed``, stacked in replicate order; :func:`simulate_summary` is
    replicate 0 alone.

    One generator, set to replicate ``start``'s counter, draws the
    replicates' uniforms in blocks of ``block`` replicates, ``(block, M)``
    per call.  In a block the noise rows come from the Box-Muller normals of
    each replicate's noise uniforms and the shifts from its shift uniforms; the phases of the block
    are then made one frequency at a time, a ``(block, n)`` row each, and
    only each row's mean is kept.  Every later step is elementwise or
    reduces one row, so row ``i`` does not depend on the other replicates or
    on ``block``.
    """
    n, epsilon = _check_inputs(n, epsilon)
    k_max = template.k_max
    per_shift = density.uniforms_per_shift
    width = n * per_shift
    run = _run_length(density, n, k_max)
    generator = _stream(seed, start * run // 4)
    half = np.empty((rows, k_max + 1), dtype=np.complex128)
    noise = np.empty((rows, 2 * k_max + 1), dtype=np.complex128)
    for first in range(0, rows, block):
        stop = min(first + block, rows)
        uniforms = generator.random((stop - first, run))
        normals = _box_muller(uniforms[:, width : width + 2 * k_max + 2])
        noise[first:stop] = _noise(normals[:, : 2 * k_max + 1])
        shifts = density.sample(uniforms[:, :width].reshape(stop - first, n, per_shift))
        del uniforms  # so that the phases do not share the peak with them
        half[first:stop] = _phase_means(shifts, k_max)

    c_tilde = template.coeffs * _mean_phase(half) + (epsilon / math.sqrt(n)) * noise
    return SequenceSummary(c_tilde=c_tilde, n=n, epsilon=epsilon, k_max=k_max)


def render_curves(obs: SequenceObservations, grid_size: int) -> np.ndarray:
    """Synthesize each observed curve on the uniform grid ``x_j = j / grid_size``.

    Each curve renders its Hermitian part (``0.5 * (c_k + conj(c_{-k}))``)
    by its own inverse FFT.  A drawn curve's coefficients are exactly
    Hermitian, so that drops only rounding: :func:`~shiftdecon.spectral.analyze`
    of a rendered curve gives back its coefficients to rounding.  A noiseless
    curve with no shift renders exactly as ``synthesize`` of its template.

    Returns
    -------
    ndarray of float, shape ``(obs.n, grid_size)``
    """
    return _synthesize_rows(obs.per_curve, obs.k_max, grid_size)


def render_grid(grid_size: int) -> np.ndarray:
    """Abscissae ``x_j = j / grid_size`` used by :func:`render_curves`."""
    grid_size = _check_integer("grid_size", grid_size, 1)
    return np.arange(grid_size) / grid_size
