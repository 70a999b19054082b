"""Fourier-side machinery: templates, shift densities, synthesis, analysis.

Conventions used throughout the package:

* analysis kernel ``exp(-2j*pi*k*x)``: the coefficient of a 1-periodic
  function ``f`` at frequency ``k`` is ``integral_0^1 f(x) exp(-2j*pi*k*x) dx``;
* synthesis kernel ``exp(+2j*pi*k*x)``: ``f(x) = sum_k coeff_k exp(+2j*pi*k*x)``;
* coefficients live on the symmetric index range ``-k_max .. k_max`` and are
  stored in a flat complex array of length ``2*k_max + 1``; entry ``i`` holds
  frequency ``k = i - k_max``.

Every curve is real, so every :class:`Template` is exactly Hermitian,
``coeff(-k) == conj(coeff(k))``: each band the package builds comes from its
``k >= 0`` half through one mirror, :func:`_hermitian`.  Spectra that need not be Hermitian (a
noisy curve's coefficients, a deconvolution estimate) are synthesized through
their Hermitian part ``0.5 * (c_k + conj(c_{-k}))``, the coefficients of the
curve's real part; :func:`_synthesize_rows` is the one synthesis path.

A shift density is represented by its characteristic function evaluated on the
integers, ``gamma_k = E exp(-2j*pi*k*tau)``, together with a sampler for the
shifts themselves and an optional declared polynomial-decay envelope for
``|gamma_k|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (AliasingError, InvalidParameterError, InvariantViolationError,
                     VanishingEigenvalueError)

__all__ = [
    "Template",
    "DecayProfile",
    "ShiftDensity",
    "DecayCheck",
    "laplace_density",
    "gaussian_density",
    "uniform_density",
    "point_mass_density",
    "verify_polynomial_decay",
    "synthesize",
    "analyze",
]

#: ``|gamma_k|^2`` at or below this (machine epsilon) counts as a vanishing
#: eigenvalue: inverting it would amplify rounding noise past any signal.
EIGENVALUE_FLOOR = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Template:
    """A real 1-periodic function stored as Fourier coefficients on ``-k_max..k_max``.

    The coefficients must be exactly Hermitian, ``coeff(-k) == conj(coeff(k))``,
    which is what makes the function real.

    Parameters
    ----------
    coeffs : ndarray of complex, shape ``(2*k_max + 1,)``
        Coefficient at frequency ``k`` sits at index ``k + k_max``.
    k_max : int
        Largest frequency carried (at least 1).
    label : str
        Free-form name used in reports and CSV output.
    """

    coeffs: np.ndarray
    k_max: int
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.k_max, (int, np.integer)) or self.k_max < 1:
            raise InvalidParameterError(f"k_max must be an integer >= 1, got {self.k_max!r}")
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (2 * self.k_max + 1,):
            raise InvalidParameterError(
                f"coeffs must have shape ({2 * self.k_max + 1},) for k_max={self.k_max}, "
                f"got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise InvalidParameterError("coeffs must be finite")
        if not np.array_equal(np.conj(coeffs[::-1]), coeffs):
            raise InvariantViolationError(
                "template coefficients are not exactly Hermitian "
                "(coeff(-k) != conj(coeff(k)))"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "k_max", int(self.k_max))

    @property
    def k_values(self) -> np.ndarray:
        """Frequencies ``-k_max..k_max`` aligned with ``coeffs``."""
        return np.arange(-self.k_max, self.k_max + 1)

    def coeff(self, k: int) -> complex:
        """Coefficient at a single frequency ``k``."""
        if abs(k) > self.k_max:
            raise InvalidParameterError(f"|k| must be <= k_max={self.k_max}, got {k}")
        return complex(self.coeffs[k + self.k_max])

    @property
    def norm_squared(self) -> float:
        """Squared L2 norm, ``sum_k |coeff_k|^2`` (Parseval)."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def sobolev_norm_squared(self, smoothness: float) -> float:
        """``sum_k (1 + |k|^{2s}) |coeff_k|^2`` for smoothness ``s``."""
        k = np.abs(self.k_values).astype(float)
        return float(np.sum((1.0 + k ** (2.0 * smoothness)) * np.abs(self.coeffs) ** 2))

    @staticmethod
    def from_harmonics(dc: float, cosines, sines, k_max: int, label: str = "") -> "Template":
        """Build a real template from cosine/sine amplitudes at ``k = 1..len``.

        ``f(x) = dc + sum_k cosines[k-1] cos(2 pi k x) + sines[k-1] sin(2 pi k x)``.
        """
        cosines = np.asarray(cosines, dtype=float)
        sines = np.asarray(sines, dtype=float)
        if cosines.shape != sines.shape or cosines.ndim != 1:
            raise InvalidParameterError("cosines and sines must be 1-d arrays of equal length")
        if len(cosines) > k_max:
            raise InvalidParameterError(
                f"harmonic list of length {len(cosines)} does not fit k_max={k_max}"
            )
        half = np.zeros(k_max + 1, dtype=np.complex128)
        half[0] = dc
        half[1 : 1 + len(cosines)] = (cosines - 1j * sines) / 2.0
        return Template(coeffs=_hermitian(half), k_max=k_max, label=label)


@dataclass(frozen=True)
class DecayProfile:
    """Declared two-sided polynomial envelope for ``|gamma_k|``.

    Asserts ``c_min * |k|**-beta <= |gamma_k| <= c_max * |k|**-beta`` for all
    ``k != 0``.
    """

    beta: float
    c_min: float
    c_max: float

    def __post_init__(self):
        if not (self.beta >= 0.0):
            raise InvalidParameterError(f"beta must be >= 0, got {self.beta}")
        if not (0.0 < self.c_min <= self.c_max):
            raise InvalidParameterError(
                f"need 0 < c_min <= c_max, got c_min={self.c_min}, c_max={self.c_max}"
            )


@dataclass(frozen=True)
class ShiftDensity:
    """A distribution of random shifts, seen through its Fourier transform.

    Attributes
    ----------
    gamma_fn : callable
        Vectorized map from integer frequencies to the complex values
        ``gamma_k = E exp(-2j*pi*k*tau)``.
    sampler : callable
        ``sampler(rng, size)`` draws that many shifts with the given
        ``numpy.random.Generator``.
    decay : DecayProfile or None
        Declared polynomial envelope for ``|gamma_k|``; ``None`` when no honest
        two-sided polynomial bound exists (e.g. super-polynomial decay, or
        zeros of ``gamma``).
    label : str
        Free-form name.
    """

    gamma_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    sampler: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False)
    decay: Optional[DecayProfile] = None
    label: str = ""

    def gamma(self, k) -> np.ndarray:
        """Fourier coefficient(s) of the shift density at frequencies ``k``."""
        k_arr = np.asarray(k)
        out = np.asarray(self.gamma_fn(k_arr), dtype=np.complex128)
        return out

    def gamma_band(self, k_max: int) -> np.ndarray:
        """``gamma_k`` for ``k = -k_max..k_max`` as a flat array, safe to invert.

        Raises
        ------
        VanishingEigenvalueError
            If some ``|gamma_k|^2`` on the band is at or below
            :data:`EIGENVALUE_FLOOR`.
        """
        if k_max < 0:
            raise InvalidParameterError(f"k_max must be >= 0, got {k_max}")
        gam = self.gamma(np.arange(-k_max, k_max + 1))
        g2 = np.abs(gam) ** 2
        vanishing = np.flatnonzero(g2 <= EIGENVALUE_FLOOR)
        if vanishing.size:
            at = vanishing[0]
            raise VanishingEigenvalueError(
                f"|gamma_k|^2 = {float(g2[at]):.3e} at k={int(at) - k_max} is at "
                f"or below EIGENVALUE_FLOOR = {EIGENVALUE_FLOOR:.3e}; the "
                f"frequency cannot be inverted"
            )
        return gam

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` shifts."""
        return np.asarray(self.sampler(rng, size), dtype=float)


def laplace_density(sigma: float) -> ShiftDensity:
    """Centered Laplace shifts with standard deviation ``sigma``.

    The density is ``(1 / (sqrt(2) sigma)) exp(-sqrt(2) |x| / sigma)``, so
    ``gamma_k = 1 / (1 + 2 sigma^2 pi^2 k^2)``: polynomial decay of degree 2
    with exact envelope constants ``1/(2 sigma^2 pi^2 + 1)`` and
    ``1/(2 sigma^2 pi^2)``.
    """
    coef = 2.0 * sigma * sigma * math.pi * math.pi
    if not (0.0 < sigma and 0.0 < coef < math.inf):  # the envelope divides by coef
        raise InvalidParameterError(f"sigma and 2 pi^2 sigma^2 must be finite and > 0, got {sigma}")
    scale = sigma / math.sqrt(2.0)

    def gamma_fn(k):
        return (1.0 / (1.0 + coef * np.square(k.astype(float)))).astype(np.complex128)

    def sampler(rng, size):
        return rng.laplace(0.0, scale, size)

    decay = DecayProfile(beta=2.0, c_min=1.0 / (coef + 1.0), c_max=1.0 / coef)
    return ShiftDensity(gamma_fn=gamma_fn, sampler=sampler, decay=decay,
                        label=f"laplace(sigma={sigma})")


def gaussian_density(sigma: float) -> ShiftDensity:
    """Centered Gaussian shifts; ``gamma_k = exp(-2 pi^2 k^2 sigma^2)``.

    Decays faster than any polynomial, so no decay profile is declared.
    """
    coef = 2.0 * math.pi * math.pi * sigma * sigma
    if not (0.0 < sigma and 0.0 < coef < math.inf):
        raise InvalidParameterError(f"sigma and 2 pi^2 sigma^2 must be finite and > 0, got {sigma}")

    def gamma_fn(k):
        return np.exp(-coef * np.square(k.astype(float))).astype(np.complex128)

    def sampler(rng, size):
        return rng.normal(0.0, sigma, size)

    return ShiftDensity(gamma_fn=gamma_fn, sampler=sampler, decay=None,
                        label=f"gaussian(sigma={sigma})")


def uniform_density(half_width: float) -> ShiftDensity:
    """Uniform shifts on ``[-a, a]``; ``gamma_k = sin(2 pi k a) / (2 pi k a)``.

    ``gamma`` has zeros whenever ``2 k a`` is a nonzero integer, so no
    two-sided polynomial envelope is declared.  Those zeros are returned as
    exact ``0`` (``np.sinc`` alone leaves rounding residue of order 1e-17).
    """
    if not (0.0 < half_width and 2.0 * half_width < math.inf):
        raise InvalidParameterError(
            f"half_width must be finite and > 0, and 2 * half_width finite, got {half_width}")
    a = float(half_width)

    def gamma_fn(k):
        x = 2.0 * a * k.astype(float)
        zero = (x == np.round(x)) & (x != 0.0)
        return np.where(zero, 0.0, np.sinc(x)).astype(np.complex128)

    def sampler(rng, size):
        return rng.uniform(-a, a, size)

    return ShiftDensity(gamma_fn=gamma_fn, sampler=sampler, decay=None,
                        label=f"uniform(half_width={half_width})")


def point_mass_density() -> ShiftDensity:
    """Degenerate density with all mass at 0: ``gamma_k = 1``, shifts are 0.

    Useful as the no-shift limit; the declared decay profile is the trivial
    ``beta = 0`` envelope with constants 1.
    """

    def gamma_fn(k):
        return np.ones(np.shape(k), dtype=np.complex128)

    def sampler(rng, size):
        return np.zeros(size, dtype=float)

    return ShiftDensity(gamma_fn=gamma_fn, sampler=sampler,
                        decay=DecayProfile(beta=0.0, c_min=1.0, c_max=1.0),
                        label="point_mass")


class DecayCheck(NamedTuple):
    """Result of a polynomial-decay verification scan."""

    ok: bool
    violating_k: Optional[int]


def verify_polynomial_decay(density: ShiftDensity, k_max: int) -> DecayCheck:
    """Check the declared envelope ``c_min |k|^-beta <= |gamma_k| <= c_max |k|^-beta``.

    Scans ``k = 1, -1, 2, -2, ..`` up to ``|k| = k_max`` and reports the first
    violating frequency, or ``(True, None)`` when every check passes.

    Raises
    ------
    InvalidParameterError
        If ``k_max < 1`` or the density declares no decay profile.
    """
    if k_max < 1:
        raise InvalidParameterError(f"k_max must be >= 1, got {k_max}")
    if density.decay is None:
        raise InvalidParameterError(
            f"density {density.label!r} declares no polynomial decay profile"
        )
    prof = density.decay
    for k in range(1, k_max + 1):
        envelope = float(k) ** (-prof.beta)
        lo = prof.c_min * envelope
        hi = prof.c_max * envelope
        for signed_k in (k, -k):
            mag = float(np.abs(density.gamma(signed_k)))
            if not (lo <= mag <= hi):
                return DecayCheck(ok=False, violating_k=signed_k)
    return DecayCheck(ok=True, violating_k=None)


def _hermitian(half: np.ndarray) -> np.ndarray:
    """Extend values for ``k = 0..k_max`` (last axis) to ``-k_max..k_max`` with
    exact Hermitian symmetry: ``-k`` holds the conjugate of ``+k``.

    The mirror conjugates the complex upper half it has just written, not
    ``half`` itself: a real ``half`` then gives ``-0.0`` imaginary parts on
    the negative side, as the conjugate of a complex value does.
    """
    k_max = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * k_max + 1,), dtype=np.complex128)
    full[..., k_max:] = half
    full[..., :k_max] = np.conj(full[..., :k_max:-1])
    return full


def _pair_sums(values: np.ndarray, half: int) -> np.ndarray:
    """Collapse a symmetric band array (last axis of length ``2*half + 1``,
    center index ``half``) into per-step sums: entry 0 is the k=0 value,
    entry N >= 1 is value(+N) + value(-N)."""
    out = np.empty(values.shape[:-1] + (half + 1,), dtype=float)
    out[..., 0] = values[..., half]
    if half >= 1:
        out[..., 1:] = values[..., half + 1 :] + values[..., half - 1 :: -1]
    return out


def _tail_energy(template: Template, n_max: int) -> np.ndarray:
    """``tail[N] = sum_{|k| > N} |theta_k|^2`` for ``N = 0..n_max``.

    Zero past ``k_max``.  Accumulated backwards from the band edge, so the
    tail is exactly non-increasing in ``N``.
    """
    k_max = template.k_max
    steps = _pair_sums(np.abs(template.coeffs) ** 2, k_max)
    tail = np.zeros(max(n_max, k_max) + 2, dtype=float)
    for m in range(k_max, -1, -1):
        tail[m] = tail[m + 1] + steps[m]
    return tail[1 : n_max + 2]


def _synthesis_matrix_t(k_max: int, grid_size: int) -> np.ndarray:
    """Transposed synthesis matrix: entry ``[i, j] = exp(+2j pi (i - k_max) x_j)``
    on the uniform grid ``x_j = j / grid_size``."""
    k = np.arange(-k_max, k_max + 1)
    x = np.arange(grid_size) / grid_size
    return np.exp(2j * np.pi * np.outer(k, x))


def _synthesize_rows(coeff_rows: np.ndarray, k_max: int, grid_size: int) -> np.ndarray:
    """Real samples of each row's Hermitian part on the grid ``x_j = j / grid_size``.

    All synthesis in the package funnels through this helper so that a single
    coefficient vector produces bit-identical samples no matter which public
    entry point asked for them.  Row ``c`` is replaced by its Hermitian part
    ``0.5 * (c_k + conj(c_{-k}))``, which leaves an exactly Hermitian row as
    it is and drops the anti-Hermitian half of any other.  The synthesis
    matrix is built once per call; each row is then multiplied by it on its
    own, a ``(1, 2k_max+1)`` product, so a row's samples are bit-identical
    regardless of how many rows share the call (one ``(n, 2k_max+1)`` product
    may round differently).

    The synthesis is an exact trigonometric-polynomial evaluation, not an FFT
    on a padded grid, so any ``grid_size >= 2 k_max + 1`` is allowed.  The
    imaginary residue left by rounding is checked to stay within ``1e-10``
    times the row's ``sum_k |c_k|`` and then discarded: the result is a
    C-contiguous float array of shape ``(rows, grid_size)``.
    """
    if grid_size < 2 * k_max + 1:
        raise AliasingError(
            f"grid_size={grid_size} cannot resolve frequencies up to k_max={k_max}; "
            f"need at least {2 * k_max + 1} points"
        )
    sym = 0.5 * (coeff_rows + np.conj(coeff_rows[:, ::-1]))
    bound = 1e-10 * np.sum(np.abs(sym), axis=1)
    mat = _synthesis_matrix_t(k_max, grid_size)
    out = np.empty((sym.shape[0], grid_size))
    residue = np.empty(sym.shape[0])
    for j in range(sym.shape[0]):
        values = (sym[j : j + 1] @ mat)[0]
        out[j] = values.real
        residue[j] = np.max(np.abs(values.imag))
    over = np.flatnonzero(residue > bound)
    if over.size:
        raise InvariantViolationError(
            f"imaginary residue {residue[over[0]]:.3e} of row {over[0]} exceeds "
            f"1e-10 * sum |c_k|")
    return out


def synthesize(template: Template, grid_size: int) -> np.ndarray:
    """Sample a template on the uniform grid ``x_j = j / grid_size``.

    ``grid_size`` must be at least ``2 * k_max + 1`` so the band is fully
    resolved; see :func:`_synthesize_rows`.

    Returns
    -------
    ndarray of float, shape ``(grid_size,)``
    """
    return _synthesize_rows(template.coeffs[np.newaxis, :], template.k_max, grid_size)[0]


def analyze(samples: np.ndarray, k_max: int) -> Template:
    """Recover Fourier coefficients of a real function from uniform samples.

    Computes ``coeff_k = mean(samples * exp(-2j pi k x_j))`` over the grid
    ``x_j = j / grid_size`` for ``k = 0..k_max``, the kernel being the
    conjugated ``k >= 0`` rows of the synthesis matrix, and fills negative
    frequencies by conjugate mirroring, so the result is exactly Hermitian.
    Exact (up to rounding) for trigonometric polynomials of degree ``<= k_max``
    sampled on a grid with ``grid_size >= 2 k_max + 1``.

    Raises
    ------
    AliasingError
        If ``k_max`` exceeds the Nyquist limit ``(grid_size - 1) // 2``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 3:
        raise InvalidParameterError("samples must be a 1-d array with at least 3 points")
    if k_max < 1:
        raise InvalidParameterError(f"k_max must be >= 1, got {k_max}")
    grid_size = samples.size
    if k_max > (grid_size - 1) // 2:
        raise AliasingError(
            f"k_max={k_max} exceeds the Nyquist limit {(grid_size - 1) // 2} "
            f"of a {grid_size}-point grid"
        )
    kernel = np.conj(_synthesis_matrix_t(k_max, grid_size)[k_max:])
    return Template(coeffs=_hermitian(kernel @ samples / grid_size), k_max=k_max,
                    label="analyzed")
