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
``k >= 0`` half through one mirror, :func:`_hermitian`; so does the noise of
each simulated curve.  Spectra that need not be Hermitian (a deconvolution
estimate, coefficients built by hand) are synthesized through their
Hermitian part ``0.5 * (c_k + conj(c_{-k}))``, the coefficients of the
curve's real part; :func:`_synthesize_rows` is the one synthesis path.

A shift density is represented by its characteristic function evaluated on the
integers, ``gamma_k = E exp(-2j*pi*k*tau)``, together with a sampler that maps
a fixed number of uniforms to each shift, so that a shift's value depends only
on its own uniforms; the built-ins bind module-level kernels, so they pickle.
Both are user code, so :class:`ShiftDensity` checks every result it returns;
no other module checks them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import (AliasingError, InvalidParameterError, InvariantViolationError,
                     VanishingEigenvalueError)

__all__ = [
    "Template",
    "ShiftDensity",
    "laplace_density",
    "gaussian_density",
    "uniform_density",
    "point_mass_density",
    "synthesize",
    "analyze",
]

#: ``|gamma_k|^2`` at or below this (machine epsilon) counts as a vanishing
#: eigenvalue: inverting it would amplify rounding noise past any signal.
EIGENVALUE_FLOOR = float(np.finfo(float).eps)


#: The largest array dimension numpy allows.
_MAX_SIZE = int(np.iinfo(np.intp).max)


def _check_integer(name: str, value, low: int, high: Optional[int] = _MAX_SIZE) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not a ``bool``, in
    ``low..high``, by default up to the largest array size (no bound when
    ``high`` is ``None``, as for a seed).  Nothing is truncated or rounded."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if value < low and high in (None, _MAX_SIZE) else f"in {low}..{high}"
        raise InvalidParameterError(f"{name} must be {bound}, got {value}")
    return int(value)


def _check_real(name: str, value, low: float, *, strict: bool) -> float:
    """``value`` as a ``float``: a Python or numpy real, not a ``bool``, finite,
    and ``> low`` if ``strict``, else ``>= low``.  It is checked before any
    arithmetic, so no warning fires first."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int past the largest float
        real = math.inf
    if not (math.isfinite(real) and (real > low if strict else real >= low)):
        raise InvalidParameterError(
            f"{name} must be finite and {'>' if strict else '>='} {low:g}, got {value!r}")
    return real


def _check_choice(name: str, value, choices) -> str:
    """``value`` if it is a ``str`` in ``choices``, checked before any comparison or hash."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidParameterError(f"unknown {name} {value!r}; expected one of {tuple(choices)}")
    return value


@contextmanager
def _refuse_overflow(message: str):
    """Raise ``InvalidParameterError(message)`` for an overflow in the block, not a warning."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise InvalidParameterError(message) from None


def _sobolev_weights(k: np.ndarray, smoothness: float) -> np.ndarray:
    """``1 + |k|^{2s}``, refused if ``k_max^{2s}`` overflows."""
    with _refuse_overflow(f"k_max**(2 * smoothness) overflows at {smoothness=}"):
        return 1.0 + np.abs(k) ** (2.0 * smoothness)


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
        object.__setattr__(self, "k_max", _check_integer("k_max", self.k_max, 1))
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (2 * self.k_max + 1,):
            raise InvalidParameterError(
                f"coeffs must have shape ({2 * self.k_max + 1},) for k_max={self.k_max}, "
                f"got {coeffs.shape}"
            )
        with _refuse_overflow("the energy sum |c_k|^2 of coeffs overflows"):
            if not math.isfinite(np.sum(np.abs(coeffs) ** 2)):
                raise InvalidParameterError("coeffs must be finite")
        if not np.array_equal(np.conj(coeffs[::-1]), coeffs):
            raise InvariantViolationError(
                "template coefficients are not exactly Hermitian "
                "(coeff(-k) != conj(coeff(k)))"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def k_values(self) -> np.ndarray:
        """Frequencies ``-k_max..k_max`` aligned with ``coeffs``."""
        return np.arange(-self.k_max, self.k_max + 1)

    def coeff(self, k: int) -> complex:
        """Coefficient at a single frequency ``k``."""
        return complex(self.coeffs[_check_integer("k", k, -self.k_max, self.k_max) + self.k_max])

    @property
    def norm_squared(self) -> float:
        """Squared L2 norm, ``sum_k |coeff_k|^2`` (Parseval)."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def sobolev_norm_squared(self, smoothness: float) -> float:
        """``sum_k (1 + |k|^{2s}) |coeff_k|^2`` for smoothness ``s > 0``."""
        smoothness = _check_real("smoothness", smoothness, 0.0, strict=True)
        weights = _sobolev_weights(self.k_values.astype(float), smoothness)
        with _refuse_overflow(f"the Sobolev norm overflows at {smoothness=}"):
            return float(np.sum(weights * np.abs(self.coeffs) ** 2))

    @staticmethod
    def from_harmonics(dc: float, cosines, sines, k_max: int, label: str = "") -> "Template":
        """Build a real template from cosine/sine amplitudes at ``k = 1..len``.

        ``f(x) = dc + sum_k cosines[k-1] cos(2 pi k x) + sines[k-1] sin(2 pi k x)``.
        """
        cosines = np.asarray(cosines, dtype=float)
        sines = np.asarray(sines, dtype=float)
        if cosines.shape != sines.shape or cosines.ndim != 1:
            raise InvalidParameterError("cosines and sines must be 1-d arrays of equal length")
        k_max = _check_integer("k_max", k_max, len(cosines))
        half = np.zeros(k_max + 1, dtype=np.complex128)
        half[0] = dc
        half[1 : 1 + len(cosines)] = (cosines - 1j * sines) / 2.0
        return Template(coeffs=_hermitian(half), k_max=k_max, label=label)


@dataclass(frozen=True)
class ShiftDensity:
    """A distribution of random shifts, seen through its Fourier transform.

    Attributes
    ----------
    gamma_fn : callable
        Vectorized map from integer frequencies to the complex values
        ``gamma_k = E exp(-2j*pi*k*tau)``.
    sampler : callable
        ``sampler(uniforms)`` maps independent uniforms on ``[0, 1)``, an
        array of shape ``(..., size, uniforms_per_shift)``, to the shifts,
        shape ``(..., size)``: each shift from its own row of
        ``uniforms_per_shift`` uniforms and nothing else, with no rejection,
        so every shift consumes the same number of uniforms.
    label : str
        Free-form name.
    uniforms_per_shift : int
        The uniforms the sampler reads per shift, at least 1.
    """

    gamma_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    sampler: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    label: str = ""
    uniforms_per_shift: int = 1

    def __post_init__(self):
        for name in ("gamma_fn", "sampler"):
            if not callable(getattr(self, name)):
                raise InvalidParameterError(
                    f"{name} must be callable, got {getattr(self, name)!r}")
        object.__setattr__(self, "uniforms_per_shift",
                           _check_integer("uniforms_per_shift", self.uniforms_per_shift, 1))

    def gamma(self, k) -> np.ndarray:
        """``gamma_k`` at frequencies ``k``: one value per frequency, each with
        ``|gamma_k|^2`` finite and at most ``1 + 1e-12`` (the rounding slack of
        :meth:`~shiftdecon.simulate.SequenceObservations.validate`), and
        ``gamma_0`` within ``1e-12`` of 1, as for every characteristic
        function, else :class:`InvariantViolationError`.  A value whose
        computation overflows takes its limit, ``|gamma_k| = 0``.
        """
        k = np.asarray(k)
        with np.errstate(over="ignore", invalid="ignore"):
            gam = np.asarray(self.gamma_fn(k), dtype=np.complex128)
        if gam.shape != k.shape:
            raise InvariantViolationError(
                f"gamma_fn returned shape {gam.shape} for frequencies of shape {k.shape}")
        g2 = np.abs(gam) ** 2
        unusable = np.flatnonzero(~(g2 <= 1.0 + 1e-12))
        if unusable.size:
            at = unusable[0]
            raise InvariantViolationError(
                f"|gamma_k|^2 = {float(g2.flat[at])} at k={k.flat[at]} is not finite or "
                f"exceeds 1 + 1e-12; a shift density's Fourier coefficients are at most "
                f"1 in modulus")
        not_one = np.flatnonzero((k == 0) & ~(np.abs(gam - 1.0) <= 1e-12))
        if not_one.size:
            at = not_one[0]
            raise InvariantViolationError(
                f"gamma_0 = {complex(gam.flat[at])} at k=0 differs from 1 by more than "
                f"1e-12; a shift density's Fourier coefficient at k=0 is 1")
        return gam

    def gamma_band(self, k_max: int) -> np.ndarray:
        """:meth:`gamma` on ``k = -k_max..k_max``, refused with
        :class:`InvariantViolationError` if some ``|gamma_(-k) - conj(gamma_k)|``
        exceeds ``1e-12`` (the shifts are real), and with
        :class:`VanishingEigenvalueError` if some ``|gamma_k|^2`` is at or below
        :data:`EIGENVALUE_FLOOR`: safe to invert."""
        k_max = _check_integer("the band's largest |k|", k_max, 0)
        gam = self.gamma(np.arange(-k_max, k_max + 1))
        asymmetry = np.abs(gam[::-1] - np.conj(gam))
        not_hermitian = np.flatnonzero(~(asymmetry <= 1e-12))
        if not_hermitian.size:
            at = not_hermitian[0]
            raise InvariantViolationError(
                f"|gamma_(-k) - conj(gamma_k)| = {float(asymmetry[at])} at k={at - k_max} "
                f"exceeds 1e-12; the shifts are real, so their Fourier coefficients are "
                f"Hermitian")
        vanishing = np.flatnonzero(np.abs(gam) ** 2 <= EIGENVALUE_FLOOR)
        if vanishing.size:
            at = vanishing[0]
            raise VanishingEigenvalueError(
                f"|gamma_k|^2 = {abs(gam[at]) ** 2:.3e} at k={at - k_max} is at "
                f"or below EIGENVALUE_FLOOR = {EIGENVALUE_FLOOR:.3e}; the "
                f"frequency cannot be inverted"
            )
        return gam

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """The sampler's shifts for ``uniforms`` of shape
        ``(..., size, uniforms_per_shift)``, as floats: the sampler must
        return finite reals of shape ``(..., size)``, else
        :class:`InvariantViolationError`."""
        shifts = np.asarray(self.sampler(uniforms))
        if not (shifts.shape == uniforms.shape[:-1] and shifts.dtype.kind in "iuf"
                and np.isfinite(shifts).all()):
            raise InvariantViolationError(
                f"density sampler returned shape {shifts.shape} of {shifts.dtype}, "
                f"expected {uniforms.shape[:-1]} of finite reals")
        return shifts.astype(float, copy=False)


def _laplace_gamma(coef: float, k: np.ndarray) -> np.ndarray:
    return (1.0 / (1.0 + coef * np.square(k.astype(float)))).astype(np.complex128)


def _gaussian_gamma(coef: float, k: np.ndarray) -> np.ndarray:
    return np.exp(-coef * np.square(k.astype(float))).astype(np.complex128)


def _uniform_gamma(a: float, k: np.ndarray) -> np.ndarray:
    x = 2.0 * a * k.astype(float)
    zero = (x == np.round(x)) & (x != 0.0)
    return np.where(zero, 0.0, np.sinc(x)).astype(np.complex128)


def _point_mass_gamma(k) -> np.ndarray:
    return np.ones(np.shape(k), dtype=np.complex128)


def _point_mass_shifts(uniforms: np.ndarray) -> np.ndarray:
    return np.zeros(uniforms.shape[:-1])


def _laplace_shifts(scale: float, uniforms: np.ndarray) -> np.ndarray:
    """Laplace shifts of scale ``scale`` by the inverse CDF, folded: the half
    of ``[0, 1)`` holding the uniform ``u`` gives the sign, and ``frac(2u)``
    the magnitude ``-scale * log(1 - frac(2u))``.  ``1 - frac(2u)`` lies in
    ``(0, 1]``, so no uniform maps to an infinite shift."""
    frac, upper = np.modf(2.0 * uniforms[..., 0])
    return np.where(upper, scale, -scale) * np.log1p(-frac)


def _box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Independent standard normals, as many as ``uniforms`` holds on its
    last axis, an even count ``2m``: pair ``j`` takes the radius
    ``sqrt(-2 log(1 - u_j))``, finite on ``[0, 1)``, from uniform ``j`` and
    the angle ``2 pi u_(m+j)`` from uniform ``m + j``, and gives normal ``j``,
    its cosine side, and normal ``m + j``, its sine side."""
    m = uniforms.shape[-1] // 2
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[..., :m]))
    angle = 2.0 * np.pi * uniforms[..., m:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def _gaussian_shifts(sigma: float, uniforms: np.ndarray) -> np.ndarray:
    return sigma * _box_muller(uniforms)[..., 0]


def _uniform_shifts(a: float, uniforms: np.ndarray) -> np.ndarray:
    return a * (2.0 * uniforms[..., 0] - 1.0)


def laplace_density(sigma: float) -> ShiftDensity:
    """Centered Laplace shifts with standard deviation ``sigma``.

    The density is ``(1 / (sqrt(2) sigma)) exp(-sqrt(2) |x| / sigma)``, so
    ``gamma_k = 1 / (1 + 2 sigma^2 pi^2 k^2)``: polynomial decay of degree 2.
    The arithmetic is in Python floats, whatever the type of ``sigma``.
    """
    s = _check_real("sigma", sigma, 0.0, strict=True)
    coef = 2.0 * s * s * math.pi * math.pi
    if not 0.0 < coef < math.inf:
        raise InvalidParameterError(f"sigma and 2 pi^2 sigma^2 must be finite and > 0, got {sigma}")
    return ShiftDensity(gamma_fn=partial(_laplace_gamma, coef),
                        sampler=partial(_laplace_shifts, s / math.sqrt(2.0)),
                        label=f"laplace(sigma={sigma})")


def gaussian_density(sigma: float) -> ShiftDensity:
    """Centered Gaussian shifts; ``gamma_k = exp(-2 pi^2 k^2 sigma^2)``.

    Decays faster than any polynomial.  The arithmetic is in Python floats,
    whatever the type of ``sigma``.
    """
    s = _check_real("sigma", sigma, 0.0, strict=True)
    coef = 2.0 * math.pi * math.pi * s * s
    if not 0.0 < coef < math.inf:
        raise InvalidParameterError(f"sigma and 2 pi^2 sigma^2 must be finite and > 0, got {sigma}")
    return ShiftDensity(gamma_fn=partial(_gaussian_gamma, coef),
                        sampler=partial(_gaussian_shifts, s),
                        label=f"gaussian(sigma={sigma})", uniforms_per_shift=2)


def uniform_density(half_width: float) -> ShiftDensity:
    """Uniform shifts on ``[-a, a]``; ``gamma_k = sin(2 pi k a) / (2 pi k a)``.

    ``|gamma_k| <= 1 / (2 pi |k| a)``, with zeros whenever ``2 k a`` is a
    nonzero integer.  Those zeros are returned as exact ``0`` (``np.sinc``
    alone leaves rounding residue of order 1e-17).
    """
    a = _check_real("half_width", half_width, 0.0, strict=True)
    if not 2.0 * a < math.inf:
        raise InvalidParameterError(
            f"half_width must be finite and > 0, and 2 * half_width finite, got {half_width}")
    return ShiftDensity(gamma_fn=partial(_uniform_gamma, a),
                        sampler=partial(_uniform_shifts, a),
                        label=f"uniform(half_width={half_width})")


def point_mass_density() -> ShiftDensity:
    """Degenerate density with all mass at 0: ``gamma_k = 1``, shifts are 0.

    Useful as the no-shift limit: ``|gamma_k|`` does not decay at all.
    """
    return ShiftDensity(gamma_fn=_point_mass_gamma, sampler=_point_mass_shifts,
                        label="point_mass")


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
    on the uniform grid ``x_j = j / grid_size``, built in place one frequency row
    at a time: the bits of ``np.exp(2j * np.pi * np.outer(k, x))``, without its
    full-size temporaries."""
    x = np.arange(grid_size) / grid_size
    mat = np.empty((2 * k_max + 1, grid_size), dtype=np.complex128)
    for row, k in zip(mat, range(-k_max, k_max + 1)):
        np.exp(2j * np.pi * (k * x), out=row)
    return mat


def _synthesize_rows(coeff_rows: np.ndarray, k_max: int, grid_size: int) -> np.ndarray:
    """Real samples of each row's Hermitian part on the grid ``x_j = j / grid_size``.

    All synthesis in the package funnels through this helper so that a single
    coefficient vector produces bit-identical samples no matter which public
    entry point asked for them.  Row ``c`` is replaced by its Hermitian part
    ``0.5 * (c_k + conj(c_{-k}))``, which leaves an exactly Hermitian row as
    it is and drops the anti-Hermitian half of any other.  The synthesis
    matrix is built once per call, in place, so a call peaks at that matrix
    plus a few ``(rows, grid_size)`` arrays.  Each row is multiplied by it on
    its own, a ``(1, 2k_max+1)`` product, so a row's samples are bit-identical
    regardless of how many rows share the call (one ``(n, 2k_max+1)`` product
    may round differently).

    The synthesis is an exact trigonometric-polynomial evaluation, not an FFT
    on a padded grid, so any ``grid_size >= 2 k_max + 1`` is allowed.  The
    imaginary residue left by rounding is checked to stay within ``1e-10``
    times the row's ``sum_k |c_k|`` and then discarded: the result is a
    C-contiguous float array of shape ``(rows, grid_size)``.
    """
    grid_size = _check_integer("grid_size", grid_size, 1)
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
    k_max = _check_integer("k_max", k_max, 1)
    grid_size = samples.size
    if k_max > (grid_size - 1) // 2:
        raise AliasingError(
            f"k_max={k_max} exceeds the Nyquist limit {(grid_size - 1) // 2} "
            f"of a {grid_size}-point grid"
        )
    kernel = np.conj(_synthesis_matrix_t(k_max, grid_size)[k_max:])
    return Template(coeffs=_hermitian(kernel @ samples / grid_size), k_max=k_max,
                    label="analyzed")
