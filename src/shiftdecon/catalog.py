"""Built-in test templates.

Three deterministic spectra cover the test surface:

* ``wave_template`` — a smooth oscillating 1-periodic pattern whose energy
  sits almost entirely below frequency 8, plus a slowly decaying ``0.3/k``
  tail.  The tail is what separates the two adaptive estimators: the
  penalized criterion gives up on it early, the plain one chases it.
* ``sobolev_template`` — a deterministic near-extremal member of a periodic
  Sobolev ball, used by rate studies.
* ``spike_template`` — all energy in a single cosine; the sharpest possible
  selection problem.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .spectral import Template, _check_integer, _check_real, _hermitian, _sobolev_weights

__all__ = ["WAVE_DC", "WAVE_HARMONICS", "wave_template", "sobolev_template",
           "spike_template", "TEMPLATE_BUILDERS", "catalog_template"]

# Mean level and (cosine, sine) amplitudes of the dominant harmonics k = 1..7.
WAVE_DC = 0.25
WAVE_HARMONICS = (
    (0.95, 0.35),
    (-0.45, 0.50),
    (0.30, -0.40),
    (0.18, 0.12),
    (-0.11, 0.09),
    (0.07, -0.05),
    (0.04, 0.03),
)
# Tail |coeff_k| = WAVE_TAIL_SCALE / k with phase WAVE_TAIL_PHASE * k, k >= 8.
WAVE_TAIL_SCALE = 0.3
WAVE_TAIL_PHASE = 0.9
# Extra decay exponent delta/2 of the Sobolev template, which keeps its ball
# membership strict rather than borderline.
SOBOLEV_DELTA = 0.01


def wave_template(k_max: int = 40) -> Template:
    """The standard test wave on the band ``-k_max..k_max`` (``k_max >= 8``)."""
    k_max = _check_integer("k_max", k_max, 8)
    half = np.zeros(k_max + 1, dtype=np.complex128)
    half[0] = WAVE_DC
    for i, (a, b) in enumerate(WAVE_HARMONICS, start=1):
        half[i] = (a - 1j * b) / 2.0
    k_tail = np.arange(8, k_max + 1)
    half[8:] = (WAVE_TAIL_SCALE / k_tail) * np.exp(1j * WAVE_TAIL_PHASE * k_tail)
    return Template(coeffs=_hermitian(half), k_max=k_max, label="wave")


def sobolev_template(smoothness: float, radius: float, k_max: int = 64) -> Template:
    """Deterministic member of the Sobolev ball of given smoothness and radius.

    The spectrum is ``|coeff_k| = c |k|^{-(s + 1/2 + delta/2)}`` (with
    ``coeff_0 = c`` and ``delta =`` :data:`SOBOLEV_DELTA`), all phases zero,
    and ``c`` chosen so that ``sum_k (1 + |k|^{2s}) |coeff_k|^2`` equals
    ``radius`` exactly on the carried band; ``k_max^{2s}`` must be finite.
    """
    smoothness = _check_real("smoothness", smoothness, 0.0, strict=True)
    radius = _check_real("radius", radius, 0.0, strict=True)
    k_max = _check_integer("k_max", k_max, 1)
    k = np.arange(1, k_max + 1).astype(float)
    shape = k ** (-(smoothness + 0.5 + SOBOLEV_DELTA / 2.0))
    weights = _sobolev_weights(k, smoothness)
    # sum over k of (1 + |k|^{2s}) |coeff_k|^2 = c^2 * (1 + 2 sum_k w_k shape_k^2)
    total = 1.0 + 2.0 * float(np.sum(weights * shape ** 2))
    c = float(np.sqrt(radius / total))
    return Template(coeffs=_hermitian(c * np.concatenate(([1.0], shape))), k_max=k_max,
                    label=f"sobolev(s={smoothness})")


def spike_template(k_max: int = 40, location: int = 2) -> Template:
    """Single cosine ``cos(2 pi * location * x)``."""
    k_max = _check_integer("k_max", k_max, 1)
    location = _check_integer("location", location, 1, k_max)
    half = np.zeros(k_max + 1)
    half[location] = 0.5
    # A cosine's coefficients are real; adding 0.0 clears the -0.0 imaginary
    # parts of the mirror, so the coefficient file holds no "-0.0".
    return Template(coeffs=_hermitian(half) + 0.0, k_max=k_max,
                    label=f"spike(k={location})")


TEMPLATE_BUILDERS = {
    "wave": wave_template,
    "sobolev": lambda k_max: sobolev_template(smoothness=2.0, radius=5.0, k_max=k_max),
    "spike": spike_template,
}


def catalog_template(name: str, k_max: int) -> Template:
    """Look up a catalog template by name at the requested band width."""
    try:
        builder = TEMPLATE_BUILDERS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown template {name!r}; catalog names: {sorted(TEMPLATE_BUILDERS)}"
        ) from None
    return builder(k_max)
