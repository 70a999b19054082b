"""Catalog templates: structure, energy, norms."""
import numpy as np
import pytest

from shiftdecon.catalog import (TEMPLATE_BUILDERS, WAVE_HARMONICS,
                                catalog_template, sobolev_template,
                                spike_template, wave_template)
from shiftdecon.errors import InvalidParameterError
from shiftdecon.spectral import synthesize


def test_wave_needs_room_for_its_tail():
    with pytest.raises(InvalidParameterError):
        wave_template(7)
    assert wave_template(8).k_max == 8


def test_wave_is_hermitian_and_real():
    t = wave_template(20)
    assert np.array_equal(np.conj(t.coeffs[::-1]), t.coeffs)
    f = synthesize(t, 128)
    assert f.dtype == float
    # order-one amplitude, visibly oscillating
    assert 1.0 < np.max(f) - np.min(f) < 10.0


def test_wave_energy_concentration():
    t = wave_template(40)
    k = np.abs(t.k_values)
    total = t.norm_squared
    low = float(np.sum(np.abs(t.coeffs[k <= 7]) ** 2))
    assert low / total > 0.8
    # the tail is real energy, not rounding
    assert total - low > 1e-3


def test_wave_harmonic_values():
    t = wave_template(12)
    for i, (a, b) in enumerate(WAVE_HARMONICS, start=1):
        assert t.coeff(i) == (a - 1j * b) / 2.0
    assert t.coeff(9) == (0.3 / 9) * np.exp(0.9j * 9)


def test_wave_band_extension_preserves_head():
    small, big = wave_template(16), wave_template(40)
    assert np.array_equal(small.coeffs[16 - 10 : 16 + 11],
                          big.coeffs[40 - 10 : 40 + 11])


def test_sobolev_norm_hits_radius_exactly():
    for s, radius in [(1.0, 2.0), (2.0, 5.0), (3.5, 0.7)]:
        t = sobolev_template(s, radius, k_max=64)
        assert abs(t.sobolev_norm_squared(s) - radius) < 1e-12 * radius


def test_sobolev_decay_exponent():
    s = 2.0
    t = sobolev_template(s, 5.0, k_max=64)
    mags = np.abs(t.coeffs[64 + 1 :])
    k = np.arange(1, 65).astype(float)
    slopes = np.diff(np.log(mags)) / np.diff(np.log(k))
    assert np.allclose(slopes, -(s + 0.5 + 0.005), atol=1e-10)


def test_sobolev_validation():
    with pytest.raises(InvalidParameterError):
        sobolev_template(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        sobolev_template(1.0, -1.0)
    with pytest.raises(InvalidParameterError):
        sobolev_template(1.0, 1.0, k_max=0)
    # at 87, 64**174 overflows but 64**-175 is a subnormal float, not 0, so the
    # template would be scaled to all zeros
    for smoothness in (87.0, 200.0):
        with pytest.raises(InvalidParameterError, match="overflows"):
            sobolev_template(smoothness, 1.0, k_max=64)


def test_spike_is_a_single_cosine():
    t = spike_template(k_max=10, location=3)
    x = np.arange(64) / 64
    assert np.allclose(synthesize(t, 64), np.cos(2 * np.pi * 3 * x), atol=1e-13)
    nz = np.flatnonzero(t.coeffs != 0.0)
    assert nz.tolist() == [10 - 3, 10 + 3]


def test_spike_validation():
    with pytest.raises(InvalidParameterError):
        spike_template(k_max=5, location=6)
    with pytest.raises(InvalidParameterError):
        spike_template(k_max=0)


def test_catalog_lookup():
    assert set(TEMPLATE_BUILDERS) == {"wave", "sobolev", "spike"}
    for name in TEMPLATE_BUILDERS:
        t = catalog_template(name, 40)
        assert t.k_max == 40
    with pytest.raises(InvalidParameterError):
        catalog_template("sawtooth", 40)
