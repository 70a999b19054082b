"""Fourier-side basics: densities, synthesis/analysis round trips."""
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from shiftdecon.catalog import wave_template
from shiftdecon.errors import (AliasingError, InvalidParameterError,
                               InvariantViolationError, VanishingEigenvalueError)
from shiftdecon.risk import mc_risk, risk_report
from shiftdecon.selection import compute_m0
from shiftdecon.spectral import (ShiftDensity, Template, analyze, gaussian_density,
                                 laplace_density, point_mass_density, synthesize,
                                 uniform_density)

SIGMA = 0.1
N_SAMPLER = 10_000

# Frozen: 1 / (1 + 2 * 0.1**2 * pi**2 * 25) for the Laplace(0.1) density at k=5.
GAMMA5_LAPLACE = 0.16849761225542156


# ---------------------------------------------------------------------------
# characteristic functions


def test_gamma_zero_is_one_for_every_density():
    for d in (laplace_density(SIGMA), gaussian_density(SIGMA),
              uniform_density(0.25), point_mass_density()):
        assert d.gamma(0) == 1.0 + 0.0j


def test_laplace_gamma_closed_form():
    d = laplace_density(SIGMA)
    k = np.arange(-12, 13)
    expected = 1.0 / (1.0 + 2.0 * SIGMA**2 * math.pi**2 * k.astype(float) ** 2)
    assert np.allclose(d.gamma(k), expected, rtol=1e-14, atol=0.0)
    assert abs(d.gamma(5).real - GAMMA5_LAPLACE) < 1e-15
    assert d.gamma(5).imag == 0.0


def test_laplace_gamma_against_quadrature():
    # Independent oracle: gamma_k = int p(x) cos(2 pi k x) dx with the Laplace
    # pdf p(x) = exp(-sqrt(2)|x|/sigma) / (sqrt(2) sigma), via QUADPACK's
    # oscillatory weight on the half line.
    quad = pytest.importorskip("scipy.integrate").quad
    d = laplace_density(SIGMA)
    b = math.sqrt(2.0) / SIGMA
    for k in (1, 2, 5, 9):
        val, err = quad(lambda x: b / 2.0 * math.exp(-b * x), 0.0, np.inf,
                        weight="cos", wvar=2.0 * math.pi * k)
        assert err < 1e-8
        assert abs(2.0 * val - d.gamma(k).real) < 1e-9


def test_gamma_is_even_in_k():
    for d in (laplace_density(SIGMA), gaussian_density(0.2), uniform_density(0.25)):
        pos = d.gamma(np.arange(1, 11))
        neg = d.gamma(-np.arange(1, 11))
        assert np.array_equal(pos, neg)


def test_gaussian_gamma_strictly_decreasing():
    g = gaussian_density(0.15).gamma(np.arange(0, 20)).real
    assert np.all(np.diff(g) < 0.0)
    assert g[0] == 1.0


def test_uniform_gamma_quarter_width_values():
    d = uniform_density(0.25)
    # sinc(1/2) = 2/pi
    assert abs(d.gamma(1).real - 2.0 / math.pi) < 1e-14
    # zeros where 2ka is a nonzero integer are exact, not sin(pi)/pi rounding
    k = np.arange(-8, 9)
    zeros = (k % 2 == 0) & (k != 0)
    assert np.all(d.gamma(k)[zeros] == 0.0)
    assert np.all(d.gamma(k)[~zeros] != 0.0)


def test_point_mass_sampler_and_gamma():
    d = point_mass_density()
    rng = np.random.default_rng(0)
    assert np.all(d.sample(rng, 50) == 0.0)
    assert np.all(d.gamma(np.arange(-7, 8)) == 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 1e308])
def test_density_scale_must_be_positive(bad):
    # 1e308 is finite, but 2 pi^2 sigma^2 and 2a overflow
    with pytest.raises(InvalidParameterError, match="must be finite and > 0"):
        laplace_density(bad)
    with pytest.raises(InvalidParameterError, match="must be finite and > 0"):
        gaussian_density(bad)
    with pytest.raises(InvalidParameterError, match="must be finite and > 0"):
        uniform_density(bad)


@pytest.mark.parametrize("build,scale,message", [
    (laplace_density, 1e200, "sigma and 2 pi^2 sigma^2 must be finite and > 0"),
    # 2 pi^2 sigma^2 underflows to 0: gamma_k would be 1 at every k, a point
    # mass under the Laplace label
    (laplace_density, 1e-200, "sigma and 2 pi^2 sigma^2 must be finite and > 0"),
    (gaussian_density, 1e154, "sigma and 2 pi^2 sigma^2 must be finite and > 0"),
    (uniform_density, 1e308, "half_width must be finite and > 0, and 2 * half_width finite"),
], ids=["laplace-1e200", "laplace-1e-200", "gaussian-1e154", "uniform-1e308"])
def test_density_scale_coefficient_must_be_finite(build, scale, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        build(scale)


@pytest.mark.parametrize("build,scale", [
    (laplace_density, 1e20), (gaussian_density, 1e20), (uniform_density, 3e38),
], ids=["laplace", "gaussian", "uniform"])
def test_numpy_float32_scale_is_computed_as_a_python_float(build, scale):
    # 2 pi^2 sigma^2 (2 * half_width) overflows float32 but not float64
    k = np.arange(-3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density = build(np.float32(scale))
        gamma = density.gamma(k)
    assert np.array_equal(gamma, build(float(np.float32(scale))).gamma(k))


@pytest.mark.parametrize("density,k_max", [
    (laplace_density(1e153), 4),
    (uniform_density(4.5e307), 3),
    (gaussian_density(1e150), 20000),
], ids=["laplace", "uniform", "gaussian"])
def test_gamma_that_overflows_is_a_vanishing_eigenvalue(density, k_max):
    # coef * k^2 (or 2 a k) overflows; the limit |gamma_k| = 0 is refused,
    # with no numpy warning on the way
    with pytest.raises(VanishingEigenvalueError, match="EIGENVALUE_FLOOR"):
        density.gamma_band(k_max)


def test_gamma_band_refuses_a_non_finite_gamma():
    for bad in (math.nan, math.inf):
        density = ShiftDensity(gamma_fn=lambda k, bad=bad: np.where(k == 2, bad, 1.0),
                               sampler=lambda rng, size: np.zeros(size))
        assert np.array_equal(density.gamma_band(1), np.ones(3))
        with pytest.raises(InvariantViolationError, match="at k=2 is not finite"):
            density.gamma_band(3)


def _constant_density(value):
    return ShiftDensity(gamma_fn=lambda k: np.full(np.shape(k), value),
                        sampler=lambda rng, size: np.zeros(size))


def test_gamma_band_refuses_a_modulus_above_one():
    # |gamma_k|^2 may pass 1 by the 1e-12 rounding slack that
    # SequenceSummary.validate allows, and no further: a band of 2s gave
    # finite but meaningless risks
    assert np.array_equal(_constant_density(1.0 + 1e-13).gamma_band(3), np.full(7, 1.0 + 1e-13))
    for value in (2.0, 1.0 + 1e-11, -1.5, 1.5j):
        with pytest.raises(InvariantViolationError, match=r"at k=-3 .* exceeds 1 \+ 1e-12"):
            _constant_density(value).gamma_band(3)
    wave = wave_template(8)
    with pytest.raises(InvariantViolationError, match="exceeds 1"):
        risk_report(wave, _constant_density(2.0), 20, 0.1, 3)
    with pytest.raises(InvariantViolationError, match="exceeds 1"):
        mc_risk(wave, _constant_density(2.0), 20, 0.1, "theta_tilde", 4, seed=0, m0=3)


@pytest.mark.parametrize("gamma_fn", [lambda k: 0.5, lambda k: np.ones(3),
                                      lambda k: np.ones((np.size(k), 1))],
                         ids=["scalar", "fixed length", "column"])
def test_gamma_refuses_a_result_not_shaped_as_its_frequencies(gamma_fn):
    # each of these escaped as a bare TypeError, IndexError or ValueError
    density = ShiftDensity(gamma_fn=gamma_fn, sampler=lambda rng, size: np.zeros(size))
    wave = wave_template(8)
    calls = (lambda: density.gamma(np.arange(4)), lambda: density.gamma_band(2),
             lambda: compute_m0(density, 20, 8), lambda: risk_report(wave, density, 20, 0.1, 2),
             lambda: mc_risk(wave, density, 20, 0.1, "theta_tilde", 4, seed=0, m0=2))
    for call in calls:
        with pytest.raises(InvariantViolationError, match="gamma_fn returned shape"):
            call()
    assert laplace_density(SIGMA).gamma(5).shape == ()


@pytest.mark.parametrize("density", [laplace_density(SIGMA), gaussian_density(0.1),
                                     uniform_density(0.25), point_mass_density()],
                         ids=["laplace", "gaussian", "uniform", "point_mass"])
def test_a_built_in_density_survives_pickle(density):
    # so that a pool job can carry it
    copy = pickle.loads(pickle.dumps(density))
    k = np.arange(-30, 31)
    assert copy.label == density.label
    assert copy.gamma(k).tobytes() == density.gamma(k).tobytes()
    assert copy.sample(np.random.default_rng(5), 40).tobytes() == \
        density.sample(np.random.default_rng(5), 40).tobytes()


# ---------------------------------------------------------------------------
# sampler vs characteristic function (Monte Carlo)


@pytest.mark.parametrize("density,seed", [
    (laplace_density(SIGMA), 11),
    (gaussian_density(0.1), 12),
    (uniform_density(0.25), 13),
])
def test_sampler_matches_gamma(density, seed):
    """Empirical char. function of n draws ~= gamma_k within 5 sigma."""
    rng = np.random.default_rng(seed)
    tau = density.sample(rng, N_SAMPLER)
    k = np.arange(1, 11)
    emp = np.exp(-2j * np.pi * np.outer(tau, k)).mean(axis=0)
    # |e^{-2 pi i k tau}| = 1, so each complex mean has stderr <= 1/sqrt(n)
    assert np.all(np.abs(emp - density.gamma(k)) < 5.0 / math.sqrt(N_SAMPLER))


def test_laplace_sample_variance():
    rng = np.random.default_rng(7)
    tau = laplace_density(SIGMA).sample(rng, N_SAMPLER)
    # Var = sigma^2; the sample variance of a Laplace has stdev ~ sigma^2*sqrt(5/n)
    assert abs(np.var(tau) - SIGMA**2) < 5.0 * SIGMA**2 * math.sqrt(5.0 / N_SAMPLER)
    assert abs(np.mean(tau)) < 5.0 * SIGMA / math.sqrt(N_SAMPLER)


# ---------------------------------------------------------------------------
# Template container


def test_template_coeff_accessor_and_band():
    t = Template.from_harmonics(0.5, [1.0, 0.0], [0.0, -2.0], k_max=3)
    assert t.coeff(0) == 0.5
    assert t.coeff(1) == 0.5 + 0.0j          # cos -> (a - i b)/2
    assert t.coeff(-2) == np.conj(t.coeff(2))
    assert t.coeff(2) == 0.0 + 1.0j          # sine amplitude -2 -> -i*(-2)/2
    assert np.array_equal(t.k_values, np.arange(-3, 4))
    assert t.coeff(np.uint8(1)) == t.coeff(1)
    for bad in (4, -4, 1.5, True, "1"):
        with pytest.raises(InvalidParameterError, match="k must be"):
            t.coeff(bad)


def test_template_requires_exact_hermitian_symmetry():
    coeffs = np.zeros(5, dtype=complex)
    coeffs[3] = 1.0 + 1.0j  # k=+1 set, k=-1 left at 0
    with pytest.raises(InvariantViolationError):
        Template(coeffs=coeffs, k_max=2)


def test_template_shape_and_finiteness_checks():
    with pytest.raises(InvalidParameterError):
        Template(coeffs=np.zeros(4, dtype=complex), k_max=2)
    with pytest.raises(InvalidParameterError):
        Template(coeffs=np.zeros(3, dtype=complex), k_max=0)
    bad = np.zeros(5, dtype=complex)
    bad[0] = np.nan
    with pytest.raises(InvalidParameterError):
        Template(coeffs=bad, k_max=2)


def test_template_coeffs_are_frozen():
    t = Template.from_harmonics(0.0, [1.0], [0.0], k_max=1)
    with pytest.raises(ValueError):
        t.coeffs[0] = 1.0


def test_norms():
    t = Template.from_harmonics(0.5, [2.0], [0.0], k_max=1)
    # coeffs: (1, 0.5, 1) at k=-1,0,1 -> sum |.|^2 = 2.25
    assert abs(t.norm_squared - 2.25) < 1e-15
    # Sobolev s=1: (1+1)*1 + 1*0.25 + (1+1)*1 = 4.25
    assert abs(t.sobolev_norm_squared(1.0) - 4.25) < 1e-15


@pytest.mark.parametrize("smoothness,message", [
    (1e30, "overflows"), ("2", "must be a real number"), (math.nan, "must be finite"),
    (True, "must be a real number"), (0.0, "must be finite and > 0")])
def test_sobolev_norm_refuses_a_bad_smoothness_before_any_warning(smoothness, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=message):
            wave_template(8).sobolev_norm_squared(smoothness)


def test_template_energy_that_overflows_is_refused_before_any_warning():
    # |1e200|^2 overflows, so the template is refused when it is built and
    # neither its norms nor risk_report ever square it; 2e150 at k = 10 has a
    # finite energy, and only the Sobolev weight 1 + 10**200 makes its sum overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="energy"):
            Template.from_harmonics(0.0, [1e200], [0.0], k_max=1)
        wide = Template.from_harmonics(0.0, [0.0] * 9 + [2e150], [0.0] * 10, k_max=10)
        assert math.isfinite(wide.norm_squared)
        assert math.isfinite(wide.sobolev_norm_squared(1.0))
        with pytest.raises(InvalidParameterError, match="Sobolev norm overflows"):
            wide.sobolev_norm_squared(100.0)


def test_from_harmonics_validation():
    with pytest.raises(InvalidParameterError):
        Template.from_harmonics(0.0, [1.0, 2.0], [0.0], k_max=3)
    with pytest.raises(InvalidParameterError):
        Template.from_harmonics(0.0, [1.0] * 5, [0.0] * 5, k_max=4)


# ---------------------------------------------------------------------------
# synthesis / analysis


def test_synthesize_single_cosine():
    t = Template.from_harmonics(0.25, [1.0], [0.0], k_max=1)
    grid = 8
    x = np.arange(grid) / grid
    f = synthesize(t, grid)
    assert np.allclose(f, 0.25 + np.cos(2.0 * np.pi * x), atol=1e-13)


def test_synthesize_single_sine():
    t = Template.from_harmonics(0.0, [0.0, 0.0], [0.0, 1.0], k_max=2)
    grid = 16
    x = np.arange(grid) / grid
    f = synthesize(t, grid)
    assert np.allclose(f, np.sin(4.0 * np.pi * x), atol=1e-13)


def test_synthesize_grid_too_small():
    t = Template.from_harmonics(0.0, [1.0] * 4, [0.0] * 4, k_max=4)
    with pytest.raises(AliasingError):
        synthesize(t, 8)  # needs 2*4+1 = 9
    assert synthesize(t, 9).shape == (9,)


def test_synthesize_residue_bound_scales_with_the_coefficients():
    # rounding leaves an imaginary residue of about 2e-10 here; the bound is
    # relative to sum |c_k|, so scaling a template scales its samples
    wave = wave_template(40)
    big = Template(coeffs=wave.coeffs * 1e6, k_max=40)
    assert np.allclose(synthesize(big, 128), 1e6 * synthesize(wave, 128),
                       rtol=1e-12, atol=0.0)


def _random_real_template(rng, k_max):
    return Template.from_harmonics(
        float(rng.normal()),
        rng.normal(size=k_max),
        rng.normal(size=k_max),
        k_max=k_max,
    )


@pytest.mark.parametrize("seed,k_max,grid", [
    (0, 1, 3), (1, 3, 7), (2, 3, 12), (3, 8, 17), (4, 8, 64),
    (5, 15, 31), (6, 15, 100), (7, 25, 51), (8, 25, 128), (9, 40, 81),
])
def test_round_trip_analyze_synthesize(seed, k_max, grid):
    """analyze(synthesize(t)) recovers the band exactly when grid >= 2K+1."""
    t = _random_real_template(np.random.default_rng(seed), k_max)
    back = analyze(synthesize(t, grid), k_max)
    assert np.allclose(back.coeffs, t.coeffs, atol=1e-12)
    # mirroring makes the result exactly Hermitian, not just approximately
    assert np.array_equal(np.conj(back.coeffs[::-1]), back.coeffs)


@pytest.mark.parametrize("seed,k_max,grid", [(10, 6, 13), (11, 6, 40), (12, 17, 35)])
def test_parseval_on_the_grid(seed, k_max, grid):
    # for a trig polynomial and grid >= 2K+1 the grid mean of f^2 is exact
    t = _random_real_template(np.random.default_rng(seed), k_max)
    f = synthesize(t, grid)
    assert abs(np.mean(f**2) - t.norm_squared) < 1e-11 * max(1.0, t.norm_squared)


def test_analyze_nyquist_limit():
    samples = np.zeros(16)
    with pytest.raises(AliasingError):
        analyze(samples, 8)  # (16-1)//2 == 7
    assert analyze(samples, 7).k_max == 7
    with pytest.raises(InvalidParameterError):
        analyze(samples, 0)
    with pytest.raises(InvalidParameterError):
        analyze(np.zeros((4, 4)), 1)


def test_analyze_constant_function():
    out = analyze(np.full(11, 3.5), 2)
    assert abs(out.coeff(0) - 3.5) < 1e-14
    assert np.all(np.abs(np.delete(out.coeffs, 2)) < 1e-14)
