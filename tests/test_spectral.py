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
from shiftdecon.selection import compute_m0, select_cutoff
from shiftdecon.simulate import simulate_summary
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
    uniforms = np.random.default_rng(0).random((3, 50, 1))
    assert d.sample(uniforms).tobytes() == np.zeros((3, 50)).tobytes()
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
                               sampler=lambda u: np.zeros(u.shape[:-1]))
        assert np.array_equal(density.gamma_band(1), np.ones(3))
        with pytest.raises(InvariantViolationError, match="at k=2 is not finite"):
            density.gamma_band(3)
        # compute_m0 reads gamma, not gamma_band, to scan past vanishing
        # eigenvalues; it must still refuse, not return a saturated cap
        with pytest.raises(InvariantViolationError, match="at k=2 is not finite"):
            compute_m0(density, 100, 8)


def _constant_density(value):
    return ShiftDensity(gamma_fn=lambda k: np.full(np.shape(k), value),
                        sampler=lambda u: np.zeros(u.shape[:-1]))


def test_gamma_band_refuses_a_modulus_above_one():
    # |gamma_k|^2 may pass 1 by the 1e-12 rounding slack that
    # SequenceObservations.validate allows, and no further: a band of 2s gave
    # finite but meaningless risks
    assert np.array_equal(_constant_density(1.0 + 1e-13).gamma_band(3), np.full(7, 1.0 + 1e-13))
    for value in (2.0, 1.0 + 1e-11, -1.5, 1.5j):
        with pytest.raises(InvariantViolationError, match=r"at k=-3 .* exceeds 1 \+ 1e-12"):
            _constant_density(value).gamma_band(3)
        # compute_m0 reads gamma from k=0, so its refusal names k=0
        with pytest.raises(InvariantViolationError, match=r"at k=0 .* exceeds 1 \+ 1e-12"):
            compute_m0(_constant_density(value), 100, 8)
    wave = wave_template(8)
    with pytest.raises(InvariantViolationError, match="exceeds 1"):
        risk_report(wave, _constant_density(2.0), 20, 0.1, 3)
    with pytest.raises(InvariantViolationError, match="exceeds 1"):
        mc_risk(wave, _constant_density(2.0), 20, 0.1, "theta_tilde", 4, seed=0, m0=3)


def _shifted_laplace(k):
    # Laplace(0.1) shifts moved by 0.3: gamma_k is complex and Hermitian
    return np.exp(-0.6j * np.pi * k) / (1.0 + 0.2 * np.pi ** 2 * np.square(k.astype(float)))


@pytest.mark.parametrize("gamma_fn,match", [
    (lambda k: np.full(np.shape(k), 0.5), r"gamma_0 = \(0\.5\+0j\) at k=0 differs from 1"),
    (lambda k: np.zeros(np.shape(k)), r"gamma_0 = 0j at k=0 differs from 1"),
    (lambda k: np.full(np.shape(k), 1.0 - 1e-11), "at k=0 differs from 1 by more than 1e-12"),
    (lambda k: np.where(k < 0, 0.5, 1.0 / (1.0 + 0.2 * np.square(k.astype(float)))),
     r"\|gamma_\(-k\) - conj\(gamma_k\)\| = .* at k=-4 exceeds 1e-12"),
    (lambda k: _shifted_laplace(np.abs(k)), "at k=-4 exceeds 1e-12"),
], ids=["half", "zero", "one_minus_1e-11", "asymmetric", "even_not_hermitian"])
def test_a_density_that_is_not_a_law_is_refused(gamma_fn, match):
    # with point-mass shifts and gamma == 0.5, risk_report's r[4] was 0.050
    # against an MC mean of 0.957, and compute_m0 returned a saturated cap;
    # with the asymmetric band, r[4] was 0.046 against 0.853
    density = ShiftDensity(gamma_fn=gamma_fn, sampler=lambda u: np.zeros(u.shape[:-1]))
    wave = wave_template(8)
    obs = simulate_summary(wave, laplace_density(SIGMA), 100, 0.1, 0)
    calls = [lambda: density.gamma_band(4), lambda: risk_report(wave, density, 100, 0.1, 4),
             lambda: mc_risk(wave, density, 100, 0.1, "theta_tilde", 20, seed=0, m0=4),
             lambda: select_cutoff(obs, density, "u_bar", m0=4)]
    if "k=0" in match:  # compute_m0 reads k >= 0 only
        calls += [lambda: density.gamma(0), lambda: compute_m0(density, 100, 8),
                  lambda: select_cutoff(obs, density, "u_tilde")]
    for call in calls:
        with pytest.raises(InvariantViolationError, match=match):
            call()


def test_a_law_within_the_rounding_slack_is_accepted():
    # gamma_0 may miss 1, and gamma_(-k) miss conj(gamma_k), by up to 1e-12
    slack = ShiftDensity(gamma_fn=lambda k: np.where(k < 0, 9e-13, 0.0) + 1.0 - 4.5e-13,
                         sampler=lambda u: np.zeros(u.shape[:-1]))
    assert compute_m0(slack, 100, 8).saturated
    shifted = ShiftDensity(gamma_fn=_shifted_laplace, sampler=lambda u: np.zeros(u.shape[:-1]))
    band = shifted.gamma_band(4)
    assert np.array_equal(band[::-1], np.conj(band)) and band.imag.any()


@pytest.mark.parametrize("gamma_fn", [lambda k: 0.5, lambda k: np.ones(3),
                                      lambda k: np.ones((np.size(k), 1))],
                         ids=["scalar", "fixed length", "column"])
def test_gamma_refuses_a_result_not_shaped_as_its_frequencies(gamma_fn):
    # each of these escaped as a bare TypeError, IndexError or ValueError
    density = ShiftDensity(gamma_fn=gamma_fn, sampler=lambda u: np.zeros(u.shape[:-1]))
    wave = wave_template(8)
    calls = (lambda: density.gamma(np.arange(4)), lambda: density.gamma_band(2),
             lambda: compute_m0(density, 20, 8), lambda: risk_report(wave, density, 20, 0.1, 2),
             lambda: mc_risk(wave, density, 20, 0.1, "theta_tilde", 4, seed=0, m0=2))
    for call in calls:
        with pytest.raises(InvariantViolationError, match="gamma_fn returned shape"):
            call()
    assert laplace_density(SIGMA).gamma(5).shape == ()


@pytest.mark.parametrize("name,value", [("gamma_fn", 3), ("sampler", None)])
def test_a_density_refuses_a_field_that_is_not_callable(name, value):
    # gamma_fn=3 escaped from mc_risk as a bare TypeError; sampler=None gave
    # compute_m0 a cap and simulate a bare TypeError
    fields = dict(gamma_fn=np.ones_like, sampler=lambda u: np.zeros(u.shape[:-1]))
    with pytest.raises(InvalidParameterError, match=f"{name} must be callable, got {value}"):
        ShiftDensity(**dict(fields, **{name: value}))


@pytest.mark.parametrize("value", [0, -1, True, 1.0, "2", None])
def test_a_density_refuses_a_uniform_count_that_is_not_a_positive_integer(value):
    with pytest.raises(InvalidParameterError, match="uniforms_per_shift must be"):
        ShiftDensity(gamma_fn=np.ones_like, sampler=lambda u: np.zeros(u.shape[:-1]),
                     uniforms_per_shift=value)


@pytest.mark.parametrize("density", [laplace_density(SIGMA), gaussian_density(0.1),
                                     uniform_density(0.25), point_mass_density()],
                         ids=["laplace", "gaussian", "uniform", "point_mass"])
def test_a_built_in_density_survives_pickle(density):
    # so that a pool job can carry it
    copy = pickle.loads(pickle.dumps(density))
    k = np.arange(-30, 31)
    assert copy.label == density.label
    assert copy.gamma(k).tobytes() == density.gamma(k).tobytes()
    uniforms = _uniforms(np.random.default_rng(5), density, 40)
    assert copy.uniforms_per_shift == density.uniforms_per_shift
    assert copy.sample(uniforms).tobytes() == density.sample(uniforms).tobytes()


# ---------------------------------------------------------------------------
# sampler vs characteristic function (Monte Carlo)


def _uniforms(rng, density, size):
    """The uniforms of ``size`` shifts of ``density``, one row per shift."""
    return rng.random((size, density.uniforms_per_shift))


@pytest.mark.parametrize("density,seed", [
    (laplace_density(SIGMA), 11),
    (gaussian_density(0.1), 12),
    (uniform_density(0.25), 13),
])
def test_sampler_matches_gamma(density, seed):
    """Empirical char. function of n draws ~= gamma_k within 5 sigma."""
    tau = density.sample(_uniforms(np.random.default_rng(seed), density, N_SAMPLER))
    k = np.arange(1, 11)
    emp = np.exp(-2j * np.pi * np.outer(tau, k)).mean(axis=0)
    # |e^{-2 pi i k tau}| = 1, so each complex mean has stderr <= 1/sqrt(n)
    assert np.all(np.abs(emp - density.gamma(k)) < 5.0 / math.sqrt(N_SAMPLER))


def test_laplace_sample_variance():
    density = laplace_density(SIGMA)
    tau = density.sample(_uniforms(np.random.default_rng(7), density, N_SAMPLER))
    # Var = sigma^2; the sample variance of a Laplace has stdev ~ sigma^2*sqrt(5/n)
    assert abs(np.var(tau) - SIGMA**2) < 5.0 * SIGMA**2 * math.sqrt(5.0 / N_SAMPLER)
    assert abs(np.mean(tau)) < 5.0 * SIGMA / math.sqrt(N_SAMPLER)


@pytest.mark.parametrize("density,variance,kurtosis,seed", [
    (laplace_density(SIGMA), SIGMA ** 2, 6.0, 21),
    (gaussian_density(0.1), 0.1 ** 2, 3.0, 22),
    (uniform_density(0.25), 0.25 ** 2 / 3.0, 9.0 / 5.0, 23),
], ids=["laplace", "gaussian", "uniform"])
def test_each_uniform_map_has_its_laws_mean_and_variance(density, variance, kurtosis, seed):
    # mean 0 and variance sigma^2 (a^2 / 3 for the uniform) within 5 standard
    # errors; the sample variance has variance (E tau^4 - sigma^4) / n
    tau = density.sample(_uniforms(np.random.default_rng(seed), density, 4 * N_SAMPLER))
    assert tau.shape == (4 * N_SAMPLER,) and np.isfinite(tau).all()
    assert abs(np.mean(tau)) < 5.0 * math.sqrt(variance / tau.size)
    assert abs(np.var(tau) - variance) < 5.0 * variance * math.sqrt((kurtosis - 1.0) / tau.size)


@pytest.mark.parametrize("density", [laplace_density(SIGMA), gaussian_density(0.1),
                                     uniform_density(0.25), point_mass_density()],
                         ids=["laplace", "gaussian", "uniform", "point_mass"])
def test_each_uniform_map_is_finite_at_both_ends_and_elementwise(density):
    # 0 is a uniform the generator can give, and the largest double below 1
    # too: neither maps to an infinite shift; a shift reads its own uniforms
    # only, so a stack of rows maps row by row, bit for bit
    ends = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
    grid = np.stack(np.meshgrid(*[ends] * density.uniforms_per_shift), -1).reshape(
        -1, density.uniforms_per_shift)
    assert np.isfinite(density.sample(grid)).all()
    rows = _uniforms(np.random.default_rng(3), density, 60).reshape(
        4, 15, density.uniforms_per_shift)
    stacked = density.sample(rows)
    for i, row in enumerate(rows):
        assert stacked[i].tobytes() == density.sample(row).tobytes()


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
