"""Sequence-space simulator: exactness, moments, determinism, rendering."""
import math

import numpy as np
import pytest

from shiftdecon.catalog import wave_template
from shiftdecon.errors import (AliasingError, InvalidParameterError,
                               InvariantViolationError)
from shiftdecon.simulate import (SequenceObservations, SequenceSummary,
                                 _draw_phases, _draw_summaries, render_curves,
                                 render_grid, simulate, simulate_summary)
from shiftdecon import spectral
from shiftdecon.spectral import (ShiftDensity, Template, _synthesis_matrix_t,
                                 gaussian_density, laplace_density,
                                 point_mass_density, synthesize,
                                 uniform_density)

K_MAX = 12
TEMPLATE = Template.from_harmonics(
    0.3, [1.0, -0.4, 0.2, 0.1], [0.5, 0.0, -0.3, 0.05], k_max=K_MAX, label="toy")
LAPLACE = laplace_density(0.1)


def test_noiseless_unshifted_data_is_the_template():
    obs = simulate(TEMPLATE, point_mass_density(), n=5, epsilon=0.0, seed=0)
    assert np.array_equal(obs.per_curve, np.tile(TEMPLATE.coeffs, (5, 1)))
    # the column mean of n equal floats can be off by an ulp (5a rounds)
    assert np.allclose(obs.c_tilde, TEMPLATE.coeffs, rtol=1e-15, atol=1e-16)
    assert np.all(obs.gamma_tilde == 1.0)
    assert np.all(obs.shifts == 0.0)


def test_noiseless_shifted_modulus_is_preserved():
    # |c_{j,k}| = |theta_k| exactly when epsilon = 0, whatever the shifts
    obs = simulate(TEMPLATE, LAPLACE, n=40, epsilon=0.0, seed=3)
    assert np.allclose(np.abs(obs.per_curve),
                       np.tile(np.abs(TEMPLATE.coeffs), (40, 1)), atol=1e-14)


def test_noiseless_phase_factorization():
    # c_{j,k} / theta_k recovers exp(-2 pi i k tau_j) wherever theta_k != 0
    obs = simulate(TEMPLATE, LAPLACE, n=8, epsilon=0.0, seed=4)
    k = 1 + K_MAX
    expected = np.exp(-2j * np.pi * obs.shifts)
    assert np.allclose(obs.per_curve[:, k] / TEMPLATE.coeff(1), expected, atol=1e-12)


def test_validate_passes_on_fresh_datasets():
    for seed in range(30):
        obs = simulate(TEMPLATE, LAPLACE, n=17, epsilon=0.05, seed=seed)
        obs.validate()  # must not raise


def test_validate_catches_tampering():
    obs = simulate(TEMPLATE, LAPLACE, n=6, epsilon=0.05, seed=1)
    bad = SequenceObservations(per_curve=obs.per_curve,
                               c_tilde=obs.c_tilde + 1e-9,
                               gamma_tilde=obs.gamma_tilde,
                               n=obs.n, epsilon=obs.epsilon, k_max=obs.k_max)
    with pytest.raises(Exception):
        bad.validate()


def _tamper_k0(gt):
    gt[K_MAX] = 0.5


def _tamper_one_side(gt):
    gt[K_MAX + 1] += 1e-9


def _tamper_modulus(gt):
    gt[K_MAX + 1] = gt[K_MAX - 1] = 1.0 + 1e-11


@pytest.mark.parametrize("tamper,message", [
    (_tamper_k0, "at k=0 must be exactly 1"),
    (_tamper_one_side, "not exactly Hermitian"),
    (_tamper_modulus, "exceeds 1 beyond rounding slack"),
], ids=["k0", "hermitian", "modulus"])
def test_summary_validate_refuses_each_broken_invariant_on_any_row(tamper, message):
    # the second row of a stack of two is tampered with; |gamma_tilde| may
    # pass 1 by 1e-12, not more
    summary = simulate_summary(TEMPLATE, LAPLACE, n=6, epsilon=0.05, seed=1)
    gamma_tilde = np.stack([summary.gamma_tilde, summary.gamma_tilde])
    tamper(gamma_tilde[1])
    stack = SequenceSummary(c_tilde=np.stack([summary.c_tilde] * 2), gamma_tilde=gamma_tilde,
                            n=6, epsilon=0.05, k_max=K_MAX)
    with pytest.raises(InvariantViolationError, match=message):
        stack.validate()
    gamma_tilde[1, K_MAX + 1] = gamma_tilde[1, K_MAX - 1] = 1.0 + 5e-13
    gamma_tilde[1, K_MAX] = 1.0
    stack.validate()


def test_parameter_validation():
    for n in (0, True):
        with pytest.raises(InvalidParameterError):
            simulate(TEMPLATE, LAPLACE, n=n, epsilon=0.1, seed=0)
    for epsilon in (-0.1, math.inf, 1e155):
        with pytest.raises(InvalidParameterError):
            simulate(TEMPLATE, LAPLACE, n=4, epsilon=epsilon, seed=0)


def test_coeff_index_bounds():
    obs = simulate(TEMPLATE, LAPLACE, n=2, epsilon=0.0, seed=0)
    assert obs.coeff_index(0) == K_MAX
    assert obs.coeff_index(-K_MAX) == 0
    for bad in (K_MAX + 1, 1.5, True):
        with pytest.raises(InvalidParameterError):
            obs.coeff_index(bad)


# ---------------------------------------------------------------------------
# moments


def test_pure_noise_second_moment():
    """theta = 0: mean_k |c_tilde_k|^2 ~ epsilon^2 / n."""
    eps, n = 0.2, 25
    zero = Template(coeffs=np.zeros(2 * K_MAX + 1, dtype=complex), k_max=K_MAX)
    acc = []
    for seed in range(30):
        obs = simulate(zero, LAPLACE, n=n, epsilon=eps, seed=100 + seed)
        acc.append(np.abs(obs.c_tilde) ** 2)
    # 30*(2K+1) = 750 chi^2-type terms; relative scatter ~ 1/sqrt(750) ~ 3.7%
    assert abs(np.mean(acc) / (eps**2 / n) - 1.0) < 0.05


def test_mean_coefficient_unbiased():
    """E c_tilde_k = theta_k gamma_k, checked at 5 stderr over 10^4 replicates."""
    n, eps, reps = 4, 0.1, 10_000
    k_band = np.arange(-10, 11)
    gamma = LAPLACE.gamma(k_band)
    theta = TEMPLATE.coeffs[(k_band + K_MAX)]
    rng = np.random.default_rng(2024)
    sums = np.zeros(k_band.size, dtype=complex)
    sq = np.zeros(k_band.size)
    for _ in range(reps):
        obs = simulate(TEMPLATE, LAPLACE, n=n, epsilon=eps, seed=rng)
        vals = obs.c_tilde[(k_band + K_MAX)]
        sums += vals
        sq += np.abs(vals) ** 2
    mean = sums / reps
    # per-replicate complex variance, for an honest stderr
    var = sq / reps - np.abs(mean) ** 2
    stderr = np.sqrt(var / reps)
    assert np.all(np.abs(mean - theta * gamma) < 5.0 * np.maximum(stderr, 1e-12))


def test_empirical_char_fn_second_moment():
    """E |gamma_tilde_k|^2 = |gamma_k|^2 + (1 - |gamma_k|^2)/n exactly."""
    n, reps = 5, 10_000
    ks = np.array([1, 2, 5, 9])
    gamma2 = np.abs(LAPLACE.gamma(ks)) ** 2
    expected = gamma2 + (1.0 - gamma2) / n
    rng = np.random.default_rng(77)
    vals = np.empty((reps, ks.size))
    for r in range(reps):
        obs = simulate(TEMPLATE, LAPLACE, n=n, epsilon=0.0, seed=rng)
        vals[r] = np.abs(obs.gamma_tilde[(ks + K_MAX)]) ** 2
    mean = vals.mean(axis=0)
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mean - expected) < 5.0 * stderr)


def test_noise_second_moment_per_entry():
    # E |c_{j,k} - theta_k e^{-2 pi i k tau}|^2 = eps^2, i.e. E|z|^2 = 1
    eps = 0.3
    obs = simulate(TEMPLATE, point_mass_density(), n=400, epsilon=eps, seed=9)
    resid = obs.per_curve - TEMPLATE.coeffs[np.newaxis, :]
    second = np.mean(np.abs(resid) ** 2)
    assert abs(second / eps**2 - 1.0) < 0.02  # 400*25 samples


# ---------------------------------------------------------------------------
# determinism


def test_identical_seeds_identical_datasets():
    a = simulate(TEMPLATE, LAPLACE, n=13, epsilon=0.07, seed=42)
    b = simulate(TEMPLATE, LAPLACE, n=13, epsilon=0.07, seed=42)
    assert np.array_equal(a.per_curve, b.per_curve)
    assert np.array_equal(a.c_tilde, b.c_tilde)
    assert np.array_equal(a.gamma_tilde, b.gamma_tilde)
    assert np.array_equal(a.shifts, b.shifts)


def test_seed_sequence_and_int_seeds_agree():
    a = simulate(TEMPLATE, LAPLACE, n=6, epsilon=0.1, seed=7)
    b = simulate(TEMPLATE, LAPLACE, n=6, epsilon=0.1,
                 seed=np.random.SeedSequence(7))
    assert np.array_equal(a.per_curve, b.per_curve)


def test_different_seeds_differ():
    a = simulate(TEMPLATE, LAPLACE, n=6, epsilon=0.1, seed=1)
    b = simulate(TEMPLATE, LAPLACE, n=6, epsilon=0.1, seed=2)
    assert not np.array_equal(a.per_curve, b.per_curve)


# ---------------------------------------------------------------------------
# rendering


def test_render_grid_values():
    g = render_grid(8)
    assert np.array_equal(g, np.arange(8) / 8)
    with pytest.raises(InvalidParameterError):
        render_grid(0)


def test_render_matches_synthesize_for_clean_data():
    obs = simulate(TEMPLATE, point_mass_density(), n=3, epsilon=0.0, seed=0)
    rows = render_curves(obs, 64)
    direct = synthesize(TEMPLATE, 64)
    for j in range(3):
        assert np.array_equal(rows[j], direct)  # same helper, same bytes


def test_render_row_count_independence():
    # the j-th curve renders to the same bytes whether simulated alone or not
    big = simulate(wave_template(16), LAPLACE, n=7, epsilon=0.05, seed=11)
    rows = render_curves(big, 40)
    one = SequenceObservations(per_curve=big.per_curve[2:3],
                               c_tilde=big.per_curve[2:3].mean(axis=0),
                               gamma_tilde=big.gamma_tilde, n=1,
                               epsilon=big.epsilon, k_max=big.k_max)
    assert np.array_equal(render_curves(one, 40)[0], rows[2])


def test_render_grid_mean_identity():
    """Grid mean of each rendered curve equals Re c_{j,0} exactly.

    On a uniform grid every oscillating column of the synthesis matrix sums
    to zero, so only the k=0 coefficient survives averaging; the
    symmetrization keeps its real part.
    """
    obs = simulate(TEMPLATE, LAPLACE, n=20, epsilon=0.25, seed=8)
    for grid in (2 * K_MAX + 1, 64, 101):
        rows = render_curves(obs, grid)
        means = rows.mean(axis=1)
        c0 = obs.per_curve[:, K_MAX].real
        assert np.allclose(means, c0, atol=1e-13)


def test_render_aliasing_guard():
    obs = simulate(TEMPLATE, LAPLACE, n=2, epsilon=0.1, seed=0)
    with pytest.raises(AliasingError):
        render_curves(obs, 2 * K_MAX)


def test_render_matches_per_row_reference_bit_for_bit():
    k_max, n, grid = 256, 12, 1024
    obs = simulate(wave_template(k_max), LAPLACE, n=n, epsilon=0.05, seed=4)
    sym = 0.5 * (obs.per_curve + np.conj(obs.per_curve[:, ::-1]))
    mat = _synthesis_matrix_t(k_max, grid)
    expected = np.array([(sym[j : j + 1] @ mat)[0].real for j in range(n)])
    assert np.array_equal(render_curves(obs, grid), expected)


def test_render_builds_the_synthesis_matrix_once(monkeypatch):
    calls = []

    def counting(k_max, grid_size):
        calls.append((k_max, grid_size))
        return _synthesis_matrix_t(k_max, grid_size)

    monkeypatch.setattr(spectral, "_synthesis_matrix_t", counting)
    obs = simulate(TEMPLATE, LAPLACE, n=9, epsilon=0.1, seed=2)
    render_curves(obs, 64)
    assert calls == [(K_MAX, 64)]


def test_rendered_noise_scale():
    # pointwise variance of a rendered pure-noise curve is eps^2 (2K+1)/2:
    # symmetrizing halves the variance of each of the 2K+1 complex entries
    eps, n = 0.5, 200
    zero = Template(coeffs=np.zeros(2 * K_MAX + 1, dtype=complex), k_max=K_MAX)
    obs = simulate(zero, point_mass_density(), n=n, epsilon=eps, seed=21)
    rows = render_curves(obs, 50)
    expected = eps**2 * (2 * K_MAX + 1) / 2.0
    assert abs(np.mean(rows**2) / expected - 1.0) < 0.05


# ---------------------------------------------------------------------------
# summary-only draw


def test_summary_gamma_tilde_is_simulate_bit_for_bit():
    densities = (LAPLACE, gaussian_density(0.15), uniform_density(0.2),
                 point_mass_density())
    for density in densities:
        for n, epsilon, seed in ((1, 0.0, 0), (7, 0.05, 3), (250, 0.3, 11),
                                 (40, 0.0, np.random.SeedSequence(5).spawn(3)[2])):
            full = simulate(TEMPLATE, density, n, epsilon, seed)
            summary = simulate_summary(TEMPLATE, density, n, epsilon, seed)
            assert type(summary) is SequenceSummary
            assert summary.gamma_tilde.tobytes() == full.gamma_tilde.tobytes()
            assert (summary.n, summary.epsilon, summary.k_max) == (n, epsilon, K_MAX)
            summary.validate()


def test_gamma_tilde_is_the_column_mean_of_the_phase_matrix():
    # reference: the phases by recurrence (row 1 is z = exp(-2j pi shift),
    # row k is row k-1 times z), each row and its conjugate averaged on its
    # own, the k = 0 mean exactly 1; bytes must match, signed zeros included
    for density in (LAPLACE, point_mass_density()):
        for n in (1, 7, 49, 250):
            obs = simulate(TEMPLATE, density, n, 0.1, seed=n)
            z = np.exp(-2j * np.pi * obs.shifts)
            rows = [np.ones(n, dtype=complex), z]
            for _ in range(K_MAX - 1):
                rows.append(rows[-1] * z)
            phases = [np.conj(row) for row in rows[:0:-1]] + rows
            ref = np.array([row.mean() for row in phases])
            ref[K_MAX] = 1.0
            assert obs.gamma_tilde.tobytes() == ref.tobytes()


def test_phase_recurrence_is_accurate_at_k_max_256():
    # the recurrence accumulates one rounding per step; at k = 256 it stays
    # within 1e-12 of np.exp (about 2.4e-13 was measured), for the phases
    # and for their means
    k_max, n = 256, 400
    template = wave_template(k_max)
    k = np.arange(k_max + 1)
    for density in (LAPLACE, gaussian_density(0.3), uniform_density(0.5)):
        obs = simulate(template, density, n, 0.0, seed=256)
        exact = np.exp(-2j * np.pi * np.outer(k, obs.shifts))
        assert np.max(np.abs(_draw_phases(obs.shifts, k_max) - exact)) <= 1e-12
        mean = exact.mean(axis=1)
        assert np.max(np.abs(obs.gamma_tilde[k_max:] - mean)) <= 1e-12
        obs.validate()


def test_chunked_draw_matches_each_seed_alone():
    seeds = np.random.SeedSequence(12).spawn(9)
    for density, n, epsilon in ((LAPLACE, 1, 0.0), (LAPLACE, 49, 0.2),
                                (gaussian_density(0.15), 130, 0.05),
                                (point_mass_density(), 7, 0.3)):
        stack = _draw_summaries(TEMPLATE, density, n, epsilon, seeds, len(seeds))
        assert stack.c_tilde.shape == stack.gamma_tilde.shape == (9, 2 * K_MAX + 1)
        stack.validate()
        for i, seed in enumerate(seeds):
            alone = simulate_summary(TEMPLATE, density, n, epsilon, seed)
            full = simulate(TEMPLATE, density, n, epsilon, seed)
            assert stack.gamma_tilde[i].tobytes() == alone.gamma_tilde.tobytes()
            assert stack.gamma_tilde[i].tobytes() == full.gamma_tilde.tobytes()
            assert stack.c_tilde[i].tobytes() == alone.c_tilde.tobytes()


def test_a_draw_split_into_blocks_is_the_unsplit_draw():
    # 1-seed blocks, 4-seed blocks with a ragged last one, and a block larger
    # than the seed count agree byte for byte with the unsplit draw
    seeds = np.random.SeedSequence(21).spawn(11)
    for density, n, epsilon in ((LAPLACE, 1, 0.2), (LAPLACE, 600, 0.05),
                                (uniform_density(0.2), 49, 0.3)):
        whole = _draw_summaries(TEMPLATE, density, n, epsilon, seeds, len(seeds))
        for block in (1, 4, 50):
            split = _draw_summaries(TEMPLATE, density, n, epsilon, seeds, block)
            assert split.gamma_tilde.tobytes() == whole.gamma_tilde.tobytes()
            assert split.c_tilde.tobytes() == whole.c_tilde.tobytes()


def test_summary_noise_is_the_real_then_the_imaginary_parts():
    # after its shifts, each seed's generator gives width real parts, then
    # width imaginary parts, as two separate calls would draw them
    seeds = np.random.SeedSequence(50).spawn(50)
    n, epsilon, width = 30, 0.4, 2 * K_MAX + 1
    stack = _draw_summaries(TEMPLATE, LAPLACE, n, epsilon, seeds, 7)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        LAPLACE.sample(rng, n)
        noise_re, noise_im = rng.standard_normal(width), rng.standard_normal(width)
        noise = (noise_re + 1j * noise_im) * np.sqrt(0.5)
        expected = TEMPLATE.coeffs * stack.gamma_tilde[i] + (epsilon / math.sqrt(n)) * noise
        assert stack.c_tilde[i].tobytes() == expected.tobytes()


def test_summary_noise_moments_at_n_6400():
    """c_tilde - theta * gamma_tilde is CN(0, eps^2/n), i.i.d. over all k.

    Scaled by sqrt(n)/eps the residuals must have real and imaginary parts
    of variance 1/2 each (per coordinate and pooled), no mean, no real-imag
    correlation, and no correlation between k and -k: per-curve noise is
    independent across frequencies, so c_tilde must not be Hermitian.
    """
    n, eps, reps = 6400, 0.2, 400
    seeds = np.random.SeedSequence(6400).spawn(reps)
    z = np.empty((reps, 2 * K_MAX + 1), dtype=complex)
    for r, seed in enumerate(seeds):
        obs = simulate_summary(TEMPLATE, LAPLACE, n, eps, seed)
        z[r] = (obs.c_tilde - TEMPLATE.coeffs * obs.gamma_tilde) * math.sqrt(n) / eps
    assert not np.array_equal(np.conj(obs.c_tilde[::-1]), obs.c_tilde)

    def zscore(samples, expected, variance):
        return abs(np.mean(samples) - expected) / math.sqrt(variance / samples.size)

    re, im = z.real, z.imag
    # x ~ N(0, 1/2): E x = 0, Var x = 1/2; E x^2 = 1/2, Var x^2 = 1/2
    for part in (re, im):
        assert zscore(part, 0.0, 0.5) <= 4.0
        assert zscore(part ** 2, 0.5, 0.5) <= 4.0
        for col in part.T:
            assert zscore(col ** 2, 0.5, 0.5) <= 4.0
    assert zscore(re * im, 0.0, 0.25) <= 4.0
    # k and -k: E z_k z_{-k} = 0 and E z_k conj(z_{-k}) = 0, real and
    # imaginary parts each of variance 1/2 (a Hermitian draw gives |z_k|^2)
    plus, minus = z[:, K_MAX + 1:], z[:, K_MAX - 1::-1]
    for prod in (plus * minus, plus * np.conj(minus)):
        assert zscore(prod.real, 0.0, 0.5) <= 4.0
        assert zscore(prod.imag, 0.0, 0.5) <= 4.0


def test_summary_parameter_validation():
    with pytest.raises(InvalidParameterError):
        simulate_summary(TEMPLATE, LAPLACE, n=0, epsilon=0.1, seed=0)
    with pytest.raises(InvalidParameterError):
        simulate_summary(TEMPLATE, LAPLACE, n=2.0, epsilon=0.1, seed=0)
    for epsilon in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            simulate_summary(TEMPLATE, LAPLACE, n=4, epsilon=epsilon, seed=0)
    short = ShiftDensity(gamma_fn=lambda k: np.ones(np.shape(k), dtype=complex),
                         sampler=lambda rng, size: np.zeros(size - 1))
    for draw in (simulate, simulate_summary):
        with pytest.raises(InvariantViolationError, match="shape"):
            draw(TEMPLATE, short, n=3, epsilon=0.1, seed=0)
