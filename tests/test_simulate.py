"""Sequence-space simulator: exactness, moments, determinism, rendering."""
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from shiftdecon.catalog import wave_template
from shiftdecon.errors import (AliasingError, InvalidParameterError,
                               InvariantViolationError)
from shiftdecon.selection import select_cutoff
from shiftdecon.simulate import (SequenceObservations, SequenceSummary,
                                 _draw_phases, _draw_summaries, _noise, render_curves,
                                 render_grid, simulate, simulate_summary)
from shiftdecon.spectral import (ShiftDensity, Template, _box_muller, _synthesize_rows,
                                 analyze, gaussian_density, laplace_density,
                                 point_mass_density, synthesize,
                                 uniform_density)

K_MAX = 12
TEMPLATE = Template.from_harmonics(
    0.3, [1.0, -0.4, 0.2, 0.1], [0.5, 0.0, -0.3, 0.05], k_max=K_MAX, label="toy")
# every coefficient 1: a noiseless summary's c_tilde is its gamma_tilde
ONES = Template(coeffs=np.ones(2 * K_MAX + 1, dtype=complex), k_max=K_MAX)
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
    # and c_tilde, n and k_max are those its curves determine, byte for byte
    for seed in range(30):
        obs = simulate(TEMPLATE, LAPLACE, n=17, epsilon=0.05, seed=seed)
        obs.validate()  # must not raise
        assert obs.c_tilde.tobytes() == obs.per_curve.mean(axis=0).tobytes()
        assert (obs.n, obs.k_max, obs.epsilon) == (17, K_MAX, 0.05)
    for per_curve in ([[2.0]], np.ones((1, 3)), np.ones((4, 2 * K_MAX + 1))):
        alone = SequenceObservations(per_curve=per_curve, epsilon=0.1)
        assert alone.c_tilde.tobytes() == np.mean(per_curve, axis=0).tobytes()
        assert (alone.n, alone.k_max) == (len(per_curve), len(per_curve[0]) // 2)
        assert alone.gamma_tilde is None and alone.shifts is None
        alone.validate()  # no drawn gamma_tilde: nothing to check


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
def test_validate_refuses_each_broken_invariant_of_gamma_tilde(tamper, message):
    # |gamma_tilde| may pass 1 by 1e-12, not more
    obs = simulate(TEMPLATE, LAPLACE, n=6, epsilon=0.05, seed=1)
    gamma_tilde = obs.gamma_tilde.copy()
    tamper(gamma_tilde)
    bad = SequenceObservations(per_curve=obs.per_curve, epsilon=0.05, gamma_tilde=gamma_tilde)
    with pytest.raises(InvariantViolationError, match=message):
        bad.validate()
    gamma_tilde[K_MAX + 1] = gamma_tilde[K_MAX - 1] = 1.0 + 5e-13
    gamma_tilde[K_MAX] = 1.0
    bad.validate()


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
    sums = np.zeros(k_band.size, dtype=complex)
    sq = np.zeros(k_band.size)
    for seed in np.random.SeedSequence(2024).spawn(reps):
        obs = simulate(TEMPLATE, LAPLACE, n=n, epsilon=eps, seed=seed)
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
    vals = np.empty((reps, ks.size))
    for r, seed in enumerate(np.random.SeedSequence(77).spawn(reps)):
        obs = simulate(TEMPLATE, LAPLACE, n=n, epsilon=0.0, seed=seed)
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
    one = SequenceObservations(per_curve=big.per_curve[2:3], epsilon=big.epsilon)
    assert np.array_equal(render_curves(one, 40)[0], rows[2])


def test_render_grid_mean_identity():
    """Grid mean of each rendered curve equals Re c_{j,0} exactly.

    On a uniform grid every oscillating exponential ``exp(2j pi k x_j)``,
    ``0 < |k| < grid_size``, sums to zero, so only the k=0 coefficient
    survives averaging; the symmetrization keeps its real part.
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


def _ifft_row(sym_row, k_max, grid):
    # one row's band in its FFT bins, frequency k at bin k mod grid
    spec = np.zeros(grid, dtype=complex)
    spec[np.arange(-k_max, k_max + 1) % grid] = sym_row
    return np.fft.ifft(spec, norm="forward").real


def test_render_matches_per_row_reference_bit_for_bit():
    k_max, n, grid = 256, 12, 1024
    obs = simulate(wave_template(k_max), LAPLACE, n=n, epsilon=0.05, seed=4)
    sym = 0.5 * (obs.per_curve + np.conj(obs.per_curve[:, ::-1]))
    expected = np.array([_ifft_row(sym[j], k_max, grid) for j in range(n)])
    assert np.array_equal(render_curves(obs, grid), expected)


# k_max = 0, the tightest grid 2k_max+1, odd, even and prime (1021) grids
@pytest.mark.parametrize("k_max,grid", [(0, 1), (1, 3), (40, 81), (40, 256), (100, 201),
                                         (256, 1021), (256, 1024), (5, 4096), (600, 1201)])
def test_a_row_renders_the_same_alone_and_in_a_stack(k_max, grid):
    rng = np.random.default_rng(k_max + grid)
    rows = rng.standard_normal((6, 2 * k_max + 1)) + 1j * rng.standard_normal((6, 2 * k_max + 1))
    stack = _synthesize_rows(rows, k_max, grid)
    assert stack.dtype == float and stack.flags.c_contiguous and stack.shape == (6, grid)
    for j in range(6):
        assert np.array_equal(stack[j], _synthesize_rows(rows[j : j + 1], k_max, grid)[0])


@pytest.mark.parametrize("k_max,grid", [(1, 3), (12, 25), (40, 256), (100, 201),
                                         (256, 1021), (256, 1024), (5, 4096)])
def test_render_is_the_direct_sum_to_rounding(k_max, grid):
    # against sum_k c_k exp(2j pi k j / grid) in long double, the phase
    # reduced exactly as (k j mod grid) / grid; the FFT was measured within
    # 2.6e-16 * sum |c_k| of it over these sizes
    rng = np.random.default_rng(grid)
    rows = rng.standard_normal((4, 2 * k_max + 1)) + 1j * rng.standard_normal((4, 2 * k_max + 1))
    sym = 0.5 * (rows + np.conj(rows[:, ::-1]))
    turns = np.outer(np.arange(-k_max, k_max + 1), np.arange(grid)) % grid
    angle = 4 * np.arccos(np.longdouble(0)) * turns.astype(np.longdouble) / grid
    exact = sym.real.astype(np.longdouble) @ np.cos(angle) \
        - sym.imag.astype(np.longdouble) @ np.sin(angle)
    error = np.max(np.abs(_synthesize_rows(rows, k_max, grid) - exact), axis=1)
    assert np.all(error <= 1e-15 * np.sum(np.abs(sym), axis=1))


def test_render_memory_is_the_spectrum_and_the_rows():
    # at k_max = 256 and 100 x 1024 curves the render peaks at 3.28 MB: the
    # Hermitian rows (0.82 MB), the padded spectrum transformed in place
    # (1.64 MB) and the real samples (0.82 MB)
    obs = simulate(wave_template(256), LAPLACE, n=100, epsilon=0.05, seed=5)

    def peak():
        tracemalloc.start()
        try:
            render_curves(obs, 1024)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # numpy's first calls allocate what they keep
    assert peak() <= 3_600_000


def test_rendered_noise_scale():
    # pointwise variance of a rendered pure-noise curve is eps^2 (2K+1): each
    # curve's noise is Hermitian, so rendering keeps all of its 2K+1 entries
    eps, n = 0.5, 200
    zero = Template(coeffs=np.zeros(2 * K_MAX + 1, dtype=complex), k_max=K_MAX)
    obs = simulate(zero, point_mass_density(), n=n, epsilon=eps, seed=21)
    rows = render_curves(obs, 50)
    expected = eps**2 * (2 * K_MAX + 1)
    assert abs(np.mean(rows**2) / expected - 1.0) < 0.05


@pytest.mark.parametrize("density", [LAPLACE, gaussian_density(0.02)],
                         ids=["laplace", "gaussian"])
def test_analyzing_rendered_curves_gives_back_the_draw(density):
    # a drawn curve is real, so rendering drops only rounding: analyze gives
    # back each row of per_curve within 1e-12, and the dataset of the
    # analyzed curves alone selects the cutoffs the draw selects (the
    # reference study's setting)
    template, grid = wave_template(40), 256
    for seed in range(6):
        obs = simulate(template, density, 100, 0.015, seed)
        rows = render_curves(obs, grid)
        per_curve = np.array([analyze(row, 40).coeffs for row in rows])
        assert np.max(np.abs(per_curve - obs.per_curve)) <= 1e-12
        analyzed = SequenceObservations(per_curve=per_curve, epsilon=obs.epsilon)
        assert (analyzed.n, analyzed.k_max) == (obs.n, obs.k_max)
        for rule in ("u_bar", "u_tilde"):
            assert (select_cutoff(analyzed, density, rule, m0=32).chosen_n
                    == select_cutoff(obs, density, rule, m0=32).chosen_n)


# ---------------------------------------------------------------------------
# summary-only draw


def test_summary_gamma_tilde_is_simulate_bit_for_bit():
    # the summary draws simulate's shifts: with no noise and every
    # coefficient 1 its c_tilde is their gamma_tilde, which it does not keep
    densities = (LAPLACE, gaussian_density(0.15), uniform_density(0.2),
                 point_mass_density())
    for density in densities:
        for n, seed in ((1, 0), (7, 3), (250, 11), (40, np.random.SeedSequence(5).spawn(3)[2])):
            full = simulate(ONES, density, n, 0.0, seed)
            summary = simulate_summary(ONES, density, n, 0.0, seed)
            assert type(summary) is SequenceSummary and not hasattr(summary, "gamma_tilde")
            assert summary.c_tilde.tobytes() == full.gamma_tilde.tobytes()
            assert (summary.n, summary.epsilon, summary.k_max) == (n, 0.0, K_MAX)
    assert [f.name for f in fields(SequenceSummary)] == ["c_tilde", "n", "epsilon", "k_max"]
    assert not hasattr(SequenceSummary, "validate")


def _reference_gamma_tilde(shifts):
    """The phases by recurrence (row 1 is z = exp(-2j pi shift), row k is
    row k-1 times z), each row and its conjugate averaged on its own, the
    k = 0 mean exactly 1."""
    z = np.exp(-2j * np.pi * shifts)
    rows = [np.ones(len(shifts), dtype=complex), z]
    for _ in range(K_MAX - 1):
        rows.append(rows[-1] * z)
    phases = [np.conj(row) for row in rows[:0:-1]] + rows
    ref = np.array([row.mean() for row in phases])
    ref[K_MAX] = 1.0
    return ref


def test_gamma_tilde_is_the_column_mean_of_the_phase_matrix():
    # bytes must match the reference, signed zeros included
    for density in (LAPLACE, point_mass_density()):
        for n in (1, 7, 49, 250):
            obs = simulate(TEMPLATE, density, n, 0.1, seed=n)
            assert obs.gamma_tilde.tobytes() == _reference_gamma_tilde(obs.shifts).tobytes()


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
    # each replicate of a chunk drawn alone, at its own start; replicate 0 is
    # simulate_summary's draw, and, with no noise, the ONES template's
    # c_tilde is simulate's gamma_tilde
    for template, density, n, epsilon in ((ONES, LAPLACE, 1, 0.0), (TEMPLATE, LAPLACE, 49, 0.2),
                                          (ONES, gaussian_density(0.15), 130, 0.0),
                                          (TEMPLATE, point_mass_density(), 7, 0.3)):
        stack = _draw_summaries(template, density, n, epsilon, 12, 0, 9, 9)
        assert stack.c_tilde.shape == (9, 2 * K_MAX + 1)
        for i in range(9):
            alone = _draw_summaries(template, density, n, epsilon, 12, i, 1, 1)
            assert stack.c_tilde[i].tobytes() == alone.c_tilde[0].tobytes()
        first = simulate_summary(template, density, n, epsilon, 12)
        assert stack.c_tilde[0].tobytes() == first.c_tilde.tobytes()
        if template is ONES:
            assert (stack.c_tilde[0].tobytes()
                    == simulate(ONES, density, n, 0.0, 12).gamma_tilde.tobytes())


def test_a_draw_split_into_blocks_is_the_unsplit_draw():
    # 1-replicate blocks, 4-replicate blocks with a ragged last one, and a
    # block larger than the chunk agree byte for byte with the unsplit draw,
    # for a chunk at replicate 0 and one further on; with no noise the ONES
    # template's c_tilde is the draw's gamma_tilde
    for template, density, n, epsilon in ((TEMPLATE, LAPLACE, 1, 0.2),
                                          (ONES, LAPLACE, 600, 0.0),
                                          (TEMPLATE, uniform_density(0.2), 49, 0.3),
                                          (ONES, gaussian_density(0.15), 30, 0.0)):
        for start in (0, 37):
            whole = _draw_summaries(template, density, n, epsilon, 21, start, 11, 11)
            for block in (1, 4, 50):
                split = _draw_summaries(template, density, n, epsilon, 21, start, 11, block)
                assert split.c_tilde.tobytes() == whole.c_tilde.tobytes()


def _philox(seed, counter):
    """``seed``'s stream from ``counter`` on, by hand."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _reference_normals(uniforms):
    """Box-Muller by hand: of 2m uniforms the first m give the radii and the
    last m the angles; the cosine sides come first, then the sine sides."""
    m = uniforms.shape[-1] // 2
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[..., :m]))
    angle = 2.0 * np.pi * uniforms[..., m:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def _reference_noise(normals):
    """The documented noise law of one curve: z_0 real, then the real parts
    and the imaginary parts of k = 1..K times sqrt(1/2), the negative half
    mirrored."""
    k_max = normals.shape[-1] // 2
    half = normals[..., 1 : k_max + 1] * math.sqrt(0.5) + 1j * (
        normals[..., k_max + 1 :] * math.sqrt(0.5))
    full = np.empty(normals.shape[:-1] + (2 * k_max + 1,), dtype=complex)
    full[..., k_max] = normals[..., 0]
    full[..., k_max + 1 :] = half
    full[..., :k_max] = np.conj(half[..., ::-1])
    return full


def test_summary_noise_is_the_uniforms_after_the_shifts():
    # replicate i reads M = n * uniforms_per_shift + 2 K + 2, rounded up to a
    # multiple of 4, uniforms from counter i M / 4 of the Philox stream keyed
    # by SeedSequence(seed): its shifts, then the 2 K + 2 uniforms of its
    # noise row's Box-Muller normals, of which it keeps the first 2 K + 1
    n, epsilon, width = 30, 0.4, 2 * K_MAX + 2
    for density in (LAPLACE, gaussian_density(0.15)):
        per_shift = density.uniforms_per_shift
        run = -(-(n * per_shift + width) // 4) * 4
        stack = _draw_summaries(TEMPLATE, density, n, epsilon, 50, 3, 20, 7)
        for i in range(20):
            uniforms = _philox(50, (3 + i) * run // 4).random(run)
            shifts = density.sample(uniforms[: n * per_shift].reshape(n, per_shift))
            normals = _reference_normals(uniforms[n * per_shift : n * per_shift + width])
            noise = _reference_noise(normals[: width - 1])
            gamma_tilde = _reference_gamma_tilde(shifts)
            expected = TEMPLATE.coeffs * gamma_tilde + (epsilon / math.sqrt(n)) * noise
            assert stack.c_tilde[i].tobytes() == expected.tobytes()


def test_simulate_reads_replicate_zeros_shifts_and_its_own_noise():
    # the shifts are replicate 0's uniforms; the per-curve noise is one row of
    # 2 K + 1 standard normals per curve from counter 2**192 of the same
    # stream; a Generator, which has no counter to set, is refused
    n, epsilon, width = 9, 0.3, 2 * K_MAX + 1
    zero = Template(coeffs=np.zeros(2 * K_MAX + 1, dtype=complex), k_max=K_MAX)
    for density in (LAPLACE, gaussian_density(0.15)):
        per_shift = density.uniforms_per_shift
        obs = simulate(zero, density, n, epsilon, 8)
        shifts = density.sample(_philox(8, 0).random((n, per_shift)))
        assert obs.shifts.tobytes() == shifts.tobytes()
        normals = _philox(8, 1 << 192).standard_normal((n, width))
        assert obs.per_curve.tobytes() == (epsilon * _reference_noise(normals)).tobytes()
        for draw in (simulate, simulate_summary):
            with pytest.raises(InvalidParameterError, match="seed must be an integer"):
                draw(zero, density, n, epsilon, np.random.default_rng(4))


def test_noise_law_of_a_real_curve():
    # the summary's noise row, Box-Muller normals through _noise: z_0 is real
    # N(0, 1); for k >= 1 the real and imaginary parts are N(0, 1/2);
    # E|z_k|^2 = 1 at every k; each row is exactly Hermitian
    k_max, rows = 6, 40_000
    uniforms = np.random.default_rng(12).random((rows, 2 * k_max + 2))
    z = _noise(_box_muller(uniforms)[:, : 2 * k_max + 1])
    assert z.shape == (rows, 2 * k_max + 1)
    assert np.array_equal(np.conj(z[:, ::-1]), z)
    assert np.all(z[:, k_max].imag == 0.0)
    energy = np.abs(z) ** 2  # Var |z_0|^2 = 2, Var |z_k|^2 = 1 for k >= 1
    stderr = np.sqrt(np.where(np.arange(-k_max, k_max + 1) == 0, 2.0, 1.0) / rows)
    assert np.all(np.abs(energy.mean(axis=0) - 1.0) <= 4.0 * stderr)
    for part in (z[:, k_max + 1:].real, z[:, k_max + 1:].imag):
        assert np.all(np.abs(part.mean(axis=0)) <= 4.0 * math.sqrt(0.5 / rows))
        assert np.all(np.abs((part ** 2).mean(axis=0) - 0.5) <= 4.0 * math.sqrt(0.5 / rows))


def test_per_curve_noise_is_hermitian_with_unit_energy_at_every_k():
    eps, n = 0.5, 4000
    zero = Template(coeffs=np.zeros(2 * K_MAX + 1, dtype=complex), k_max=K_MAX)
    obs = simulate(zero, LAPLACE, n=n, epsilon=eps, seed=31)
    assert np.array_equal(np.conj(obs.per_curve[:, ::-1]), obs.per_curve)
    assert np.all(obs.per_curve[:, K_MAX].imag == 0.0)
    energy = np.mean(np.abs(obs.per_curve / eps) ** 2, axis=0)
    stderr = np.sqrt(np.where(np.arange(-K_MAX, K_MAX + 1) == 0, 2.0, 1.0) / n)
    assert np.all(np.abs(energy - 1.0) <= 4.0 * stderr)


def test_summary_noise_moments_at_n_6400():
    """A summary of pure noise, theta = 0, is eps/sqrt(n) times one noise
    row of a real curve.

    Scaled by sqrt(n)/eps the residuals are exactly Hermitian, with a real
    z_0 of variance 1, and for k >= 1 real and imaginary parts of variance
    1/2 each (per coordinate and pooled), no mean, no real-imag correlation,
    and no correlation between neighbouring frequencies.
    """
    n, eps, reps = 6400, 0.2, 400
    zero = Template(coeffs=np.zeros(2 * K_MAX + 1, dtype=complex), k_max=K_MAX)
    obs = _draw_summaries(zero, LAPLACE, n, eps, 6400, 0, reps, 1)
    z = obs.c_tilde * math.sqrt(n) / eps
    assert np.array_equal(np.conj(obs.c_tilde[:, ::-1]), obs.c_tilde)

    def zscore(samples, expected, variance):
        return abs(np.mean(samples) - expected) / math.sqrt(variance / samples.size)

    z0 = z[:, K_MAX]
    assert np.all(z0.imag == 0.0)
    assert zscore(z0.real, 0.0, 1.0) <= 4.0
    assert zscore(z0.real ** 2, 1.0, 2.0) <= 4.0
    plus = z[:, K_MAX + 1:]
    re, im = plus.real, plus.imag
    # x ~ N(0, 1/2): E x = 0, Var x = 1/2; E x^2 = 1/2, Var x^2 = 1/2
    for part in (re, im):
        assert zscore(part, 0.0, 0.5) <= 4.0
        assert zscore(part ** 2, 0.5, 0.5) <= 4.0
        for col in part.T:
            assert zscore(col ** 2, 0.5, 0.5) <= 4.0
    assert zscore(re * im, 0.0, 0.25) <= 4.0
    # k and k + 1 independent CN(0, 1): their product's parts have variance 1/2
    prod = plus[:, 1:] * plus[:, :-1]
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
    # a sampler's result must be n finite reals: complex shifts lost their
    # imaginary part with a ComplexWarning, strings escaped as a bare
    # ValueError, and inf shifts warned, then blamed c_tilde
    for sampler in (lambda u: np.zeros(u.shape[-2] - 1),
                    lambda u: np.full(u.shape[:-1], 0.1j),
                    lambda u: np.full(u.shape[:-1], "a"),
                    lambda u: np.full(u.shape[:-1], np.inf)):
        bad = ShiftDensity(gamma_fn=lambda k: np.ones(np.shape(k), dtype=complex),
                           sampler=sampler)
        for draw in (simulate, simulate_summary):
            with pytest.raises(InvariantViolationError, match="density sampler returned shape"):
                draw(TEMPLATE, bad, n=3, epsilon=0.1, seed=0)
