"""Property tests: exact identities and guards over generated inputs."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftdecon.catalog import sobolev_template, wave_template
from shiftdecon.errors import VanishingEigenvalueError
from shiftdecon import risk
from shiftdecon.risk import _run_replicates, risk_report
from shiftdecon.selection import (CRITERION_KINDS, PENALTY_VARIANTS, _band_energy,
                                  criterion_increments, criterion_trace,
                                  fraction_negative_theta_hat, theta_hat_squared)
from shiftdecon.simulate import SequenceSummary, simulate, simulate_summary
from shiftdecon.spectral import (EIGENVALUE_FLOOR, ShiftDensity, gaussian_density,
                                 laplace_density, point_mass_density,
                                 uniform_density)

LAPLACE = laplace_density(0.1)
WAVE8 = wave_template(8)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=SEEDS, n=st.integers(1, 50), epsilon=st.sampled_from([0.0, 0.01, 0.5]),
       kind=st.sampled_from(CRITERION_KINDS), n_max=st.integers(0, 8),
       variant=st.sampled_from(PENALTY_VARIANTS))
def test_criterion_traces_telescope_bitwise(seed, n, epsilon, kind, n_max, variant):
    obs = simulate(WAVE8, LAPLACE, n, epsilon, seed)
    inc = criterion_increments(obs, LAPLACE, kind, n_max, penalty_variant=variant)
    trace = criterion_trace(obs, LAPLACE, kind, n_max, penalty_variant=variant)
    assert trace[0] == inc[0]
    assert np.array_equal(trace[1:], trace[:-1] + inc[1:])


@settings(max_examples=40, deadline=None, database=None)
@given(seed=SEEDS, k_max=st.integers(0, 256), lead=st.sampled_from([(1,), (5,), (2, 3)]),
       n=st.integers(1, 500), epsilon=st.sampled_from([0.0, 0.01, 0.5]),
       data=st.data())
def test_row_wise_kernels_equal_the_one_row_case_bitwise(seed, k_max, lead, n, epsilon,
                                                         data):
    # a stack of c_tilde rows (widths 1 to 513) against each row alone
    rng = np.random.default_rng(seed)
    width = 2 * k_max + 1
    scale = rng.choice([1e-3, 0.1, 1.0])
    c_tilde = scale * (rng.standard_normal(lead + (width,))
                       + 1j * rng.standard_normal(lead + (width,)))
    stack = SequenceSummary(c_tilde=c_tilde, gamma_tilde=np.ones_like(c_tilde),
                            n=n, epsilon=epsilon, k_max=k_max)
    n_max = data.draw(st.integers(0, k_max))
    traces = {(kind, variant): criterion_trace(stack, LAPLACE, kind, n_max,
                                               penalty_variant=variant)
              for kind in CRITERION_KINDS for variant in PENALTY_VARIANTS}
    fractions = fraction_negative_theta_hat(stack, LAPLACE, n_max)
    assert fractions.shape == lead
    for index in np.ndindex(*lead):
        row = SequenceSummary(c_tilde=c_tilde[index], gamma_tilde=np.ones(width),
                              n=n, epsilon=epsilon, k_max=k_max)
        for (kind, variant), trace in traces.items():
            alone = criterion_trace(row, LAPLACE, kind, n_max, penalty_variant=variant)
            assert trace[index].tobytes() == alone.tobytes()
        alone = fraction_negative_theta_hat(row, LAPLACE, n_max)
        assert type(alone) is float and fractions[index] == alone


@settings(max_examples=40, deadline=None, database=None)
@given(seed=SEEDS, k_max=st.integers(0, 24), lead=st.sampled_from([(1,), (3,), (2, 2)]),
       n=st.integers(1, 500), epsilon=st.sampled_from([0.0, 0.01, 0.5]),
       density=st.sampled_from([LAPLACE, laplace_density(0.4), point_mass_density()]),
       data=st.data())
def test_band_energy_matches_its_scalar_reference(seed, k_max, lead, n, epsilon, density,
                                                  data):
    # each t/|gamma|^2 of the band kernel is theta_hat_squared of its row and k
    # within a few ulp of the larger of |c_tilde_k|^2 and eps^2/n over
    # |gamma_k|^2: Python's abs and np.abs may round |c| differently
    rng = np.random.default_rng(seed)
    width = 2 * k_max + 1
    c_tilde = rng.choice([1e-3, 0.1, 1.0]) * (rng.standard_normal(lead + (width,))
                                              + 1j * rng.standard_normal(lead + (width,)))
    stack = SequenceSummary(c_tilde=c_tilde, gamma_tilde=np.ones_like(c_tilde),
                            n=n, epsilon=epsilon, k_max=k_max)
    n_max = data.draw(st.integers(0, k_max))
    band = _band_energy(stack, density.gamma_band(n_max))
    t, g2 = band.t, band.g2
    energy = t / g2
    for index in np.ndindex(*lead):
        row = SequenceSummary(c_tilde=c_tilde[index], gamma_tilde=np.ones(width),
                              n=n, epsilon=epsilon, k_max=k_max)
        for k in range(-n_max, n_max + 1):
            scale = max(abs(c_tilde[index][k_max + k]) ** 2, epsilon ** 2 / n)
            ulp = np.spacing(scale / g2[n_max + k])
            assert abs(energy[index][n_max + k]
                       - theta_hat_squared(row, density, k)) <= 8 * ulp


@settings(max_examples=60, deadline=None, database=None)
@given(k_bad=st.integers(-10, 10), band=st.integers(0, 10),
       value=st.one_of(st.floats(0.0, 1.5e-8), st.floats(1.5e-8, 1.0)))
def test_guard_raises_on_any_sub_floor_eigenvalue(k_bad, band, value):
    density = ShiftDensity(
        gamma_fn=lambda k: np.where(k == k_bad, value, 1.0).astype(complex),
        sampler=lambda rng, size: np.zeros(size))
    if abs(k_bad) <= band and value * value <= EIGENVALUE_FLOOR:
        with pytest.raises(VanishingEigenvalueError, match="EIGENVALUE_FLOOR"):
            density.gamma_band(band)
        with pytest.raises(VanishingEigenvalueError):
            risk_report(WAVE8, density, 10, 0.1, band)
    else:
        assert np.all(np.abs(density.gamma_band(band)) ** 2 > EIGENVALUE_FLOOR)
        assert math.isfinite(risk_report(WAVE8, density, 10, 0.1, band).r[band])


@settings(max_examples=8, deadline=None, database=None)
@given(seed=SEEDS, n=st.integers(1, 40),
       rules=st.lists(st.sampled_from(CRITERION_KINDS), min_size=1, max_size=3))
def test_replicate_engine_is_worker_invariant(seed, n, rules):
    runs = [_run_replicates(WAVE8, LAPLACE, n, 0.05, seed, 7, rules, 6, workers=w)
            for w in (1, 2, 3)]
    for other in runs[1:]:
        for field, ref in zip(other, runs[0]):
            assert np.array_equal(field, ref)


@settings(max_examples=25, deadline=None, database=None)
@given(seed=SEEDS, n=st.integers(1, 700), k_max=st.integers(1, 24),
       replications=st.integers(2, 40), data=st.data())
def test_replicate_engine_does_not_depend_on_the_chunk_size(seed, n, k_max, replications,
                                                            data):
    # one seed per chunk, a few seeds per chunk and the default chunks agree
    # byte for byte on every result
    template = sobolev_template(1.5, 1.0, k_max)
    m0 = data.draw(st.integers(0, k_max))
    budgets = (1, data.draw(st.integers(1, 4 * (n + 2 * k_max + 1))), risk._CHUNK_VALUES)
    runs = []
    for budget in budgets:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(risk, "_CHUNK_VALUES", budget)
            runs.append(_run_replicates(template, LAPLACE, n, 0.1, seed, replications,
                                        CRITERION_KINDS, m0, workers=1))
    for other in runs[1:]:
        for field, ref in zip(other, runs[0]):
            assert field.tobytes() == ref.tobytes()


DENSITIES = (LAPLACE, laplace_density(0.4), gaussian_density(0.15),
             uniform_density(0.2), point_mass_density())


@settings(max_examples=40, deadline=None, database=None)
@given(seed=SEEDS, density=st.sampled_from(DENSITIES), k_max=st.integers(1, 24),
       n=st.integers(1, 400), epsilon=st.sampled_from([0.0, 0.01, 0.5]))
@example(seed=0, density=LAPLACE, k_max=1, n=49, epsilon=0.0)  # 49 * (1/49) < 1
def test_simulated_spectra_are_hermitian(seed, density, k_max, n, epsilon):
    template = sobolev_template(1.5, 1.0, k_max)
    for draw in (simulate, simulate_summary):
        gt = draw(template, density, n, epsilon, seed).gamma_tilde
        assert gt[k_max] == 1.0
        assert np.array_equal(np.conj(gt[::-1]), gt)
    noiseless = simulate(template, density, n, 0.0, seed).per_curve
    assert np.array_equal(np.conj(noiseless[:, ::-1]), noiseless)
