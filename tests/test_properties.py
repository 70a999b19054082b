"""Property tests: exact identities and guards over generated inputs."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftdecon.catalog import sobolev_template, wave_template
from shiftdecon.errors import VanishingEigenvalueError
from shiftdecon.risk import _run_replicates, risk_report
from shiftdecon.selection import (CRITERION_KINDS, PENALTY_VARIANTS,
                                  criterion_increments, criterion_trace,
                                  fraction_negative_theta_hat)
from shiftdecon.simulate import SequenceSummary, simulate, simulate_summary
from shiftdecon.spectral import (EIGENVALUE_FLOOR, ShiftDensity, gaussian_density,
                                 laplace_density, point_mass_density,
                                 uniform_density)

LAPLACE = laplace_density(0.1)
WAVE8 = wave_template(8)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=SEEDS, n=st.integers(2, 50), epsilon=st.sampled_from([0.0, 0.01, 0.5]),
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
       n=st.integers(2, 500), epsilon=st.sampled_from([0.0, 0.01, 0.5]),
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
@given(seed=SEEDS, n=st.integers(2, 40),
       rules=st.lists(st.sampled_from(CRITERION_KINDS), min_size=1, max_size=3))
def test_replicate_engine_is_worker_invariant(seed, n, rules):
    seeds = np.random.SeedSequence(seed).spawn(7)
    runs = [_run_replicates(WAVE8, LAPLACE, n, 0.05, seeds, rules, 6, workers=w)
            for w in (1, 2, 3)]
    for other in runs[1:]:
        for field, ref in zip(other, runs[0]):
            assert np.array_equal(field, ref)


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
