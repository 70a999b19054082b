"""Cutoff machinery: the frequency cap, criteria, argmin selection, estimates."""
import math

import numpy as np
import pytest

from shiftdecon.catalog import wave_template
from shiftdecon.errors import (InvalidParameterError, InvariantViolationError,
                               VanishingEigenvalueError)
from shiftdecon.selection import (CRITERION_KINDS, CutoffSelection, SpectralEstimate,
                                  compute_m0,
                                  criterion_increments, criterion_trace,
                                  estimate,
                                  fraction_negative_theta_hat,
                                  log_squared_over_n, select_cutoff,
                                  theta_hat_squared)
from shiftdecon.risk import exact_risk, mc_risk, oracle_ratio, risk_report
from shiftdecon.simulate import simulate
from shiftdecon.spectral import (ShiftDensity, Template, laplace_density,
                                 point_mass_density, synthesize, uniform_density)

LAPLACE = laplace_density(0.1)


def brute_m0(density, n, k_max):
    # independent re-derivation: scan k upward, stop one before the first
    # frequency whose squared eigenvalue falls to the threshold
    thr = math.log(n) ** 2 / n
    for k in range(1, k_max + 1):
        if abs(complex(density.gamma(k))) ** 2 <= thr:
            return k - 1
    return k_max


# ---------------------------------------------------------------------------
# frequency cap


def test_log_squared_over_n():
    assert abs(log_squared_over_n(100) - math.log(100) ** 2 / 100) < 1e-16
    assert log_squared_over_n(1) == 0.0  # log(1) = 0: no penalty, no cap
    with pytest.raises(InvalidParameterError):
        log_squared_over_n(0)


@pytest.mark.parametrize("n,expected", [(100, 2), (10**6, 19)])
def test_m0_laplace_reference_values(n, expected):
    res = compute_m0(LAPLACE, n, 40)
    assert res.value == expected == brute_m0(LAPLACE, n, 40)
    assert not res.saturated
    assert abs(res.threshold - math.log(n) ** 2 / n) < 1e-16


def test_m0_saturates_when_nothing_crosses():
    res = compute_m0(point_mass_density(), 100, 25)
    assert res.value == 25 and res.saturated


def test_m0_validation():
    # at n = 1 the threshold is 0, so the cap saturates
    assert compute_m0(LAPLACE, 1, 10) == (10, True, 0.0)
    with pytest.raises(InvalidParameterError):
        compute_m0(LAPLACE, 0, 10)
    with pytest.raises(InvalidParameterError):
        compute_m0(LAPLACE, 100, 0)


# ---------------------------------------------------------------------------
# coefficient-energy estimate


def test_theta_hat_squared_noiseless_exact():
    t = wave_template(10)
    obs = simulate(t, point_mass_density(), n=1, epsilon=0.0, seed=0)
    for k in (0, 1, 5, -7, 10):
        assert theta_hat_squared(obs, point_mass_density(), k) == \
            abs(complex(t.coeff(k))) ** 2


def test_theta_hat_squared_unbiased_mc():
    """Mean of theta_hat^2 over replicates vs its exact expectation.

    E |c_tilde_k|^2 = |theta_k|^2 (|g_k|^2 + (1-|g_k|^2)/n) + eps^2/n, so the
    estimate is unbiased for |theta_k|^2 only up to the (1-|g_k|^2)/(n|g_k|^2)
    inflation, which the oracle keeps.
    """
    t = wave_template(8)
    n, eps, reps = 5, 0.1, 4000
    ks = np.array([1, 3, 6])
    g2 = np.abs(LAPLACE.gamma(ks)) ** 2
    theta2 = np.abs(t.coeffs[ks + 8]) ** 2
    expected = theta2 * (g2 + (1.0 - g2) / n) / g2
    rng = np.random.default_rng(5150)
    vals = np.empty((reps, ks.size))
    for r in range(reps):
        obs = simulate(t, LAPLACE, n=n, epsilon=eps, seed=rng)
        vals[r] = [theta_hat_squared(obs, LAPLACE, int(k)) for k in ks]
    err = np.abs(vals.mean(axis=0) - expected)
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(err < 5.0 * stderr)


def test_theta_hat_squared_can_go_negative():
    zero = Template(coeffs=np.zeros(17, dtype=complex), k_max=8)
    obs = simulate(zero, LAPLACE, n=10, epsilon=0.5, seed=3)
    vals = [theta_hat_squared(obs, LAPLACE, k) for k in range(-8, 9)]
    assert min(vals) < 0.0  # unclipped by design


def test_fraction_negative_bounds():
    zero = Template(coeffs=np.zeros(17, dtype=complex), k_max=8)
    obs = simulate(zero, LAPLACE, n=10, epsilon=0.5, seed=3)
    frac = fraction_negative_theta_hat(obs, LAPLACE, 8)
    # P(|c|^2 < eps^2/n) = 1 - 1/e ~ 0.63 per frequency for pure noise
    assert 0.3 < frac < 0.95
    clean = simulate(wave_template(8), LAPLACE, n=4, epsilon=0.0, seed=1)
    assert fraction_negative_theta_hat(clean, LAPLACE, 8) == 0.0
    with pytest.raises(InvalidParameterError):
        fraction_negative_theta_hat(clean, LAPLACE, 9)


def test_theta_hat_squared_validation():
    obs = simulate(wave_template(8), LAPLACE, n=2, epsilon=0.1, seed=0)
    with pytest.raises(InvalidParameterError):
        theta_hat_squared(obs, LAPLACE, 9)
    zero_density = ShiftDensity(gamma_fn=lambda k: np.zeros(np.shape(k), dtype=complex),
                                sampler=lambda rng, size: np.zeros(size),
                                label="degenerate")
    with pytest.raises(VanishingEigenvalueError):
        theta_hat_squared(obs, zero_density, 1)
    # gamma_3 != 0, but gamma_2 = 0 lies on the band |k| <= 3
    with pytest.raises(VanishingEigenvalueError):
        theta_hat_squared(obs, uniform_density(0.25), 3)


# ---------------------------------------------------------------------------
# criteria


def _toy_obs(seed=17, n=50, eps=0.05, k_max=8):
    return simulate(wave_template(k_max), LAPLACE, n=n, epsilon=eps, seed=seed)


@pytest.mark.parametrize("kind", CRITERION_KINDS)
@pytest.mark.parametrize("variant", ["proof_form", "printed_form"])
def test_trace_telescopes_exactly(kind, variant):
    obs = _toy_obs()
    inc = criterion_increments(obs, LAPLACE, kind, 8, penalty_variant=variant)
    trace = criterion_trace(obs, LAPLACE, kind, 8, penalty_variant=variant)
    assert trace.shape == (9,)
    assert trace[0] == inc[0]
    for n_cut in range(1, 9):
        assert trace[n_cut] == trace[n_cut - 1] + inc[n_cut]  # bitwise


@pytest.mark.parametrize("kind", CRITERION_KINDS)
def test_trace_against_brute_force(kind):
    """Frequency-by-frequency re-accumulation with plain Python floats."""
    obs = _toy_obs(seed=123)
    n, eps, K = obs.n, obs.epsilon, obs.k_max
    L = math.log(n) ** 2 / n
    trace = criterion_trace(obs, LAPLACE, kind, K, penalty_variant="proof_form")
    for n_cut in (0, 1, 3, 8):
        total = 0.0
        for k in range(-n_cut, n_cut + 1):
            g2 = abs(complex(LAPLACE.gamma(k))) ** 2
            t = abs(obs.c_tilde[k + K]) ** 2 - eps**2 / n
            if kind == "u":
                total += (-(1 - 1 / n) * t / g2 + eps**2 / (n * g2)
                          + t / (n * g2**2))
            elif kind == "u_bar":
                total += -t / g2 + eps**2 / (n * g2) + L * t / g2**2
            else:
                total += -t / g2 + eps**2 / (n * g2)
        assert abs(trace[n_cut] - total) < 1e-12 * max(1.0, abs(total))


def test_point_evaluators_match_traces():
    obs = _toy_obs()
    trace_u = criterion_trace(obs, LAPLACE, "u", 8)
    trace_ub = criterion_trace(obs, LAPLACE, "u_bar", 8)
    trace_ut = criterion_trace(obs, LAPLACE, "u_tilde", 8)
    for n_cut in (0, 4, 8):
        assert criterion_trace(obs, LAPLACE, "u", n_cut)[n_cut] == trace_u[n_cut]
        assert criterion_trace(obs, LAPLACE, "u_bar", n_cut)[n_cut] == trace_ub[n_cut]
        assert criterion_trace(obs, LAPLACE, "u_tilde", n_cut)[n_cut] == trace_ut[n_cut]


def test_penalized_minus_unbiased_identity():
    # u_bar - u = sum over the band of [-t/(n g^2) + (L - 1/n) t/g^4]
    obs = _toy_obs(seed=31)
    n, K = obs.n, obs.k_max
    L = math.log(n) ** 2 / n
    g2 = np.abs(LAPLACE.gamma(np.arange(-K, K + 1))) ** 2
    t = np.abs(obs.c_tilde) ** 2 - obs.epsilon**2 / n
    for n_cut in (0, 2, 5, 8):
        sl = slice(K - n_cut, K + n_cut + 1)
        expected = np.sum(-t[sl] / (n * g2[sl])
                          + (L - 1.0 / n) * t[sl] / g2[sl] ** 2)
        got = (criterion_trace(obs, LAPLACE, "u_bar", n_cut,
                               penalty_variant="proof_form")[n_cut]
               - criterion_trace(obs, LAPLACE, "u", n_cut)[n_cut])
        assert abs(got - expected) < 1e-12


def test_penalty_variants_differ_on_generic_data():
    obs = _toy_obs()
    a = criterion_trace(obs, LAPLACE, "u_bar", 8, penalty_variant="proof_form")
    b = criterion_trace(obs, LAPLACE, "u_bar", 8, penalty_variant="printed_form")
    assert not np.allclose(a[1:], b[1:])


def test_expected_u_matches_symbolic_oracle():
    """MC mean of u against its analytic expectation, at 5 stderr.

    E t_k = |theta_k|^2 M_k with M_k = |g_k|^2 + (1-|g_k|^2)/n, so
    E u(N) = sum_{|k|<=N} [ -(1-1/n)|theta_k|^2 M_k/g2 + eps^2/(n g2)
                            + |theta_k|^2 M_k/(n g2^2) ].
    """
    t = wave_template(8)
    n, eps, reps = 4, 0.05, 10_000
    K = 8
    cuts = (0, 3, 6)
    g2 = np.abs(LAPLACE.gamma(np.arange(-K, K + 1))) ** 2
    theta2 = np.abs(t.coeffs) ** 2
    M = g2 + (1.0 - g2) / n
    per_k = (-(1.0 - 1.0 / n) * theta2 * M / g2 + eps**2 / (n * g2)
             + theta2 * M / (n * g2**2))
    expected = [np.sum(per_k[K - c : K + c + 1]) for c in cuts]
    rng = np.random.default_rng(999)
    vals = np.empty((reps, len(cuts)))
    for r in range(reps):
        obs = simulate(t, LAPLACE, n=n, epsilon=eps, seed=rng)
        trace = criterion_trace(obs, LAPLACE, "u", max(cuts))
        vals[r] = [trace[c] for c in cuts]
    mean = vals.mean(axis=0)
    stderr = vals.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mean - expected) < 5.0 * stderr)


def test_noiseless_u_tilde_is_nonincreasing():
    obs = simulate(wave_template(10), LAPLACE, n=30, epsilon=0.0, seed=2)
    trace = criterion_trace(obs, LAPLACE, "u_tilde", 10)
    assert np.all(np.diff(trace) <= 0.0)


def test_criterion_validation():
    obs = _toy_obs()
    with pytest.raises(InvalidParameterError):
        criterion_increments(obs, LAPLACE, "nope", 4)
    with pytest.raises(InvalidParameterError):
        criterion_increments(obs, LAPLACE, "u", 9)
    with pytest.raises(InvalidParameterError):
        criterion_increments(obs, LAPLACE, "u_bar", 4, penalty_variant="other")
    with pytest.raises(InvalidParameterError):
        criterion_trace(obs, LAPLACE, "u", -1)


# ---------------------------------------------------------------------------
# selection


def test_select_cutoff_default_m0_matches_explicit():
    obs = simulate(wave_template(40), LAPLACE, n=100, epsilon=0.02, seed=6)
    auto = select_cutoff(obs, LAPLACE, "u_bar")
    manual = select_cutoff(obs, LAPLACE, "u_bar",
                           m0=compute_m0(LAPLACE, 100, 40).value)
    assert auto.m0 == manual.m0 == 2
    assert auto.chosen_n == manual.chosen_n
    assert np.array_equal(auto.criterion_values, manual.criterion_values)


@pytest.mark.parametrize("kind", CRITERION_KINDS)
def test_select_cutoff_is_the_trace_argmin(kind):
    obs = simulate(wave_template(12), LAPLACE, n=60, epsilon=0.05, seed=8)
    sel = select_cutoff(obs, LAPLACE, kind, m0=12)
    assert sel.criterion_kind == kind
    assert sel.chosen_n == int(np.argmin(sel.criterion_values))
    assert sel.criterion_values[sel.chosen_n] == np.min(sel.criterion_values)


def test_all_zero_data_ties_break_to_smallest_cutoff():
    zero = Template(coeffs=np.zeros(21, dtype=complex), k_max=10)
    obs = simulate(zero, point_mass_density(), n=5, epsilon=0.0, seed=0)
    for kind in CRITERION_KINDS:
        sel = select_cutoff(obs, point_mass_density(), kind, m0=10)
        assert np.all(sel.criterion_values == 0.0)
        assert sel.chosen_n == 0


def test_strong_signal_pushes_cutoff_to_the_cap():
    # noiseless wave data: every extra frequency lowers u_tilde
    obs = simulate(wave_template(10), LAPLACE, n=30, epsilon=0.0, seed=2)
    sel = select_cutoff(obs, LAPLACE, "u_tilde", m0=10)
    assert sel.chosen_n == 10


def test_select_cutoff_validation():
    obs = _toy_obs()
    with pytest.raises(InvalidParameterError):
        select_cutoff(obs, LAPLACE, m0=9)
    with pytest.raises(InvalidParameterError):
        select_cutoff(obs, LAPLACE, m0=-1)
    # gamma vanishes at k = 2, 4, ..; np.sinc alone leaves ~4e-17 there
    with pytest.raises(VanishingEigenvalueError):
        select_cutoff(obs, uniform_density(0.25), "u_tilde", m0=8)


# Every entry point that takes a band index or a cap, with the index in place
# of ``v``, and an array of its result; each reaches ``ShiftDensity.gamma_band``
# or ``selection._cutoff_cap``.
_BAND_ENTRIES = {
    "gamma_band": lambda v: LAPLACE.gamma_band(v),
    "select_cutoff": lambda v: select_cutoff(_toy_obs(), LAPLACE, m0=v).criterion_values,
    "mc_risk": lambda v: mc_risk(wave_template(8), LAPLACE, 10, 0.1, "theta_tilde", 3, 0,
                                 m0=v).losses,
    "oracle_ratio": lambda v: oracle_ratio(wave_template(8), LAPLACE, 10, 0.1,
                                           "theta_tilde", 3, 0, m0=v),
    "estimate": lambda v: estimate(_toy_obs(), LAPLACE, cutoff=v).coeffs,
    "risk_report": lambda v: risk_report(wave_template(8), LAPLACE, 10, 0.1, n_max=v).r,
    "exact_risk": lambda v: exact_risk(wave_template(8), LAPLACE, 10, 0.1, cutoff=v),
    "criterion_trace": lambda v: criterion_trace(_toy_obs(), LAPLACE, "u", n_max=v),
    "theta_hat_squared": lambda v: theta_hat_squared(_toy_obs(), LAPLACE, k=v),
}
_BAD_BAND_INDICES = [(entry, value) for entry in _BAND_ENTRIES
                     for value in (2.5, np.float64(2.0))] + [
    # theta_hat_squared reads gamma_band(abs(k)), and abs(True) is the int 1
    (entry, True) for entry in _BAND_ENTRIES if entry != "theta_hat_squared"] + [
    ("select_cutoff", 2.9), ("mc_risk", 2.9), ("oracle_ratio", 2.9)]


@pytest.mark.parametrize("entry,value", _BAD_BAND_INDICES,
                         ids=[f"{entry}-{value!r}" for entry, value in _BAD_BAND_INDICES])
def test_a_band_index_that_is_not_an_integer_is_refused(entry, value):
    # none is truncated (m0=2.9 ran as 2, True as 1) or used at half-integer
    # frequencies (gamma_band(2.5)), and none fails with a bare TypeError
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        _BAND_ENTRIES[entry](value)


@pytest.mark.parametrize("entry", _BAND_ENTRIES)
def test_a_numpy_integer_band_index_is_an_integer(entry):
    for integer in (np.int64(2), np.int32(2), np.uint8(2)):
        assert np.array_equal(_BAND_ENTRIES[entry](integer), _BAND_ENTRIES[entry](2))


def test_cutoff_selection_container_validation():
    with pytest.raises(InvalidParameterError):
        CutoffSelection(chosen_n=3, m0=2, criterion_values=np.zeros(3),
                        criterion_kind="u")
    with pytest.raises(InvalidParameterError):
        CutoffSelection(chosen_n=1, m0=2, criterion_values=np.zeros(2),
                        criterion_kind="u")
    for kind in (["junk"], "junk", None, "theta_star"):
        with pytest.raises(InvalidParameterError, match="unknown criterion kind"):
            CutoffSelection(chosen_n=1, m0=2, criterion_values=np.zeros(3),
                            criterion_kind=kind)


@pytest.mark.parametrize("kind", [["junk"], "junk", None, "u_bar"])
def test_spectral_estimate_kind_is_checked_when_built(kind):
    with pytest.raises(InvalidParameterError, match="unknown estimate kind"):
        SpectralEstimate(coeffs=np.zeros(17), cutoff=2, k_max=8, kind=kind)
    assert SpectralEstimate(coeffs=np.zeros(17), cutoff=2, k_max=8,
                            kind="theta_star").kind == "theta_star"


@pytest.mark.parametrize("coeffs", [np.zeros(16), np.zeros(19), np.zeros((1, 17))],
                         ids=["short", "long", "2-d"])
def test_spectral_estimate_coeffs_must_span_the_band(coeffs):
    with pytest.raises(InvalidParameterError, match="coeffs must have length 17"):
        SpectralEstimate(coeffs=coeffs, cutoff=2, k_max=8, kind="fixed_n")


def test_selected_cutoffs_regression():
    """Frozen selections for one pinned dataset (catches silent drift)."""
    obs = simulate(wave_template(40), LAPLACE, n=100, epsilon=0.015, seed=2024)
    star = select_cutoff(obs, LAPLACE, "u_bar", m0=32,
                         penalty_variant="printed_form")
    tilde = select_cutoff(obs, LAPLACE, "u_tilde", m0=32)
    assert (star.chosen_n, tilde.chosen_n) == (1, 9)


# ---------------------------------------------------------------------------
# spectral estimates


def test_estimate_exact_recovery_without_noise_or_shift():
    t = wave_template(9)
    obs = simulate(t, point_mass_density(), n=1, epsilon=0.0, seed=0)
    est = estimate(obs, point_mass_density(), cutoff=9)
    assert np.array_equal(est.coeffs, t.coeffs)


def test_estimate_support_is_the_band():
    obs = _toy_obs()
    est = estimate(obs, LAPLACE, cutoff=3)
    k = np.arange(-8, 9)
    assert np.all(est.coeffs[np.abs(k) > 3] == 0.0)
    assert np.all(est.coeffs[np.abs(k) <= 3] != 0.0)
    assert est.cutoff == 3 and est.k_max == 8


def test_estimate_divides_by_gamma():
    obs = _toy_obs(seed=77)
    est = estimate(obs, LAPLACE, cutoff=5)
    for k in range(-5, 6):
        expected = complex(obs.c_tilde[k + 8]) / complex(LAPLACE.gamma(k))
        assert abs(est.coeffs[k + 8] - expected) < 1e-15 * max(1.0, abs(expected))


def test_estimate_render_matches_synthesize():
    t = wave_template(9)
    obs = simulate(t, point_mass_density(), n=1, epsilon=0.0, seed=0)
    est = estimate(obs, point_mass_density(), cutoff=9)
    assert np.array_equal(est.render(32), synthesize(t, 32))


def test_estimate_validation():
    obs = _toy_obs()
    with pytest.raises(InvalidParameterError):
        estimate(obs, LAPLACE, cutoff=9)
    with pytest.raises(InvalidParameterError):
        estimate(obs, LAPLACE, cutoff=2, kind="bogus")
    zero_density = ShiftDensity(gamma_fn=lambda k: np.zeros(np.shape(k), dtype=complex),
                                sampler=lambda rng, size: np.zeros(size),
                                label="degenerate")
    with pytest.raises(VanishingEigenvalueError):
        estimate(obs, zero_density, cutoff=1)
    with pytest.raises(VanishingEigenvalueError):
        estimate(obs, uniform_density(0.25), cutoff=4)
    # NaN passes no comparison, so "not above the floor" is what catches it
    nan_at_2 = ShiftDensity(gamma_fn=lambda k: np.where(k == 2, np.nan, 1.0),
                            sampler=lambda rng, size: np.zeros(size))
    with pytest.raises(InvariantViolationError, match="at k=2 is not finite"):
        estimate(obs, nan_at_2, cutoff=3)
