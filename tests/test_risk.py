"""Risk curves, oracle cutoffs, Monte Carlo risks, and the rate machinery."""
import csv
import hashlib
import math
import concurrent.futures
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from shiftdecon.catalog import sobolev_template, spike_template, wave_template
from shiftdecon.config import ExperimentConfig, build_density, build_template
from shiftdecon.errors import (DegenerateInputError, InvalidParameterError,
                               InvariantViolationError, VanishingEigenvalueError)
from shiftdecon import risk as risk_module
from shiftdecon.risk import (McRisk, RiskReport, _fork_map, _mean_and_stderr,
                             _loss_trace, _run_replicates, exact_risk,
                             mc_risk, oracle_ratio, rate_study, risk_report,
                             theoretical_rate_exponent)
from shiftdecon.selection import (compute_m0, criterion_trace, fraction_negative_theta_hat,
                                  select_cutoff)
from shiftdecon import spectral
from shiftdecon.csvio import write_curves_csv
from shiftdecon.simulate import (SequenceSummary, _draw_summaries, render_curves, render_grid,
                                 simulate, simulate_summary)
from shiftdecon.spectral import (ShiftDensity, Template, _tail_energy, laplace_density,
                                 point_mass_density, synthesize, uniform_density)
from shiftdecon.study import run_replication_study

LAPLACE = laplace_density(0.1)
WAVE8 = wave_template(8)


def _replicate(template, density, n, epsilon, seed, i) -> SequenceSummary:
    """Replicate ``i`` of a run at ``seed``, drawn alone."""
    stack = _draw_summaries(template, density, n, epsilon, seed, i, 1, 1)
    return SequenceSummary(c_tilde=stack.c_tilde[0], n=n, epsilon=epsilon, k_max=template.k_max)


# ---------------------------------------------------------------------------
# exact risk curves


def test_decomposition_identity_is_bitwise():
    rep = risk_report(WAVE8, LAPLACE, 50, 0.1, 8)
    assert np.array_equal(rep.r, (rep.bias + rep.v1) + rep.v2)
    assert np.array_equal(rep.r_tilde, rep.bias + rep.v1)


def test_penalty_gap_reconstructs_r_bar():
    # r_bar = r_tilde + L * cumsum(pair sums of theta^2/gamma^2), with the
    # same accumulation order the library uses
    n, eps = 50, 0.1
    rep = risk_report(WAVE8, LAPLACE, n, eps, 8)
    g2 = np.abs(LAPLACE.gamma(np.arange(-8, 9))) ** 2
    vals = np.abs(WAVE8.coeffs) ** 2 / g2
    steps = np.empty(9)
    steps[0] = vals[8]
    steps[1:] = vals[9:] + vals[7::-1]
    pen = (math.log(n) ** 2 / n) * np.cumsum(steps)
    assert np.array_equal(rep.r_bar, rep.r_tilde + pen)


def test_monotone_components():
    rep = risk_report(WAVE8, LAPLACE, 50, 0.1, 8)
    assert np.all(np.diff(rep.bias) <= 0.0)
    assert np.all(np.diff(rep.v1) >= 0.0)
    assert np.all(np.diff(rep.v2) >= 0.0)
    assert rep.v1[0] == 0.1**2 / 50  # gamma_0 = 1


def test_hand_computed_tiny_case():
    t = Template.from_harmonics(0.5, [1.0, -0.6], [0.2, 0.1], k_max=2)
    n, eps = 10, 0.3
    rep = risk_report(t, LAPLACE, n, eps, 2)
    theta2 = np.abs(t.coeffs) ** 2
    for N in range(3):
        ks = [k for k in range(-2, 3) if abs(k) <= N]
        bias = sum(theta2[k + 2] for k in range(-2, 3) if abs(k) > N)
        v1 = eps**2 / n * sum(1.0 / abs(complex(LAPLACE.gamma(k))) ** 2 for k in ks)
        v2 = 1.0 / n * sum(theta2[k + 2] * (1.0 / abs(complex(LAPLACE.gamma(k))) ** 2 - 1.0)
                           for k in ks)
        assert abs(rep.bias[N] - bias) < 1e-14
        assert abs(rep.v1[N] - v1) < 1e-14
        assert abs(rep.v2[N] - v2) < 1e-14
        assert abs(rep.r[N] - (bias + v1 + v2)) < 1e-14


def test_bias_head_and_tail_values():
    rep = risk_report(WAVE8, LAPLACE, 50, 0.1, 8)
    assert rep.bias[8] == 0.0  # full band retained
    expected0 = WAVE8.norm_squared - abs(WAVE8.coeff(0)) ** 2
    assert abs(rep.bias[0] - expected0) < 1e-14


def test_band_wider_than_template():
    rep = risk_report(WAVE8, LAPLACE, 50, 0.1, 12)
    assert rep.n_max == 12
    assert np.all(rep.bias[8:] == 0.0)
    # beyond the template band only v1 keeps growing
    assert np.all(np.diff(rep.r[8:]) > 0.0)


def test_noiseless_unshifted_risk_is_pure_bias():
    rep = risk_report(WAVE8, point_mass_density(), 50, 0.0, 8)
    assert np.all(rep.v1 == 0.0)
    assert np.all(rep.v2 == 0.0)
    assert np.array_equal(rep.r, rep.bias)
    assert rep.r[8] == 0.0
    assert rep.oracle_r == 8


def test_zero_template_risk_is_pure_variance():
    zero = Template(coeffs=np.zeros(17, dtype=complex), k_max=8)
    rep = risk_report(zero, LAPLACE, 50, 0.1, 8)
    assert np.all(rep.bias == 0.0)
    assert np.array_equal(rep.r, rep.v1)
    assert rep.oracle_r == 0


def test_report_accessors():
    rep = risk_report(WAVE8, LAPLACE, 50, 0.1, 8)
    pt = rep.point(3)
    assert pt.r == rep.r[3] and pt.bias == rep.bias[3]
    assert (pt.v1, pt.v2) == (rep.v1[3], rep.v2[3])
    assert rep.n_max == 8


def test_point_helpers_match_report():
    rep = risk_report(WAVE8, LAPLACE, 50, 0.1, 6)
    assert exact_risk(WAVE8, LAPLACE, 50, 0.1, 6).r == rep.r[6]
    wider = risk_report(WAVE8, LAPLACE, 50, 0.1, 8)
    assert wider.r_bar[6] == rep.r_bar[6]
    assert wider.r_tilde[6] == rep.r_tilde[6]


def test_risk_report_validation():
    with pytest.raises(InvalidParameterError):
        risk_report(WAVE8, LAPLACE, 0, 0.1, 4)
    for epsilon in (-0.1, math.inf, 1e155):
        with pytest.raises(InvalidParameterError):
            risk_report(WAVE8, LAPLACE, 10, epsilon, 4)
    with pytest.raises(InvalidParameterError):
        risk_report(WAVE8, LAPLACE, 10, 0.1, -1)
    # shifts uniform on the circle: gamma_k = 0 for every k != 0
    circle = ShiftDensity(gamma_fn=lambda k: (k == 0).astype(complex),
                          sampler=lambda u: u[..., 0])
    with pytest.raises(VanishingEigenvalueError):
        risk_report(WAVE8, circle, 10, 0.1, 4)
    with pytest.raises(VanishingEigenvalueError):
        risk_report(WAVE8, uniform_density(0.25), 10, 0.1, 4)
    nan_at_2 = ShiftDensity(gamma_fn=lambda k: np.where(k == 2, np.nan, 1.0),
                            sampler=lambda u: np.zeros(u.shape[:-1]))
    with pytest.raises(InvariantViolationError, match="at k=2 is not finite"):
        risk_report(WAVE8, nan_at_2, 10, 0.1, 3)


# sha256 prefixes of r_bar's bytes for WAVE8, Laplace(0.1), epsilon 0.1, N <= 8,
# frozen before the penalty level moved to selection.log_squared_over_n
R_BAR_BYTES = {2: "5f3a81c1bf20439d", 50: "5b3852c9d290ea9d"}


def test_risk_report_log_base():
    # the penalty level is log^2(n)/n with the natural log
    for n, digest in R_BAR_BYTES.items():
        r_bar = risk_report(WAVE8, LAPLACE, n, 0.1, 8).r_bar
        assert hashlib.sha256(r_bar.tobytes()).hexdigest()[:16] == digest
    # log(1) = 0: no penalty at n = 1
    one = risk_report(WAVE8, LAPLACE, 1, 0.1, 8)
    assert np.array_equal(one.r_bar, one.r_tilde)


# ---------------------------------------------------------------------------
# oracle cutoffs


def test_reference_configuration_oracles_frozen():
    """Scan-derived argmins for the wave/Laplace study parameters."""
    report = risk_report(wave_template(40), LAPLACE, 100, 0.015, 32)
    assert report.oracle_r == 6
    assert report.oracle_r_bar == 2
    assert report.oracle_r_tilde == 9


def test_penalized_oracle_never_later_than_plain():
    # the penalty only adds weight to larger bands, so its argmin comes first
    wave = wave_template(40)
    for eps in (0.005, 0.015, 0.05):
        report = risk_report(wave, LAPLACE, 100, eps, 32)
        assert report.oracle_r_bar <= report.oracle_r_tilde


def test_oracle_cutoff_validation():
    # no oracle below cutoff 0, and each oracle lies in the tabulated band
    with pytest.raises(InvalidParameterError):
        risk_report(WAVE8, LAPLACE, 50, 0.1, -1)
    report = risk_report(WAVE8, LAPLACE, 50, 0.1, 5)
    for oracle, curve in ((report.oracle_r, report.r), (report.oracle_r_bar, report.r_bar),
                          (report.oracle_r_tilde, report.r_tilde)):
        assert 0 <= oracle <= 5 and curve[oracle] == curve.min()


# ---------------------------------------------------------------------------
# Monte Carlo risk


def test_fixed_cutoff_loss_matches_exact_risk():
    # the engine's draw and loss trace estimate risk_report's r at every
    # fixed cutoff N = 0..m0
    n, eps, m0, reps = 20, 0.1, 8, 600
    exact = risk_report(WAVE8, LAPLACE, n, eps, m0).r
    obs = _draw_summaries(WAVE8, LAPLACE, n, eps, 314, 0, reps, reps)
    loss = _loss_trace(WAVE8, obs.c_tilde, LAPLACE.gamma_band(m0), _tail_energy(WAVE8, m0),
                       eps)
    assert loss.shape == (reps, m0 + 1)
    for N in range(m0 + 1):
        mean, stderr = _mean_and_stderr(loss[:, N], eps)
        assert abs(mean - exact[N]) < 3.0 * stderr, N


def test_mc_risk_perfect_recovery_degenerate_case():
    # one curve, no noise, no shift: the estimator is exact, every loss is 0
    mc = mc_risk(WAVE8, point_mass_density(), 1, 0.0, "theta_tilde", 5, seed=0, m0=8)
    assert mc.mean == 0.0 and mc.stderr == 0.0
    assert np.all(mc.losses == 0.0)


def test_mc_risk_deterministic_and_worker_invariant():
    args = (WAVE8, LAPLACE, 15, 0.05, "theta_star", 24)
    a = mc_risk(*args, seed=9, m0=6)
    b = mc_risk(*args, seed=9, m0=6)
    c = mc_risk(*args, seed=9, m0=6, workers=3)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.losses, c.losses)
    assert np.array_equal(a.cutoffs, c.cutoffs)
    assert a.mean == c.mean and a.stderr == c.stderr
    d = mc_risk(*args, seed=10, m0=6)
    assert not np.array_equal(a.losses, d.losses)


def test_replication_study_matches_mc_risk(tmp_path):
    # the study and mc_risk share one replicate loop: same seeds, same cap,
    # same selection options must give the same cutoffs and losses
    cfg = ExperimentConfig()
    study = run_replication_study(cfg, tmp_path / "bundle")
    template, density = build_template(cfg), build_density(cfg)
    for kind, cutoffs, losses, mean in (
            ("theta_star", study.n_star, study.loss_star, study.mean_loss_star),
            ("theta_tilde", study.n_tilde, study.loss_tilde, study.mean_loss_tilde)):
        mc = mc_risk(template, density, cfg.n, cfg.epsilon, kind, cfg.replications,
                     seed=cfg.seed, m0=study.m0_used,
                     penalty_variant=cfg.penalty_variant)
        assert np.array_equal(mc.cutoffs, cutoffs)
        assert np.array_equal(mc.losses, losses)
        assert mc.mean == mean and mc.m0 == study.m0_used


def test_engine_negative_fractions_match_fraction_negative_theta_hat():
    # the engine applies the library function to a whole chunk of replicates;
    # each replicate must get what the function gives its summary alone
    replications = 6
    seen = []
    # at epsilon = 0 the spike's zero coefficients give t_k == 0 exactly
    for template, n, epsilon, m0 in ((WAVE8, 3, 0.5, 8), (WAVE8, 40, 0.05, 5),
                                     (WAVE8, 200, 0.3, 0),
                                     (spike_template(8, location=1), 5, 0.0, 8)):
        reps = _run_replicates(template, LAPLACE, n, epsilon, 31, replications, ("u_tilde",),
                               m0, penalty_variant="printed_form")
        direct = [fraction_negative_theta_hat(
                      _replicate(template, LAPLACE, n, epsilon, 31, i), LAPLACE, m0)
                  for i in range(replications)]
        assert reps.negative_fractions.tobytes() == np.array(direct).tobytes()
        seen.extend(direct)
    assert 0.0 < max(seen) < 1.0


def _fields(reps) -> list:
    """Every field of an engine run: each rule's record's, then the rest."""
    return [*(field for mc in reps.rules for field in mc), *reps[1:]]


def _chunk_sizes(monkeypatch, stacks=None) -> list:
    """``(replicates, block)`` of each chunk the engine draws from now on:
    its number of replicates and the replicates per draw block; each drawn
    stack is appended to ``stacks`` if given."""
    sizes = []

    def draw(template, density, n, epsilon, seed, start, rows, block):
        sizes.append((rows, block))
        stack = _draw_summaries(template, density, n, epsilon, seed, start, rows, block)
        if stacks is not None:
            stacks.append(stack)
        return stack

    monkeypatch.setattr(risk_module, "_draw_summaries", draw)
    return sizes


@pytest.mark.parametrize("seed", [0, 1, 10 ** 30])
def test_replicate_stream_is_its_run_alone(seed, monkeypatch):
    # replicate i drawn alone is row i of a 2000-replicate run, whatever the
    # chunks and blocks: at the default budget a chunk is 240 replicates in
    # blocks of 13 (n = 600), at 1200 values 35 replicates in blocks of 2;
    # 34, 35, 239 and 240 straddle chunk and block edges
    n, epsilon = 600, 0.2
    for budget in (risk_module._CHUNK_VALUES, 1200):
        stacks = []
        with monkeypatch.context() as patch:
            chunks = _chunk_sizes(patch, stacks)
            patch.setattr(risk_module, "_CHUNK_VALUES", budget)
            _run_replicates(WAVE8, LAPLACE, n, epsilon, seed, 2000, ("u_tilde",), 4,
                            penalty_variant="printed_form")
        assert chunks[0] == ((240, 13) if budget == risk_module._CHUNK_VALUES else (35, 2))
        c_tilde = np.concatenate([stack.c_tilde for stack in stacks])
        for i in (0, 1, 34, 35, 239, 240, 1999):
            alone = _replicate(WAVE8, LAPLACE, n, epsilon, seed, i)
            assert c_tilde[i].tobytes() == alone.c_tilde.tobytes()


def test_engine_matches_one_replicate_at_a_time(monkeypatch):
    # reference: each replicate drawn alone, select_cutoff and the
    # replicate's own one-row loss trace, one replicate at a time.  A budget
    # of 1200 values makes chunks of 35 replicates, each drawn in blocks of 2
    # at n = 600
    template, n, epsilon, m0 = WAVE8, 600, 0.3, 7
    options = dict(penalty_variant="proof_form")
    rules = ("u_bar", "u_tilde", "u")
    replications = 80
    chunks = _chunk_sizes(monkeypatch)
    monkeypatch.setattr(risk_module, "_CHUNK_VALUES", 1200)
    reps = _run_replicates(template, LAPLACE, n, epsilon, 77, replications, rules, m0,
                           **options)
    assert chunks == [(35, 2), (35, 2), (10, 2)]
    gamma, tail = LAPLACE.gamma_band(m0), _tail_energy(template, m0)
    band = slice(8 - m0, 8 + m0 + 1)
    for i in range(replications):
        obs = _replicate(template, LAPLACE, n, epsilon, 77, i)
        error = np.abs(obs.c_tilde[band] / gamma - template.coeffs[band]) ** 2
        pairs = np.concatenate(([error[m0]], error[m0 + 1:] + error[m0 - 1::-1]))
        loss = np.cumsum(pairs) + tail
        for j, rule in enumerate(rules):
            cutoff = select_cutoff(obs, LAPLACE, rule, m0=m0, **options).chosen_n
            assert reps.rules[j].cutoffs[i] == cutoff
            assert reps.rules[j].losses[i] == loss[cutoff]
            # the direct sum over the band, in numpy's own order, agrees to 8 ulp
            direct = np.sum(error[m0 - cutoff : m0 + cutoff + 1]) + tail[cutoff]
            assert abs(reps.rules[j].losses[i] - direct) <= 8 * np.spacing(direct)
    assert len(np.unique(reps.rules[0].cutoffs)) > 1


def test_engine_breaks_ties_toward_the_smallest_cutoff():
    # at epsilon = 0 the spike's zero coefficients add exact zeros to every
    # criterion past k = 1, so each trace is flat from its minimum to m0
    template, n, m0, rules = spike_template(8, location=1), 100, 8, ("u", "u_bar", "u_tilde")
    reps = _run_replicates(template, LAPLACE, n, 0.0, 31, 6, rules, m0,
                           penalty_variant="printed_form")
    for i in range(6):
        obs = _replicate(template, LAPLACE, n, 0.0, 31, i)
        for j, rule in enumerate(rules):
            trace = criterion_trace(obs, LAPLACE, rule, m0)
            ties = np.flatnonzero(trace == trace.min())
            assert ties.size > 1
            assert reps.rules[j].cutoffs[i] == ties[0] == select_cutoff(obs, LAPLACE, rule,
                                                                         m0=m0).chosen_n


def test_engine_resolves_its_cap_and_summarizes_each_rule():
    # the cap given, or compute_m0's value for None (1 here), and per rule a
    # record of that cap, the mean of its losses and their standard error
    # with ddof=1
    rules, replications = ("u_bar", "u_tilde", "u"), 12
    for m0, cap in ((5, 5), (None, compute_m0(LAPLACE, 30, 8).value)):
        reps = _run_replicates(WAVE8, LAPLACE, 30, 0.05, 3, replications, rules, m0,
                               penalty_variant="printed_form")
        assert reps.traces.shape == (len(rules), cap + 1)
        assert len(reps.rules) == len(rules)
        for mc in reps.rules:
            assert mc.m0 == cap
            assert mc.mean == float(np.mean(mc.losses))
            assert mc.stderr == float(np.std(mc.losses, ddof=1) / math.sqrt(replications))
    assert cap == 1


@pytest.mark.parametrize("density", [LAPLACE, uniform_density(0.05)],
                         ids=["laplace", "uniform"])
def test_engine_results_do_not_depend_on_the_chunk_size(density, monkeypatch):
    # the default chunks, one seed per chunk, and a budget of 1200 values:
    # chunks of 35 seeds, so the 40 seeds span two, drawn in blocks of 12 at
    # n = 100 and of 2 at n = 600; at n = 1 and n = 7 a chunk is one block
    replications = 40
    rules = ("u", "u_bar", "u_tilde")
    for n in (1, 7, 100, 600):
        for m0 in (0, WAVE8.k_max):
            runs = []
            for budget in (risk_module._CHUNK_VALUES, 1, 1200):
                with monkeypatch.context() as patch:
                    chunks = _chunk_sizes(patch)
                    patch.setattr(risk_module, "_CHUNK_VALUES", budget)
                    runs.append(_run_replicates(WAVE8, density, n, 0.2, 2024, replications,
                                                rules, m0, penalty_variant="printed_form"))
            assert chunks == [(35, max(1, 1200 // n)), (5, max(1, 1200 // n))]
            for other in runs[1:]:
                for field, ref in zip(_fields(other), _fields(runs[0])):
                    assert np.asarray(field).tobytes() == np.asarray(ref).tobytes()


def test_rate_study_point_at_n_6400_runs_in_three_chunks(monkeypatch):
    # the largest rate-study point: the chunk size depends on k_max, not on
    # n, so its 200 replicates take 3 chunks of at most 83 seeds, each drawn
    # one seed at a time
    chunks = _chunk_sizes(monkeypatch)
    template = sobolev_template(2.0, 1.0, 24)
    m0 = compute_m0(LAPLACE, 6400, 24).value
    _run_replicates(template, LAPLACE, 6400, 0.2, 5, 200, ("u_tilde",), m0,
                    penalty_variant="printed_form")
    assert len(chunks) <= 3
    assert sum(seeds for seeds, _ in chunks) == 200
    assert all(block == 1 for _, block in chunks)


def test_engine_memory_is_one_chunk_and_the_results():
    # at the default configuration the engine's traced peak stays at or below
    # 0.60 MB, and from 200 to 4000 replicates it grows by the per-replicate
    # results only: a cutoff and a loss per rule, and a negative fraction
    cfg = ExperimentConfig()
    template, density = build_template(cfg), build_density(cfg)
    rules = ("u_bar", "u_tilde")

    def peak(replications):
        tracemalloc.start()
        try:
            _run_replicates(template, density, cfg.n, cfg.epsilon, cfg.seed, replications,
                            rules, cfg.m0_override, penalty_variant=cfg.penalty_variant)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # numpy's first calls allocate what they keep
    small, default, large = peak(200), peak(2000), peak(4000)
    assert default <= 600_000
    per_replicate = len(rules) * (8 + 8) + 8
    assert large - small <= per_replicate * (4000 - 200) + 20_000


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_study_traces_are_replicate_zero(tmp_path):
    # traces.csv and row 0 of selections.csv describe the same draw,
    # replicate 0, simulate_summary's draw at the seed, and each column is
    # that draw's criterion trace value for value
    for i, cfg in enumerate((ExperimentConfig(replications=3),
                             ExperimentConfig(replications=2, seed=8, m0_override=None,
                                              penalty_variant="proof_form"))):
        out = tmp_path / str(i)
        study = run_replication_study(cfg, out)
        template, density = build_template(cfg), build_density(cfg)
        obs = simulate_summary(template, density, cfg.n, cfg.epsilon, cfg.seed)
        traces = _read_rows(out / "traces.csv")
        row0 = _read_rows(out / "selections.csv")[0]
        assert [int(row["n"]) for row in traces] == list(range(study.m0_used + 1))
        for column, chosen in (("u_bar", "n_star"), ("u_tilde", "n_tilde")):
            values = [float(row[column]) for row in traces]
            expected = criterion_trace(obs, density, column, study.m0_used,
                                       penalty_variant=cfg.penalty_variant)
            assert values == expected.tolist()
            assert int(np.argmin(values)) == int(row0[chosen])
        meta = {row["key"]: row["value"] for row in _read_rows(out / "meta.csv")}
        assert "independent noise" in meta["sample_curves_draw"]


def test_study_bundle_rows_are_the_returned_study(tmp_path):
    # selections.csv holds each rule's cutoffs and losses under that rule's
    # columns, and meta.csv the cap the replicates ran under, not the formula's
    study = run_replication_study(ExperimentConfig(replications=5), tmp_path)
    rows = _read_rows(tmp_path / "selections.csv")
    assert [int(row["replicate"]) for row in rows] == list(range(5))
    for column, values in (("n_star", study.n_star), ("loss_star", study.loss_star),
                           ("n_tilde", study.n_tilde), ("loss_tilde", study.loss_tilde)):
        assert [float(row[column]) for row in rows] == values.tolist(), column
    assert not np.array_equal(study.loss_star, study.loss_tilde)
    meta = {row["key"]: row["value"] for row in _read_rows(tmp_path / "meta.csv")}
    assert (meta["m0_used"], meta["m0_formula"]) == ("32", "2")
    assert (study.m0_used, study.m0_formula) == (32, 2)


def test_study_risk_summary_is_each_rules_losses_over_the_oracle_risks(tmp_path):
    # one row per adaptive estimator: the mean and standard error (ddof=1) of
    # its selections.csv losses, over the minima of the study's risk curves
    study = run_replication_study(ExperimentConfig(replications=6), tmp_path)
    rows = _read_rows(tmp_path / "risk_summary.csv")
    infs = {name: float(np.min(getattr(study.report, name)))
            for name in ("r", "r_bar", "r_tilde")}
    assert [(row["estimator"], row["criterion"]) for row in rows] == \
        [("theta_star", "u_bar"), ("theta_tilde", "u_tilde")]
    for row, losses in zip(rows, (study.loss_star, study.loss_tilde)):
        mean = float(np.mean(losses))
        assert float(row["mc_mean"]) == mean
        assert float(row["mc_stderr"]) == float(np.std(losses, ddof=1) / math.sqrt(6))
        for name, inf in infs.items():
            assert float(row[f"inf_{name}"]) == inf
            assert float(row[f"ratio_vs_{name}"]) == mean / inf


def test_study_draws_each_replicate_once(tmp_path, monkeypatch):
    # the shifts of R summaries and of the sample-curve draw; traces.csv
    # reuses the engine's replicate 0 instead of drawing it again
    shapes = []
    sample = ShiftDensity.sample
    monkeypatch.setattr(ShiftDensity, "sample",
                        lambda self, uniforms: shapes.append(uniforms.shape[:-1])
                        or sample(self, uniforms))
    for replications in (2, 7):
        shapes.clear()
        cfg = ExperimentConfig(replications=replications)
        run_replication_study(cfg, tmp_path / str(replications))
        assert sum(math.prod(shape) for shape in shapes) == (replications + 1) * cfg.n
        assert all(shape[-1] == cfg.n for shape in shapes)


def test_study_of_numpy_scalars_writes_the_bundle_of_python_numbers(tmp_path):
    # the config keeps n as an np.uint8, in which n + 2*k_max + 1 would wrap
    bundles = []
    for i, (n, epsilon) in enumerate(((200, 0.5), (np.uint8(200), np.float32(0.5)))):
        run_replication_study(ExperimentConfig(n=n, epsilon=epsilon, replications=2),
                              tmp_path / str(i))
        bundles.append({f.name: f.read_bytes() for f in (tmp_path / str(i)).iterdir()})
    assert bundles[0] == bundles[1]


def test_a_refused_study_leaves_no_directory(monkeypatch, tmp_path):
    # the template and sample curves are synthesized first; a refusal there
    # comes before out_dir exists
    def refuse(*args, **kwargs):
        raise InvariantViolationError("refused by the test")

    monkeypatch.setattr("shiftdecon.study._synthesize_rows", refuse)
    out = tmp_path / "bundle"
    with pytest.raises(InvariantViolationError, match="refused by the test"):
        run_replication_study(ExperimentConfig(replications=2), out)
    assert not out.exists()


def test_study_curves_are_one_synthesis_of_the_template_and_simulate_at_the_seed(
        tmp_path, monkeypatch):
    # one synthesis matrix per study; the template's row has synthesize's
    # bytes, and the sample curves render simulate at the study's seed,
    # whose shifts are replicate 0's
    matrices = []
    build = spectral._synthesis_matrix_t
    monkeypatch.setattr(spectral, "_synthesis_matrix_t",
                        lambda *args: matrices.append(args) or build(*args))
    cfg = ExperimentConfig(replications=2)
    run_replication_study(cfg, tmp_path / "bundle", grid_size=128)
    assert matrices == [(40, 128)]
    monkeypatch.undo()
    template, density = build_template(cfg), build_density(cfg)
    obs = simulate(template, density, cfg.n, cfg.epsilon, cfg.seed)
    grid = render_grid(128)
    write_curves_csv(tmp_path / "template_curve.csv", grid, synthesize(template, 128))
    write_curves_csv(tmp_path / "sample_curves.csv", grid, render_curves(obs, 128)[:10])
    for name in ("template_curve.csv", "sample_curves.csv"):
        assert (tmp_path / "bundle" / name).read_bytes() == (tmp_path / name).read_bytes()


# meta.csv's keys, in order: a new or removed row has to be listed here
META_KEYS = ["template", "density", "n", "epsilon", "k_max", "criterion", "replications",
             "seed", "grid_size", "m0_used", "m0_formula", "m0_formula_saturated",
             "m0_threshold", "penalty_variant", "mean_negative_energy_fraction",
             "sample_curves_draw"]


def test_study_meta_keys(tmp_path):
    run_replication_study(ExperimentConfig(replications=2), tmp_path)
    rows = _read_rows(tmp_path / "meta.csv")
    assert [row["key"] for row in rows] == META_KEYS
    # the level of the cap and the penalty, natural log
    assert float(rows[META_KEYS.index("m0_threshold")]["value"]) == math.log(100) ** 2 / 100


def test_mc_risk_carries_the_cap_it_ran_under():
    # the m0 given, or compute_m0's value for None; oracle_ratio reads it
    for kind in ("theta_star", "theta_tilde", "theta_u"):
        assert mc_risk(WAVE8, LAPLACE, 30, 0.05, kind, 4, seed=1, m0=6).m0 == 6
        mc = mc_risk(WAVE8, LAPLACE, 30, 0.05, kind, 4, seed=1)
        assert mc.m0 == compute_m0(LAPLACE, 30, WAVE8.k_max).value == 1
        assert mc.cutoffs.max() <= mc.m0


def test_mc_risk_adaptive_uses_selected_cutoffs():
    mc = mc_risk(WAVE8, LAPLACE, 30, 0.05, "theta_tilde", 30, seed=4, m0=8)
    assert np.all((0 <= mc.cutoffs) & (mc.cutoffs <= 8))
    assert len(np.unique(mc.cutoffs)) > 1  # selection actually varies


def test_mc_risk_theta_u_selects_with_criterion_u():
    mc = mc_risk(WAVE8, LAPLACE, 30, 0.05, "theta_u", 10, seed=4, m0=8)
    expected = [select_cutoff(_replicate(WAVE8, LAPLACE, 30, 0.05, 4, i),
                              LAPLACE, "u", m0=8).chosen_n for i in range(10)]
    assert mc.cutoffs.tolist() == expected


def test_mc_risk_adaptive_not_below_oracle():
    # adaptive risk cannot beat the best fixed-band risk by much
    rep = risk_report(WAVE8, LAPLACE, 30, 0.05, 8)
    mc = mc_risk(WAVE8, LAPLACE, 30, 0.05, "theta_tilde", 200, seed=5, m0=8)
    assert mc.mean > 0.8 * float(np.min(rep.r))


def test_mc_risk_validation():
    with pytest.raises(InvalidParameterError):
        mc_risk(WAVE8, LAPLACE, 10, 0.1, "theta_tilde", 1, seed=0, m0=2)
    with pytest.raises(InvalidParameterError):
        mc_risk(WAVE8, LAPLACE, 10, 0.1, "bogus", 10, seed=0, m0=2)
    with pytest.raises(InvalidParameterError):
        mc_risk(WAVE8, LAPLACE, 10, 0.1, "theta_tilde", 10, seed=0, m0=9)
    with pytest.raises(InvalidParameterError):
        mc_risk(WAVE8, LAPLACE, 10, 0.1, "theta_tilde", 10, seed=0, m0=2, workers=0)
    for epsilon in (math.inf, 1e155, 1.34e154):
        with pytest.raises(InvalidParameterError):
            mc_risk(WAVE8, LAPLACE, 10, epsilon, "theta_tilde", 10, seed=0, m0=2)
    # a fixed cutoff's risk is exact: risk_report / exact_risk give it
    with pytest.raises(InvalidParameterError, match="unknown estimator kind 'fixed_n'"):
        mc_risk(WAVE8, LAPLACE, 10, 0.1, "fixed_n", 10, seed=0, m0=2)


def test_mc_risk_refuses_an_epsilon_whose_losses_overflow_the_stderr():
    # every loss is finite, but their squared deviations from the mean are not
    with pytest.raises(InvalidParameterError, match="epsilon=1e\\+80 .*overflow"):
        mc_risk(WAVE8, LAPLACE, 10, 1e80, "theta_tilde", 10, seed=0, m0=2)


# ---------------------------------------------------------------------------
# oracle ratios


def test_oracle_ratio_reference_smoke():
    ratio = oracle_ratio(wave_template(16), LAPLACE, 100, 0.015, "theta_tilde",
                         100, seed=7)
    assert 0.0 < ratio < 3.0


def test_oracle_ratio_baseline_follows_the_estimator():
    # theta_star is compared with inf r_bar, theta_tilde and theta_u with inf r,
    # each over the cap of the run: the formula's (2 here) or the one given
    t = wave_template(16)
    for m0, cap in ((None, compute_m0(LAPLACE, 100, 16).value), (9, 9)):
        report = risk_report(t, LAPLACE, 100, 0.015, cap)
        for kind, curve in (("theta_star", report.r_bar), ("theta_tilde", report.r),
                            ("theta_u", report.r)):
            mc = mc_risk(t, LAPLACE, 100, 0.015, kind, 50, seed=7, m0=m0)
            ratio = oracle_ratio(t, LAPLACE, 100, 0.015, kind, 50, seed=7, m0=m0)
            assert ratio == mc.mean / float(np.min(curve))
        assert np.min(report.r) < np.min(report.r_bar)
    assert np.min(report.r) < np.min(report.r[:3])


@pytest.mark.parametrize("seed,build,ratio", [
    (1000, lambda: wave_template(40), 2.04),
    (1001, lambda: sobolev_template(2.0, 5.0, 40), 3.85),
    (1002, lambda: spike_template(40), 1.34),
], ids=["wave", "sobolev", "spike"])
def test_theta_star_risk_over_inf_r(seed, build, ratio):
    # Acceptance 4 divides theta_star's risk by inf r_bar, which lies so far
    # above it on the sobolev and spike templates that only a regression of
    # about 30x would cross its bound.  inf r is the tighter baseline; the
    # bound is 1.25 times the ratio measured on acceptance 4's datasets.
    template = build()
    m0 = compute_m0(LAPLACE, 100, 40).value
    mc = mc_risk(template, LAPLACE, 100, 0.015, "theta_star", 200, seed)
    report = risk_report(template, LAPLACE, 100, 0.015, m0)
    assert mc.mean / float(np.min(report.r)) <= 1.25 * ratio


def test_oracle_ratio_degenerate_denominator():
    with pytest.raises(DegenerateInputError):
        oracle_ratio(WAVE8, point_mass_density(), 5, 0.0, "theta_tilde", 10,
                     seed=0)


def test_oracle_ratio_rejects_fixed_estimator():
    # mc_risk's kind check
    with pytest.raises(InvalidParameterError, match="unknown estimator kind 'fixed_n'"):
        oracle_ratio(WAVE8, LAPLACE, 10, 0.1, "fixed_n", 10, seed=0)


def test_oracle_ratio_checks_the_kind_before_the_oracle_risk():
    # at a zero oracle risk a bad kind is still reported as a bad kind
    for kind in ("bogus", "fixed_n"):
        with pytest.raises(InvalidParameterError, match="unknown estimator kind"):
            oracle_ratio(WAVE8, point_mass_density(), 5, 0.0, kind, 10, seed=0)


_BAD_REPLICATES = [("seed", None), ("seed", True), ("seed", -1), ("seed", 1.5),
                   ("seed", np.float64(2.0)), ("replications", 3.0),
                   ("replications", "4"), ("replications", None),
                   ("replications", False), ("replications", 1)]


@pytest.mark.parametrize("entry", ["mc_risk", "oracle_ratio", "rate_study"])
@pytest.mark.parametrize("name,value", _BAD_REPLICATES,
                         ids=[f"{name}={value!r}" for name, value in _BAD_REPLICATES])
def test_bad_seed_or_replications_is_refused_before_any_draw(entry, name, value,
                                                             monkeypatch):
    # seed=None would seed from OS entropy and True would run as seed 1; each
    # is refused with the value given (rate_study's point i runs at seed + i)
    def refuse(*args, **kwargs):
        raise AssertionError("drew or started a pool")

    monkeypatch.setattr(risk_module, "_draw_summaries", refuse)
    monkeypatch.setattr(risk_module, "_fork_map", refuse)
    args = {"seed": 2, "replications": 4, name: value}
    calls = {
        "mc_risk": lambda: mc_risk(WAVE8, LAPLACE, 10, 0.1, "theta_tilde", **args, m0=2),
        "oracle_ratio": lambda: oracle_ratio(WAVE8, LAPLACE, 10, 0.1, "theta_star", **args),
        "rate_study": lambda: rate_study(1.0, 0.0, 2.0, [2, 3, 4], 0.05, **args, k_max=4),
    }
    with pytest.raises(InvalidParameterError) as info:
        calls[entry]()
    assert str(info.value).startswith(f"{name} must be")
    assert str(info.value).endswith(f"got {value!r}")


# ---------------------------------------------------------------------------
# rates


def test_theoretical_rate_exponents():
    assert abs(theoretical_rate_exponent(2.0, 2.0) + 4.0 / 9.0) < 1e-15
    assert abs(theoretical_rate_exponent(3.0, 0.0) + 6.0 / 7.0) < 1e-15
    with pytest.raises(InvalidParameterError):
        theoretical_rate_exponent(0.0, 2.0)
    with pytest.raises(InvalidParameterError):
        theoretical_rate_exponent(1.0, -1.0)


def test_rate_study_validation():
    with pytest.raises(InvalidParameterError):
        rate_study(2.0, 2.0, 5.0, [100, 200], 0.01, 10, seed=0)
    with pytest.raises(InvalidParameterError):
        rate_study(2.0, 2.0, 5.0, [100, 100, 200], 0.01, 10, seed=0)
    with pytest.raises(InvalidParameterError):
        rate_study(2.0, 2.0, 5.0, [0, 100, 200], 0.01, 10, seed=0)
    with pytest.raises(InvalidParameterError):
        # no built-in density decays at this exponent
        rate_study(2.0, 1.5, 5.0, [50, 100, 200], 0.01, 10, seed=0)


def test_rate_study_refuses_a_grid_size_that_mc_risk_refuses():
    # each size is checked as it is given, not truncated to an int first
    for n_grid in ([2.9, 3.5, 4.99], [True, 2, 3], [2, 3, np.float64(4.0)]):
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            rate_study(1.0, 0.0, 2.0, n_grid, 0.05, 2, seed=0, k_max=4)
    study = rate_study(1.0, 0.0, 2.0, np.arange(2, 5), 0.05, 2, seed=0, k_max=4)
    assert study.n_grid.tolist() == [2, 3, 4]


def test_rate_study_refuses_a_zero_risk_after_the_points_run():
    # noiseless point-mass data lets u_tilde pick k_max, whose loss is 0; the
    # points run in pool processes, each sent the density rate_study built
    with pytest.raises(DegenerateInputError, match="Monte Carlo risk is not positive"):
        rate_study(1.0, 0.0, 2.0, [40, 80, 160], 0.0, 2, 0, k_max=8, workers=2)


def test_rate_study_no_shift_smoke():
    """beta=0: risk should fall roughly like n^{-2/3} for s=1."""
    study = rate_study(1.0, 0.0, 2.0, [50, 100, 200], 0.05, 40, seed=11,
                       k_max=32)
    assert study.theoretical_slope == theoretical_rate_exponent(1.0, 0.0)
    assert np.all(np.diff(study.mise) < 0.0)  # strictly decreasing risk
    assert -1.2 < study.fitted_slope < -0.3
    assert study.n_grid.tolist() == [50, 100, 200]


def test_rate_study_slope_stderr_propagates_the_point_stderrs():
    study = rate_study(1.0, 0.0, 2.0, [50, 100, 200, 400], 0.05, 12, seed=3, k_max=16)
    # the slope is linear in log(mise): its derivative along each point, from
    # the fit itself, times that point's stderr of log(mise)
    log_n = np.log(study.n_grid.astype(float))
    partials = [np.polyfit(log_n, np.eye(4)[i], 1)[0] for i in range(4)]
    expected = math.sqrt(sum((d * se / m) ** 2 for d, se, m
                             in zip(partials, study.mise_stderr, study.mise)))
    assert study.slope_stderr == pytest.approx(expected, rel=1e-12)
    assert study.fitted_slope == float(np.polyfit(log_n, np.log(study.mise), 1)[0])


# ---------------------------------------------------------------------------
# the worker pool

SMALL_RATE = (1.0, 0.0, 2.0, [40, 80, 160, 320], 0.05, 6)


def _rate_bytes(study):
    return (study.mise.tobytes(), study.mise_stderr.tobytes(),
            repr(study.fitted_slope), repr(study.slope_stderr))


def test_rate_study_is_bit_identical_for_any_worker_count():
    runs = [_rate_bytes(rate_study(*SMALL_RATE, seed=5, k_max=16, workers=w))
            for w in (1, 2, 3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_rate_study_builds_its_density_once_and_sends_it_to_the_pool(monkeypatch):
    # each job is mc_risk's own positional arguments, the density included,
    # and no pool process builds a density
    parent, built, jobs = os.getpid(), [], []

    def build(sigma):
        assert os.getpid() == parent, "a pool process built a density"
        built.append(sigma)
        return laplace_density(sigma)

    fork_map = risk_module._fork_map

    def record(fn, units, workers):
        jobs.extend(units)
        return fork_map(fn, units, workers)

    monkeypatch.setattr(risk_module, "laplace_density", build)
    monkeypatch.setattr(risk_module, "_fork_map", record)
    study = rate_study(2.0, 2.0, 1.0, [40, 80, 160], 0.2, 4, seed=3, k_max=8, workers=2)
    assert built == [0.1]
    assert [job[2] for job in jobs] == [160, 80, 40]
    assert all(job[1] is jobs[0][1] and job[4:] == ("theta_tilde", 4, 5 - i)
               for i, job in enumerate(jobs))
    assert np.array([mc_risk(*job).mean for job in jobs[::-1]]).tobytes() == \
        study.mise.tobytes()


def _pooled_here():
    return sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2


def _unit_and_pid(unit):
    return unit, os.getpid()


def test_fork_map_runs_units_in_pool_processes():
    # twice: the first pool's threads are gone when it returns, so the second pools too
    for _ in range(2):
        pids = _fork_map(_unit_and_pid, range(4), 2)
        assert [unit for unit, _ in pids] == [0, 1, 2, 3]
        assert all((pid != os.getpid()) == _pooled_here() for _, pid in pids)


def _die_in_a_child_at_one(job):
    unit, parent = job
    if unit == 1 and os.getpid() != parent:
        os._exit(1)
    return unit


@pytest.mark.skipif(not _pooled_here(), reason="the pool runs on Linux with 2 usable CPUs")
def test_a_dead_pool_process_raises_instead_of_hanging():
    with pytest.raises(BrokenProcessPool):
        _fork_map(_die_in_a_child_at_one, [(u, os.getpid()) for u in range(2)], 2)


def test_mc_risk_checks_workers_and_runs_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the replicate engine started a pool")

    monkeypatch.setattr(risk_module, "_fork_map", no_pool)
    args = (WAVE8, LAPLACE, 15, 0.05, "theta_star", 24)
    assert mc_risk(*args, seed=9, m0=6, workers=3).losses.tobytes() == \
        mc_risk(*args, seed=9, m0=6).losses.tobytes()


@pytest.mark.parametrize("setting", ["spawn only", "not linux", "a thread running"])
def test_pool_is_serial_where_forking_is_unsafe(setting, monkeypatch):
    reference = _rate_bytes(rate_study(*SMALL_RATE, seed=2, k_max=16))

    def no_pool(method=None):
        raise AssertionError("a pool was started where forking is unsafe")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    if setting == "spawn only":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    elif setting == "not linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if setting == "a thread running":
        thread.start()
    try:
        assert _rate_bytes(rate_study(*SMALL_RATE, seed=2, k_max=16, workers=3)) == reference
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()


class _RecordingPool:
    """Stands in for a fork pool: records its size and runs in this process."""

    sizes = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, iterable):
        return map(func, iterable)


def _square(u):
    return u * u


def test_pool_size_is_capped_at_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    assert _fork_map(_square, range(10), 10 ** 6) == [u * u for u in range(10)]
    reference = _rate_bytes(rate_study(*SMALL_RATE, seed=4, k_max=16))
    assert _rate_bytes(rate_study(*SMALL_RATE, seed=4, k_max=16, workers=10 ** 6)) == reference
    # a pool never holds more processes than units: four grid points, two units
    assert _fork_map(abs, [-1, 2], 10 ** 6) == [1, 2]
    assert _RecordingPool.sizes == [3, 3, 2]


def test_an_error_in_a_pool_process_keeps_its_type_and_message():
    caught = []
    for workers in (1, 2):
        with pytest.raises(InvalidParameterError, match="noise terms overflow") as info:
            rate_study(*SMALL_RATE[:4], 1e153, 6, seed=0, k_max=16, workers=workers)
        caught.append((type(info.value), str(info.value)))
    assert caught[0] == caught[1]


def test_the_engine_refuses_a_bad_penalty_variant_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking penalty_variant")

    monkeypatch.setattr(risk_module, "_draw_summaries", no_draw)
    calls = [
        lambda: mc_risk(WAVE8, LAPLACE, 10, 0.1, "theta_tilde", 10, seed=0,
                        penalty_variant="bogus"),
        lambda: oracle_ratio(WAVE8, LAPLACE, 10, 0.1, "theta_star", 10, seed=0,
                             penalty_variant="bogus"),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="unknown penalty_variant 'bogus'"):
            call()


@pytest.mark.parametrize("workers", [0, -1, True, False, 2.5, "2", None])
def test_workers_must_be_a_positive_integer(workers, monkeypatch, tmp_path):
    # each of the four entry points refuses it before any draw; the study
    # also before its bundle directory exists
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking workers")

    monkeypatch.setattr(risk_module, "_draw_summaries", no_draw)
    out = tmp_path / "bundle"
    calls = [
        lambda: mc_risk(WAVE8, LAPLACE, 10, 0.1, "theta_tilde", 10, seed=0, m0=2,
                        workers=workers),
        lambda: oracle_ratio(WAVE8, LAPLACE, 10, 0.1, "theta_star", 10, seed=0,
                             workers=workers),
        lambda: run_replication_study(ExperimentConfig(replications=2), out,
                                      workers=workers),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="workers must be"):
            call()
    assert not out.exists()

    monkeypatch.setattr(risk_module, "mc_risk", no_draw)
    with pytest.raises(InvalidParameterError, match="workers must be"):
        rate_study(*SMALL_RATE, seed=0, k_max=16, workers=workers)
