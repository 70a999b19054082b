"""Property tests: exact identities and guards over generated inputs."""
import dataclasses
import inspect
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftdecon
from shiftdecon.catalog import sobolev_template, wave_template
from shiftdecon.config import ExperimentConfig
from shiftdecon.csvio import format_cell
from shiftdecon.errors import (ConfigError, InvalidParameterError, InvariantViolationError,
                               ShiftDeconError, VanishingEigenvalueError)
from shiftdecon import risk
from shiftdecon.risk import _run_replicates, mc_risk, risk_report
from shiftdecon.selection import (CRITERION_ESTIMATORS, CRITERION_KINDS, PENALTY_VARIANTS,
                                  CutoffSelection, SpectralEstimate,
                                  _band_energy, criterion_increments, criterion_trace,
                                  fraction_negative_theta_hat, theta_hat_squared)
from shiftdecon.simulate import SequenceObservations, SequenceSummary, simulate, simulate_summary
from shiftdecon.spectral import (EIGENVALUE_FLOOR, ShiftDensity, Template, gaussian_density,
                                 laplace_density, point_mass_density,
                                 uniform_density)

LAPLACE = laplace_density(0.1)
WAVE8 = wave_template(8)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=40)
@given(seed=SEEDS, n=st.integers(1, 50), epsilon=st.sampled_from([0.0, 0.01, 0.5]),
       kind=st.sampled_from(CRITERION_KINDS), n_max=st.integers(0, 8),
       variant=st.sampled_from(PENALTY_VARIANTS))
def test_criterion_traces_telescope_bitwise(seed, n, epsilon, kind, n_max, variant):
    obs = simulate(WAVE8, LAPLACE, n, epsilon, seed)
    inc = criterion_increments(obs, LAPLACE, kind, n_max, penalty_variant=variant)
    trace = criterion_trace(obs, LAPLACE, kind, n_max, penalty_variant=variant)
    assert trace[0] == inc[0]
    assert np.array_equal(trace[1:], trace[:-1] + inc[1:])


@settings(max_examples=40)
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
    stack = SequenceSummary(c_tilde=c_tilde, n=n, epsilon=epsilon, k_max=k_max)
    n_max = data.draw(st.integers(0, k_max))
    traces = {(kind, variant): criterion_trace(stack, LAPLACE, kind, n_max,
                                               penalty_variant=variant)
              for kind in CRITERION_KINDS for variant in PENALTY_VARIANTS}
    fractions = fraction_negative_theta_hat(stack, LAPLACE, n_max)
    assert fractions.shape == lead
    for index in np.ndindex(*lead):
        row = SequenceSummary(c_tilde=c_tilde[index], n=n, epsilon=epsilon, k_max=k_max)
        for (kind, variant), trace in traces.items():
            alone = criterion_trace(row, LAPLACE, kind, n_max, penalty_variant=variant)
            assert trace[index].tobytes() == alone.tobytes()
        alone = fraction_negative_theta_hat(row, LAPLACE, n_max)
        assert type(alone) is float and fractions[index] == alone


@settings(max_examples=40)
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
    stack = SequenceSummary(c_tilde=c_tilde, n=n, epsilon=epsilon, k_max=k_max)
    n_max = data.draw(st.integers(0, k_max))
    _, t, g2 = _band_energy(stack, density, n_max)
    energy = t / g2
    for index in np.ndindex(*lead):
        row = SequenceSummary(c_tilde=c_tilde[index], n=n, epsilon=epsilon, k_max=k_max)
        for k in range(-n_max, n_max + 1):
            scale = max(abs(c_tilde[index][k_max + k]) ** 2, epsilon ** 2 / n)
            ulp = np.spacing(scale / g2[n_max + k])
            assert abs(energy[index][n_max + k]
                       - theta_hat_squared(row, density, k)) <= 8 * ulp


@settings(max_examples=60)
@given(k_bad=st.integers(-10, 10), band=st.integers(0, 10),
       value=st.one_of(st.floats(0.0, 1.5e-8), st.floats(1.5e-8, 1.0)))
def test_guard_raises_on_any_sub_floor_eigenvalue(k_bad, band, value):
    # gamma_k and gamma_(-k) move together, as for any real shifts
    density = ShiftDensity(
        gamma_fn=lambda k: np.where(np.abs(k) == abs(k_bad), value, 1.0).astype(complex),
        sampler=lambda u: np.zeros(u.shape[:-1]))
    if k_bad == 0 and abs(value - 1.0) > 1e-12:
        # no characteristic function has gamma_0 != 1
        with pytest.raises(InvariantViolationError, match="at k=0 differs from 1"):
            density.gamma_band(band)
        with pytest.raises(InvariantViolationError, match="at k=0 differs from 1"):
            risk_report(WAVE8, density, 10, 0.1, band)
    elif abs(k_bad) <= band and value * value <= EIGENVALUE_FLOOR:
        with pytest.raises(VanishingEigenvalueError, match="EIGENVALUE_FLOOR"):
            density.gamma_band(band)
        with pytest.raises(VanishingEigenvalueError):
            risk_report(WAVE8, density, 10, 0.1, band)
    else:
        assert np.all(np.abs(density.gamma_band(band)) ** 2 > EIGENVALUE_FLOOR)
        assert math.isfinite(risk_report(WAVE8, density, 10, 0.1, band).r[band])


@settings(max_examples=8)
@given(seed=SEEDS, n=st.integers(1, 40),
       rules=st.lists(st.sampled_from(CRITERION_KINDS), min_size=1, max_size=3))
def test_replicate_engine_is_worker_invariant(seed, n, rules):
    for rule in rules:
        runs = [mc_risk(WAVE8, LAPLACE, n, 0.05, CRITERION_ESTIMATORS[rule], 7, seed, m0=6,
                        workers=w) for w in (1, 2, 3)]
        for other in runs[1:]:
            for field, ref in zip(other, runs[0]):
                assert np.array_equal(field, ref)


@settings(max_examples=25)
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
                                        CRITERION_KINDS, m0, penalty_variant="printed_form"))
    for other in runs[1:]:
        for field, ref in zip(_fields(other), _fields(runs[0])):
            assert np.asarray(field).tobytes() == np.asarray(ref).tobytes()


def _fields(reps) -> list:
    """Every field of an engine run: each rule's record's, then the rest."""
    return [*(field for mc in reps.rules for field in mc), *reps[1:]]


DENSITIES = (LAPLACE, laplace_density(0.4), gaussian_density(0.15),
             uniform_density(0.2), point_mass_density())


@settings(max_examples=40)
@given(seed=SEEDS, density=st.sampled_from(DENSITIES), k_max=st.integers(1, 24),
       n=st.integers(1, 400), epsilon=st.sampled_from([0.0, 0.01, 0.5]))
@example(seed=0, density=LAPLACE, k_max=1, n=49, epsilon=0.0)  # 49 * (1/49) < 1
def test_simulated_spectra_are_hermitian(seed, density, k_max, n, epsilon):
    # with no noise and every coefficient 1, a summary's c_tilde is the
    # gamma_tilde of its shifts
    template = sobolev_template(1.5, 1.0, k_max)
    ones = Template(coeffs=np.ones(2 * k_max + 1, dtype=complex), k_max=k_max)
    for gt in (simulate(template, density, n, epsilon, seed).gamma_tilde,
               simulate_summary(ones, density, n, 0.0, seed).c_tilde):
        assert gt[k_max] == 1.0
        assert np.array_equal(np.conj(gt[::-1]), gt)
    for spectrum in (simulate(template, density, n, 0.0, seed).per_curve,
                     simulate_summary(template, density, n, epsilon, seed).c_tilde):
        assert np.array_equal(np.conj(spectrum[..., ::-1]), spectrum)


# One valid call per function in shiftdecon.__all__: its keyword arguments and
# the names of its integer and real parameters.  Object parameters (a template,
# a density, a dataset, a configuration) keep their values.
OBS = simulate(WAVE8, LAPLACE, 20, 0.05, 0)
CFG = ExperimentConfig(k_max=8, n=5, replications=2, m0_override=4)
DRAW = dict(template=WAVE8, density=LAPLACE, n=5, epsilon=0.05, seed=0)
MONTE_CARLO = (dict(DRAW, estimator_kind="theta_tilde", replications=2, m0=4, workers=1),
               ("n", "epsilon", "replications", "seed", "m0", "workers"))
RISK = dict(template=WAVE8, density=LAPLACE, n=20, epsilon=0.05)
OUT_DIR = object()  # stands for a fresh directory at each call
PUBLIC_CALLS = {
    "laplace_density": (dict(sigma=0.1), ("sigma",)),
    "gaussian_density": (dict(sigma=0.1), ("sigma",)),
    "uniform_density": (dict(half_width=0.2), ("half_width",)),
    "point_mass_density": ({}, ()),
    "synthesize": (dict(template=WAVE8, grid_size=17), ("grid_size",)),
    "analyze": (dict(samples=np.cos(np.arange(17)), k_max=8), ("k_max",)),
    "simulate": (DRAW, ("n", "epsilon", "seed")),
    "simulate_summary": (DRAW, ("n", "epsilon", "seed")),
    "render_curves": (dict(obs=OBS, grid_size=17), ("grid_size",)),
    "render_grid": (dict(grid_size=17), ("grid_size",)),
    "compute_m0": (dict(density=LAPLACE, n=20, k_max=8), ("n", "k_max")),
    "theta_hat_squared": (dict(obs=OBS, density=LAPLACE, k=2), ("k",)),
    "fraction_negative_theta_hat": (dict(obs=OBS, density=LAPLACE, n_max=4), ("n_max",)),
    "criterion_trace": (dict(obs=OBS, density=LAPLACE, kind="u", n_max=4), ("n_max",)),
    "select_cutoff": (dict(obs=OBS, density=LAPLACE, m0=4), ("m0",)),
    "estimate": (dict(obs=OBS, density=LAPLACE, cutoff=2), ("cutoff",)),
    "risk_report": (dict(RISK, n_max=4), ("n", "epsilon", "n_max")),
    "exact_risk": (dict(RISK, cutoff=2), ("n", "epsilon", "cutoff")),
    "mc_risk": MONTE_CARLO,
    "oracle_ratio": MONTE_CARLO,
    "rate_study": (dict(s=1.0, beta=0.0, radius=2.0, n_grid=[2, 3, 4], epsilon=0.05,
                        replications=2, seed=0, k_max=4, workers=1),
                   ("s", "beta", "radius", "epsilon", "replications", "seed", "k_max",
                    "workers")),
    "theoretical_rate_exponent": (dict(s=2.0, beta=2.0), ("s", "beta")),
    "wave_template": (dict(k_max=8), ("k_max",)),
    "sobolev_template": (dict(smoothness=1.5, radius=1.0, k_max=8),
                         ("smoothness", "radius", "k_max")),
    "spike_template": (dict(k_max=8, location=2), ("k_max", "location")),
    "catalog_template": (dict(name="sobolev", k_max=8), ("k_max",)),
    "parse_config": (dict(text="[experiment]\nn = 5\n"), ()),
    "load_config": (dict(path=os.devnull), ()),
    "serialize_config": (dict(cfg=CFG), ()),
    "save_config": (dict(cfg=CFG, path=os.devnull), ()),
    "build_density": (dict(cfg=CFG), ()),
    "build_template": (dict(cfg=CFG), ()),
    "run_replication_study": (dict(cfg=CFG, out_dir=OUT_DIR, grid_size=17, workers=1),
                              ("grid_size", "workers")),
}
NUMERIC_PARAMETERS = [(name, param) for name, (_, params) in PUBLIC_CALLS.items()
                      for param in params]
HOSTILE = (None, True, "2", 2.5, math.nan, math.inf, -math.inf, -1, 10 ** 30, 10 ** 400,
           np.uint8(3), np.float32(0.1))


def _call(name, /, **swap):
    """The table's call of ``name`` with the arguments in ``swap`` replaced,
    under warnings as errors."""
    kwargs, _ = PUBLIC_CALLS[name]
    with tempfile.TemporaryDirectory() as fresh_dir, warnings.catch_warnings():
        warnings.simplefilter("error")
        kwargs = {key: fresh_dir if value is OUT_DIR else value
                  for key, value in {**kwargs, **swap}.items()}
        return getattr(shiftdecon, name)(**kwargs)


def _finite(result) -> bool:
    """Every number in ``result`` is finite: the fields of a dataclass or a
    tuple, the entries of an array; text, paths and callables hold none."""
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return all(map(_finite, result))
    if isinstance(result, (np.ndarray, np.number, int, float, complex)):
        return bool(np.all(np.isfinite(result)))
    return True


def test_the_table_holds_one_valid_call_per_public_function():
    functions = {name for name in shiftdecon.__all__
                 if inspect.isfunction(getattr(shiftdecon, name))}
    assert functions == set(PUBLIC_CALLS)
    for name in PUBLIC_CALLS:
        assert _finite(_call(name)), name


# Hypothesis draws no pair twice, so as many examples as pairs try every one.
@settings(max_examples=len(NUMERIC_PARAMETERS) * len(HOSTILE))
@given(site=st.sampled_from(NUMERIC_PARAMETERS), value=st.sampled_from(HOSTILE))
def test_a_hostile_number_gives_a_finite_result_or_a_typed_refusal(site, value):
    # no bare TypeError, IndexError or ValueError, no warning, no non-finite
    # result; a workers value that passes starts at most min(units, CPUs)
    # processes, in rate_study's pool of 3 grid points
    name, param = site
    try:
        result = _call(name, **{param: value})
    except ShiftDeconError:
        return
    assert _finite(result), (name, param, value)


# Values a comparison, an index or numpy would otherwise see first: a string or
# None compared, True taken as 1, 2.5 truncated, an infinite smoothness raised
# to a power, a size too large for an array allocated.  Each is refused.
REFUSED = [("estimate", "cutoff", "2"), ("criterion_trace", "n_max", "2"),
           ("risk_report", "n_max", None), ("exact_risk", "cutoff", None),
           ("synthesize", "grid_size", "8"), ("theta_hat_squared", "k", True),
           ("render_grid", "grid_size", 2.5), ("compute_m0", "k_max", 3.5),
           ("spike_template", "location", 1.5), ("sobolev_template", "smoothness", math.inf),
           ("sobolev_template", "smoothness", 10 ** 30), ("simulate", "seed", None),
           ("simulate", "n", 10 ** 30), ("render_grid", "grid_size", 10 ** 30),
           ("wave_template", "k_max", 10 ** 30), ("mc_risk", "replications", 10 ** 30),
           ("risk_report", "n_max", 10 ** 30), ("run_replication_study", "grid_size", 10 ** 30)]


@pytest.mark.parametrize("name,param,value", REFUSED,
                         ids=[f"{name}-{param}-{value!r}" for name, param, value in REFUSED])
def test_a_bad_number_is_refused_before_any_warning(name, param, value):
    with pytest.raises(InvalidParameterError):
        _call(name, **{param: value})


def test_a_seed_of_any_size_is_a_seed():
    for name in ("simulate", "simulate_summary", "mc_risk", "rate_study"):
        assert _finite(_call(name, seed=10 ** 30))


# The named choices of the public functions, each tried with values that an
# `in` test, a dict lookup or a comparison would otherwise see first: a list,
# a dict or an array is unhashable, and an array compared with a name has no
# truth value.
CHOICE_PARAMETERS = [("criterion_trace", "kind"), ("select_cutoff", "kind"),
                     ("select_cutoff", "penalty_variant"), ("estimate", "kind"),
                     ("mc_risk", "estimator_kind"), ("mc_risk", "penalty_variant"),
                     ("oracle_ratio", "estimator_kind"), ("oracle_ratio", "penalty_variant"),
                     ("catalog_template", "name")]
BAD_CHOICES = (None, 1, b"u", ["u"], {"u": 1}, np.array(["u", "u"]), "U", "")
BAD_CHOICE_IDS = ["None", "1", "bytes", "list", "dict", "array", "U", "empty"]


@pytest.mark.parametrize("value", BAD_CHOICES, ids=BAD_CHOICE_IDS)
@pytest.mark.parametrize("name,param", CHOICE_PARAMETERS,
                         ids=[f"{name}-{param}" for name, param in CHOICE_PARAMETERS])
def test_a_bad_choice_is_a_typed_refusal(name, param, value):
    with pytest.raises(ShiftDeconError, match="unknown .*expected one of"):
        _call(name, **{param: value})


@pytest.mark.parametrize("value", BAD_CHOICES, ids=BAD_CHOICE_IDS)
@pytest.mark.parametrize("field,key", [("criterion", "'criterion'"),
                                       ("density_kind", "'density.kind'"),
                                       ("penalty_variant", "'penalty_variant'")])
def test_a_bad_config_choice_is_a_config_error(field, key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{field: value})


# A hand-built dataset of 17 columns (k_max = 8) and the fields that spoil it;
# each is refused when it is built, not by whichever criterion reads it first.
# A SequenceObservations derives c_tilde, n and k_max from its curves, so it
# refuses them as arguments, and a summary has no gamma_tilde to be given.
DATASETS = {SequenceSummary: dict(c_tilde=OBS.c_tilde, n=20, epsilon=0.05, k_max=8),
            SequenceObservations: dict(per_curve=OBS.per_curve, epsilon=0.05,
                                       gamma_tilde=OBS.gamma_tilde)}
NAN_COLUMN, INF_COLUMN = OBS.c_tilde.copy(), OBS.c_tilde.copy()
NAN_COLUMN[3], INF_COLUMN[12] = np.nan, math.inf
BAD_DATASETS = {
    "n=0": dict(n=0), "n=-3": dict(n=-3), "n=2.5": dict(n=2.5), "n=True": dict(n=True),
    "n='20'": dict(n="20"), "n=10**30": dict(n=10 ** 30), "epsilon='0.1'": dict(epsilon="0.1"),
    "epsilon=None": dict(epsilon=None), "epsilon=nan": dict(epsilon=math.nan),
    "epsilon=-0.1": dict(epsilon=-0.1), "epsilon=1e200": dict(epsilon=1e200),
    "k_max=2.0": dict(k_max=2.0), "k_max=7": dict(k_max=7), "k_max=9": dict(k_max=9),
    "k_max=-1": dict(k_max=-1), "c_tilde-nan": dict(c_tilde=NAN_COLUMN),
    "c_tilde-inf": dict(c_tilde=INF_COLUMN),
    "gamma_tilde-short": dict(gamma_tilde=OBS.gamma_tilde[:-1]),
    "c_tilde-stacked": dict(c_tilde=OBS.c_tilde[None, :]),
    "c_tilde-scalar": dict(c_tilde=OBS.c_tilde[0]),
}


# A stack of summaries is a summary: a stacked c_tilde spoils only the
# arguments of a SequenceObservations.
BAD_CASES = [(name, cls) for name in BAD_DATASETS for cls in DATASETS
             if (name, cls) != ("c_tilde-stacked", SequenceSummary)]


@pytest.mark.parametrize("cls,spoil", [(cls, BAD_DATASETS[name]) for name, cls in BAD_CASES],
                         ids=[f"{name}-{cls.__name__}" for name, cls in BAD_CASES])
def test_a_bad_dataset_is_refused_when_built(cls, spoil):
    cls(**DATASETS[cls])
    arguments = {field.name for field in dataclasses.fields(cls) if field.init}
    with pytest.raises(InvalidParameterError if set(spoil) <= arguments else TypeError):
        cls(**{**DATASETS[cls], **spoil})


NAN_CURVE = OBS.per_curve.copy()
NAN_CURVE[4, 2] = np.nan
BAD_PER_CURVES = {"one-column-short": OBS.per_curve[:, :-1], "transposed": OBS.per_curve.T,
                  "no-curves": OBS.per_curve[:0], "one-curve": OBS.per_curve[0],
                  "stacked": OBS.per_curve[None], "nan": NAN_CURVE,
                  "mean-overflows": np.full((2, 17), 1e308)}


@pytest.mark.parametrize("per_curve", BAD_PER_CURVES.values(), ids=BAD_PER_CURVES)
def test_a_bad_per_curve_is_refused_when_built(per_curve):
    # at construction, not as a bare numpy error in render_curves
    with pytest.raises(InvalidParameterError, match="per_curve"):
        SequenceObservations(per_curve=per_curve, epsilon=0.05)


# The sizes of the result containers: each is admitted before it sizes an
# array or bounds a cutoff, so a float, a string or None is refused by name
# and none is kept as a float.
BAD_SIZES = {"'2'": "2", "None": None, "2.5": 2.5, "2.0": 2.0, "True": True, "-1": -1}


@pytest.mark.parametrize("size", BAD_SIZES.values(), ids=BAD_SIZES)
def test_a_result_container_admits_an_integer_size(size):
    selection = dict(chosen_n=1, criterion_values=np.zeros(3), criterion_kind="u")
    assert CutoffSelection(m0=np.int64(2), **selection).m0 == 2
    with pytest.raises(InvalidParameterError, match="m0 must be"):
        CutoffSelection(m0=size, **selection)
    estimate = dict(coeffs=np.zeros(5), cutoff=1, kind="theta_star")
    assert type(SpectralEstimate(k_max=np.int32(2), **estimate).k_max) is int
    with pytest.raises(InvalidParameterError, match="k_max must be"):
        SpectralEstimate(k_max=size, **estimate)


# Every table writer hands csvio the numpy values it holds, so a numpy cell
# must give the text of the Python number it stands for, byte for byte.
@settings(max_examples=300)
@given(x=st.floats())
@example(x=0.0)
@example(x=-0.0)
@example(x=math.nan)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=5e-324)
@example(x=1e16)
@example(x=1e-5)
def test_a_numpy_float_cell_is_the_python_floats_cell(x):
    assert format_cell(np.float64(x)) == format_cell(float(x)) == repr(x)


@settings(max_examples=300)
@given(i=st.integers(-2**63, 2**63 - 1))
@example(i=-2**63)
@example(i=2**63 - 1)
@example(i=0)
def test_a_numpy_int_cell_is_the_python_ints_cell(i):
    assert format_cell(np.int64(i)) == format_cell(int(i)) == str(i)

