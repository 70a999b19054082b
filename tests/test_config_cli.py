"""Configuration parsing and the command-line front end."""
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from shiftdecon.cli import _resolve_config, build_parser, main
from shiftdecon.config import (CONFIG_FIELDS, ExperimentConfig, build_density,
                               build_template, load_config, parse_config,
                               save_config, serialize_config)
from shiftdecon.csvio import write_template_csv
from shiftdecon.errors import ConfigError
from shiftdecon.catalog import wave_template
from shiftdecon.risk import risk_report
from shiftdecon.selection import CRITERION_ESTIMATORS
from shiftdecon.simulate import simulate
from shiftdecon.spectral import _synthesis_matrix_t, laplace_density


# ---------------------------------------------------------------------------
# config object


def test_default_config_is_the_reference_study():
    cfg = ExperimentConfig()
    assert cfg.template == "wave"
    assert cfg.density_kind == "laplace" and cfg.density_sigma == 0.1
    assert (cfg.n, cfg.epsilon, cfg.k_max) == (100, 0.015, 40)
    assert cfg.replications == 100 and cfg.seed == 1
    assert cfg.m0_override == 32
    assert cfg.penalty_variant == "printed_form"


@pytest.mark.parametrize("field,value", [
    ("density_kind", "cauchy"),
    ("density_sigma", -0.1),
    ("density_sigma", math.inf),
    ("density_sigma", math.nan),
    ("density_half_width", math.inf),
    ("n", 0),
    ("epsilon", -1.0),
    ("epsilon", math.inf),
    ("epsilon", 1e155),
    ("k_max", 0),
    ("criterion", "aic"),
    ("replications", 0),
    ("replications", 1),
    ("seed", -1),
    ("m0_override", 1.5),
    ("penalty_variant", "other"),
    # a bool would pass as a number and be written back as "true"
    ("n", True),
    ("k_max", True),
    ("seed", True),
    ("m0_override", True),
    ("epsilon", True),
    ("density_sigma", True),
    ("density_half_width", True),
])
def test_config_validation(field, value):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value, key", [
    ("density_sigma", "0.1", "'density.sigma'"),
    ("epsilon", None, "'epsilon'"),
    ("template", 5, "'template'"),
    ("density_kind", None, "'density.kind'"),
    ("k_max", 40.0, "'k_max'"),
    ("seed", "1", "'seed'"),
])
def test_config_refuses_a_wrongly_typed_value_naming_the_key(field, value, key):
    # not a bare TypeError from a comparison, nor a value that would be
    # written back as another type (template = 5 would read back as '5')
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{field: value})


def test_m0_override_range_is_checked_against_the_built_band(capsys):
    # the config takes any integer cap; a command that selects refuses one
    # outside 0..k_max of the template it builds, and risk defaults to that cap
    assert ExperimentConfig(m0_override=41).m0_override == 41
    for argv in (("select", "--m0-override", "41"), ("risk", "--k-max", "16")):
        assert run_cli(*argv) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "InvalidParameterError"
        assert "m0 must be in 0.." in payload["message"]
    # an explicit --n-max may still pass the band
    assert run_cli("risk", "--k-max", "16", "--n-max", "20") == 0


def test_serialize_round_trips_numpy_scalars():
    for cfg in (ExperimentConfig(epsilon=np.float64(0.015)),
                ExperimentConfig(density_sigma=np.float32(0.1)),
                ExperimentConfig(n=np.int64(7))):
        text = serialize_config(cfg)
        assert "np." not in text
        assert parse_config(text) == cfg
    assert serialize_config(ExperimentConfig(epsilon=np.float64(0.015))) \
        == serialize_config(ExperimentConfig())


def test_serialize_parse_round_trip():
    for cfg in (ExperimentConfig(),
                ExperimentConfig(template="spike", density_kind="uniform",
                                 density_half_width=0.2, n=37, epsilon=0.25,
                                 k_max=11, criterion="u", replications=3,
                                 seed=99, m0_override=None,
                                 penalty_variant="proof_form"),
                ExperimentConfig(template="a%b.csv")):
        assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("template", ["a ;b.csv", "a #b.csv", "a\t;b.csv", ";b.csv",
                                      "#b.csv", " wave", "wave ", "a\nb.csv"])
def test_serialize_rejects_text_that_would_read_back_otherwise(template, tmp_path):
    cfg = ExperimentConfig(template=template)
    with pytest.raises(ConfigError, match="template"):
        serialize_config(cfg)
    out = tmp_path / "exp.ini"
    with pytest.raises(ConfigError):
        save_config(cfg, out)
    assert not out.exists()


def test_serialize_keeps_comment_characters_without_whitespace_before():
    for template in ("a;b.csv", "a#b.csv", "a\tb#c.csv"):
        cfg = ExperimentConfig(template=template)
        assert parse_config(serialize_config(cfg)) == cfg


def test_save_and_load(tmp_path):
    cfg = ExperimentConfig(n=12, seed=5)
    path = save_config(cfg, tmp_path / "exp.ini")
    assert load_config(path) == cfg


def test_parse_fragments_and_comments():
    cfg = parse_config("[experiment]\nn = 17  ; curves\nseed = 3\n")
    assert cfg.n == 17 and cfg.seed == 3
    assert cfg.epsilon == ExperimentConfig().epsilon  # untouched default
    assert parse_config("").n == 100


def test_parse_m0_override_none():
    assert parse_config("[experiment]\nm0_override = none\n").m0_override is None
    assert parse_config("[experiment]\nm0_override = 7\n").m0_override == 7


def test_parse_rejects_unknown_names():
    with pytest.raises(ConfigError):
        parse_config("[experiments]\nn = 2\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nbandwidth = 2\n")
    with pytest.raises(ConfigError):
        parse_config("[density]\nrate = 2\n")
    # the logarithm is always natural: the former log_base key is refused by name
    with pytest.raises(ConfigError, match="'log_base'"):
        parse_config("[experiment]\nlog_base = natural\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nn = many\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nepsilon = tiny\n")
    with pytest.raises(ConfigError):
        parse_config("not ini at all")


def test_parse_reads_percent_literally():
    # no interpolation: "%" needs no escape and "%%" stays two characters
    assert parse_config("[experiment]\ntemplate = a%b.csv\n").template == "a%b.csv"
    assert parse_config("[experiment]\ntemplate = a%%b.csv\n").template == "a%%b.csv"


def test_config_fields_are_the_dataclass_fields():
    assert [f.name for f in CONFIG_FIELDS] == \
        [f.name for f in dataclasses.fields(ExperimentConfig)]


# one value per field, other than the default, valid as a flag and as a file value
_NON_DEFAULT = {
    "template": "spike", "density_kind": "gaussian", "density_sigma": "0.2",
    "density_half_width": "0.3", "n": "37", "epsilon": "0.25", "k_max": "50",
    "criterion": "u", "replications": "3", "seed": "99", "m0_override": "formula",
    "penalty_variant": "proof_form",
}


@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=[f.name for f in CONFIG_FIELDS])
def test_flag_and_file_set_each_field_alike(field, tmp_path):
    raw = _NON_DEFAULT[field.name]
    ini = tmp_path / "one.ini"
    ini.write_text(f"[{field.section}]\n{field.key} = {raw}\n")
    parser = build_parser()
    from_file = _resolve_config(parser.parse_args(["write-config", "--config", str(ini)]))
    from_flag = _resolve_config(parser.parse_args(["write-config", field.flag, raw]))
    assert from_file == from_flag
    assert getattr(from_flag, field.name) != getattr(ExperimentConfig(), field.name)


def test_build_density_kinds():
    assert build_density(ExperimentConfig()).label == "laplace(sigma=0.1)"
    assert build_density(ExperimentConfig(density_kind="gaussian",
                                          density_sigma=0.2)).label == "gaussian(sigma=0.2)"
    assert build_density(ExperimentConfig(density_kind="uniform",
                                          density_half_width=0.3)).label == "uniform(half_width=0.3)"
    assert build_density(ExperimentConfig(density_kind="point_mass")).label == "point_mass"


def test_build_template_catalog_and_file(tmp_path):
    t = build_template(ExperimentConfig(template="wave", k_max=16,
                                        m0_override=None))
    assert t.label == "wave" and t.k_max == 16

    path = write_template_csv(tmp_path / "custom.csv", wave_template(9))
    loaded = build_template(ExperimentConfig(template=str(path), k_max=40))
    assert loaded.k_max == 9  # the file's own band wins

    with pytest.raises(ConfigError):
        build_template(ExperimentConfig(template=str(tmp_path / "missing.csv")))
    with pytest.raises(ConfigError):
        build_template(ExperimentConfig(template="sawtooth"))


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_simulate_writes_curves(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = run_cli("simulate", "--n", "5", "--k-max", "10", "--seed", "3",
                   "--m0-override", "none", "--grid-size", "64", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6  # header + 5 curves
    assert "wrote 5 rendered curves" in capsys.readouterr().out


def test_cli_reports_an_unwritable_output_as_one_json_line(tmp_path, capsys):
    out = tmp_path / "missing" / "curves.csv"
    code = run_cli("simulate", "--n", "5", "--k-max", "10", "--m0-override", "none",
                   "--grid-size", "64", "--out", str(out))
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "OSError" and str(out) in payload["message"]


def test_cli_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("simulate", "--n", "4", "--k-max", "12", "--m0-override", "none",
            "--seed", "9", "--out", str(a))
    run_cli("simulate", "--n", "4", "--k-max", "12", "--m0-override", "none",
            "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_simulate_curves_bytes(tmp_path):
    out = tmp_path / "curves.csv"
    code = run_cli("simulate", "--k-max", "64", "--grid-size", "256", "--n", "20",
                   "--seed", "3", "--out", str(out))
    assert code == 0
    cfg = ExperimentConfig(k_max=64, n=20, seed=3)
    obs = simulate(build_template(cfg), build_density(cfg), cfg.n, cfg.epsilon, cfg.seed)
    sym = 0.5 * (obs.per_curve + np.conj(obs.per_curve[:, ::-1]))
    mat = _synthesis_matrix_t(64, 256)
    lines = [",".join(repr(float(x)) for x in np.arange(256) / 256)]
    for j in range(cfg.n):
        row = (sym[j : j + 1] @ mat)[0].real
        lines.append(",".join(repr(float(v)) for v in row))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_cli_select_reports_cutoffs(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli("select", "--criterion", "u_tilde", "--seed", "2",
                   "--out", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "criterion=u_tilde" in text and "m0=32" in text
    assert out.read_text().splitlines()[0] == "n,criterion"
    assert len(out.read_text().splitlines()) == 34


def test_cli_estimate_fixed_cutoff(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.csv"
    fit = tmp_path / "fit.csv"
    code = run_cli("estimate", "--cutoff", "4", "--seed", "1",
                   "--out", str(coeffs), "--grid-out", str(fit),
                   "--grid-size", "128")
    assert code == 0
    assert "cutoff=4 kind=fixed_n" in capsys.readouterr().out
    assert len(coeffs.read_text().splitlines()) == 82  # header + 81 frequencies
    assert fit.read_text().splitlines()[0] == "x,estimate,truth"


def test_cli_estimate_labels_the_selecting_criterion(capsys):
    for criterion, kind in CRITERION_ESTIMATORS.items():
        code = run_cli("estimate", "--criterion", criterion, "--seed", "1")
        assert code == 0
        assert f"kind={kind}" in capsys.readouterr().out
    assert CRITERION_ESTIMATORS["u"] == "theta_u"


def test_cli_risk_matches_library(tmp_path):
    out = tmp_path / "risk.csv"
    code = run_cli("risk", "--n-max", "12", "--epsilon", "0.02", "--out", str(out))
    assert code == 0
    # independent library call must serialize to the same bytes
    from shiftdecon.csvio import write_risk_report_csv
    rep = risk_report(wave_template(40), laplace_density(0.1), 100, 0.02, 12)
    expected = tmp_path / "expected.csv"
    write_risk_report_csv(expected, rep)
    assert out.read_bytes() == expected.read_bytes()


def test_cli_write_config_round_trip(tmp_path):
    out = tmp_path / "exp.ini"
    code = run_cli("write-config", "--n", "33", "--m0-override", "none",
                   "--penalty-variant", "proof_form", "--out", str(out))
    assert code == 0
    cfg = load_config(out)
    assert cfg.n == 33 and cfg.m0_override is None
    assert cfg.penalty_variant == "proof_form"


def test_cli_refuses_the_log_base_flag(tmp_path, capsys):
    # an unknown flag is an argparse usage error, not ignored
    out = tmp_path / "exp.ini"
    with pytest.raises(SystemExit) as exc:
        run_cli("write-config", "--log-base", "decimal", "--out", str(out))
    assert exc.value.code == 2
    assert "--log-base" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_with_flag_overrides(tmp_path):
    ini = tmp_path / "base.ini"
    ini.write_text("[experiment]\nn = 7\nseed = 4\n")
    out = tmp_path / "resolved.ini"
    run_cli("write-config", "--config", str(ini), "--seed", "11",
            "--out", str(out))
    cfg = load_config(out)
    assert cfg.n == 7      # from file
    assert cfg.seed == 11  # flag wins


def test_cli_replication_study_smoke(tmp_path, capsys):
    out = tmp_path / "study"
    code = run_cli("replication-study", "--replications", "8", "--n", "30",
                   "--k-max", "16", "--m0-override", "12", "--grid-size", "64",
                   "--out", str(out))
    assert code == 0
    produced = {p.name for p in out.iterdir()}
    assert produced == {"template_curve.csv", "sample_curves.csv", "traces.csv",
                        "selections.csv", "histograms.csv", "risk_curves.csv",
                        "risk_summary.csv", "meta.csv"}
    assert "study bundle written" in capsys.readouterr().out


def test_cli_rate_study_smoke(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = run_cli("rate-study", "--smoothness", "1.0", "--beta", "0.0",
                   "--radius", "2.0", "--n-grid", "40,80,160",
                   "--replications", "6", "--epsilon", "0.05", "--k-max", "24",
                   "--m0-override", "none", "--out", str(out))
    assert code == 0
    assert "fitted_slope=" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "n,mise,stderr"


@pytest.mark.parametrize("argv", [
    *(("select", "--criterion", kind) for kind in CRITERION_ESTIMATORS),
    ("estimate",), ("risk",),
], ids=" ".join)
def test_cli_runs_at_one_curve(argv, capsys):
    # log^2(1)/1 = 0: no penalty, and the formula cap saturates at k_max
    assert run_cli(*argv, "--n", "1") == 0
    assert capsys.readouterr().err == ""


def test_cli_studies_run_at_one_curve(tmp_path, capsys):
    out = tmp_path / "study"
    assert run_cli("replication-study", "--n", "1", "--replications", "2",
                   "--out", str(out)) == 0
    with open(out / "meta.csv", newline="") as fh:
        meta = dict(csv.reader(fh))
    assert meta["m0_threshold"] == "0.0" and meta["m0_formula_saturated"] == "true"
    assert meta["m0_formula"] == "40"
    assert run_cli("rate-study", "--n-grid", "1,2,4") == 0
    assert capsys.readouterr().err == ""


def test_cli_coefficient_file_band_governs_the_cap(tmp_path, capsys):
    wide = write_template_csv(tmp_path / "wide.csv", wave_template(60))
    assert run_cli("select", "--template", str(wide), "--m0-override", "50") == 0
    assert "m0=50" in capsys.readouterr().out
    # a 9-band file under the default cap 32
    narrow = write_template_csv(tmp_path / "narrow.csv", wave_template(9))
    assert run_cli("select", "--template", str(narrow)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "InvalidParameterError"
    assert "m0" in payload["message"] and "32" in payload["message"]


def test_cli_write_config_refuses_a_scale_every_command_would(tmp_path, capsys):
    out = tmp_path / "exp.ini"
    assert run_cli("write-config", "--sigma", "1e160", "--out", str(out)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert "'density.sigma'" in payload["message"]
    assert not out.exists()


def test_cli_rate_study_reports_the_slope_stderr(capsys):
    assert run_cli("rate-study", *TINY_RATE_STUDY) == 0
    fitted, stderr = capsys.readouterr().out.splitlines()[-2:]
    slope = float(fitted.split()[0].removeprefix("fitted_slope="))
    theory = float(fitted.split()[1].removeprefix("theoretical_slope="))
    se = float(stderr.split()[0].removeprefix("slope_stderr="))
    assert se > 0.0
    assert stderr.split()[1] == f"gap_to_theory={slope - theory:+.3g}"
    assert stderr.split()[2] == f"({(slope - theory) / se:+.2f}"


def test_cli_replication_study_needs_two_replications(tmp_path, capsys):
    # one replication has no standard error: the configuration refuses it,
    # exit 2, and no bundle with a nan mc_stderr
    out = tmp_path / "study"
    code = run_cli("replication-study", "--replications", "1", "--out", str(out))
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert "replications" in payload["message"] and ">= 2" in payload["message"]
    assert not out.exists()


# One non-default value per configuration field that rate-study does not read.
RATE_STUDY_IGNORED = {"template": "spike", "density_kind": "gaussian",
                      "density_sigma": "0.3", "density_half_width": "0.3",
                      "n": "50", "criterion": "u_tilde", "m0_override": "5",
                      "penalty_variant": "proof_form"}
FIELD_BY_NAME = {field.name: field for field in CONFIG_FIELDS}
TINY_RATE_STUDY = ("--smoothness", "1.0", "--beta", "0.0", "--n-grid", "40,80,160",
                   "--replications", "3")


@pytest.mark.parametrize("name", sorted(RATE_STUDY_IGNORED))
def test_cli_rate_study_rejects_a_field_it_ignores(name, capsys):
    field = FIELD_BY_NAME[name]
    code = run_cli("rate-study", *TINY_RATE_STUDY, field.flag, RATE_STUDY_IGNORED[name])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert field.flag in payload["message"]


def test_cli_rate_study_checks_the_config_file(tmp_path, capsys):
    assert set(RATE_STUDY_IGNORED) | {"epsilon", "replications", "seed", "k_max"} \
        == set(FIELD_BY_NAME)
    ini = tmp_path / "gaussian.ini"
    ini.write_text("[density]\nkind = gaussian\n")
    code = run_cli("rate-study", *TINY_RATE_STUDY, "--config", str(ini))
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError" and "--density" in payload["message"]
    # a file holding the defaults is fine, and so is the formula cap
    defaults = tmp_path / "defaults.ini"
    assert run_cli("write-config", "--out", str(defaults)) == 0
    code = run_cli("rate-study", *TINY_RATE_STUDY, "--config", str(defaults),
                   "--m0-override", "none", "--seed", "4")
    assert code == 0
    assert "fitted_slope=" in capsys.readouterr().out


def test_cli_errors_are_json_on_stderr(tmp_path, capsys):
    code = run_cli("select", "--template", "sawtooth")
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "sawtooth" in payload["message"]

    code = run_cli("risk", "--config", str(tmp_path / "nope.ini"))
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    code = run_cli("rate-study", "--n-grid", "10,abc")
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ShiftDeconError"

    # uniform(0.25) has gamma zeros inside the default cap m0 = 32
    code = run_cli("replication-study", "--density", "uniform",
                   "--out", str(tmp_path / "study"))
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "VanishingEigenvalueError"
    assert "EIGENVALUE_FLOOR" in payload["message"]

    # flags go through the same parsers as file keys
    for flag, raw in (("--m0-override", "abc"), ("--n", "many")):
        code = run_cli("select", flag, raw)
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert flag in payload["message"] and repr(raw) in payload["message"]


def test_cli_config_file_rejects_infinite_epsilon(tmp_path, capsys):
    path = tmp_path / "inf.ini"
    path.write_text("[experiment]\nepsilon = inf\n")
    code = run_cli("risk", "--config", str(path))
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert "'epsilon'" in payload["message"]


@pytest.mark.parametrize("command", ["select", "risk", "replication-study"])
def test_cli_rejects_an_epsilon_whose_square_overflows(command, tmp_path, capsys):
    code = run_cli(command, "--epsilon", "1e155", "--out", str(tmp_path / "out"))
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert "'epsilon'" in payload["message"] and "finite square" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "estimate", "risk", "replication-study"])
def test_cli_rejects_an_epsilon_whose_noise_terms_overflow(command, tmp_path, capsys):
    # epsilon**2 is finite, epsilon**2/n / |gamma_k|^2 is not
    code = run_cli(command, "--epsilon", "1.34e154", "--out", str(tmp_path / "out"))
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "InvalidParameterError"
    assert "epsilon=1.34e+154" in payload["message"] and "overflow" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_cli_study_refuses_an_epsilon_whose_stderr_overflows(tmp_path, capsys):
    # the losses are finite, their squared deviations are not: refused before
    # the bundle directory exists, not written as mc_stderr = inf
    out = tmp_path / "study"
    code = run_cli("replication-study", "--epsilon", "1e80", "--replications", "50",
                   "--out", str(out))
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "InvalidParameterError"
    assert "epsilon=1e+80" in payload["message"] and "overflow" in payload["message"]
    assert not out.exists()


def test_cli_refuses_a_density_scale_whose_gamma_overflows(capsys):
    # coef * k^2 overflows before the eigenvalue guard sees |gamma_k| = 0
    code = run_cli("select", "--sigma", "1e152")
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "VanishingEigenvalueError"


def test_cli_rejects_non_finite_density_parameters(tmp_path, capsys):
    for flags, key in (
        (("--density", "uniform", "--half-width", "inf", "--m0-override", "none"),
         "'density.half_width'"),
        (("--sigma", "inf"), "'density.sigma'"),
        (("--density", "gaussian", "--sigma", "inf"), "'density.sigma'"),
        (("--sigma", "nan"), "'density.sigma'"),
    ):
        code = run_cli("simulate", *flags, "--out", str(tmp_path / "curves.csv"))
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert key in payload["message"] and "finite" in payload["message"]
    assert not (tmp_path / "curves.csv").exists()


def test_cli_config_file_with_percent_in_template(tmp_path):
    ini = tmp_path / "pct.ini"
    ini.write_text("[experiment]\ntemplate = a%b.csv\n")
    out = tmp_path / "resolved.ini"
    assert run_cli("write-config", "--config", str(ini), "--out", str(out)) == 0
    assert load_config(out).template == "a%b.csv"
    assert run_cli("write-config", "--template", "c%d.csv", "--out", str(out)) == 0
    assert load_config(out).template == "c%d.csv"


def test_cli_module_entry_point(tmp_path):
    # the module runs as a subprocess program, stdout/stderr contract included
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "shiftdecon.cli", "risk", "--n-max", "4"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "oracle_r=" in proc.stdout
