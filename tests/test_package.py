"""The public surface: every exported name exists, and the package's exported
names, the keyword options and the CLI flags are exactly the listed ones."""
import argparse
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import shiftdecon
from shiftdecon.cli import build_parser

MODULES = ["shiftdecon", *(f"shiftdecon.{info.name}"
                           for info in pkgutil.iter_modules(shiftdecon.__path__))]

# shiftdecon.__all__.  A name added or removed has to be listed here.
PUBLIC_NAMES = {
    "__version__",
    # spectral
    "Template", "ShiftDensity", "laplace_density", "gaussian_density",
    "uniform_density", "point_mass_density", "synthesize", "analyze",
    # simulate
    "SequenceSummary", "SequenceObservations", "simulate", "simulate_summary",
    "render_curves", "render_grid",
    # selection
    "CRITERION_KINDS", "M0Result", "CutoffSelection", "SpectralEstimate",
    "compute_m0", "theta_hat_squared", "fraction_negative_theta_hat",
    "criterion_trace", "select_cutoff", "estimate",
    # risk
    "RiskBreakdown", "RiskReport", "McRisk", "RateStudy", "risk_report",
    "exact_risk", "mc_risk", "oracle_ratio", "rate_study",
    "theoretical_rate_exponent",
    # catalog
    "wave_template", "sobolev_template", "spike_template", "catalog_template",
    "TEMPLATE_BUILDERS",
    # config / study
    "ExperimentConfig", "parse_config", "load_config", "serialize_config",
    "save_config", "build_density", "build_template",
    "ReplicationStudy", "run_replication_study",
    # errors
    "ShiftDeconError", "InvalidParameterError", "AliasingError",
    "InvariantViolationError", "VanishingEigenvalueError",
    "DegenerateInputError", "ConfigError",
}

# Every parameter with a default, over the functions in the modules' __all__.
# A new option has to be added here.
PUBLIC_KEYWORD_OPTIONS = {
    "catalog.sobolev_template(k_max)",
    "catalog.spike_template(k_max)",
    "catalog.spike_template(location)",
    "catalog.wave_template(k_max)",
    "cli.main(argv)",
    "risk.mc_risk(m0)",
    "risk.mc_risk(penalty_variant)",
    "risk.mc_risk(workers)",
    "risk.oracle_ratio(m0)",
    "risk.oracle_ratio(penalty_variant)",
    "risk.oracle_ratio(workers)",
    "risk.rate_study(k_max)",
    "risk.rate_study(workers)",
    "selection.criterion_increments(penalty_variant)",
    "selection.criterion_trace(penalty_variant)",
    "selection.estimate(kind)",
    "selection.select_cutoff(kind)",
    "selection.select_cutoff(m0)",
    "selection.select_cutoff(penalty_variant)",
    "study.run_replication_study(grid_size)",
    "study.run_replication_study(workers)",
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_public_names_are_the_listed_ones():
    assert len(shiftdecon.__all__) == len(set(shiftdecon.__all__))
    assert set(shiftdecon.__all__) == PUBLIC_NAMES


def test_public_keyword_options_are_the_listed_ones():
    found = set()
    for module in MODULES:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            func = getattr(mod, name)
            if not inspect.isfunction(func):
                continue
            where = func.__module__.removeprefix("shiftdecon.") + "." + func.__qualname__
            found |= {f"{where}({p.name})"
                      for p in inspect.signature(func).parameters.values()
                      if p.default is not inspect.Parameter.empty}
    assert found == PUBLIC_KEYWORD_OPTIONS


# The flags of every subcommand: the configuration flags, which all share,
# and each subcommand's own.  A new or removed flag has to be listed here.
CONFIG_FLAGS = {"--config", "--template", "--density", "--sigma", "--half-width", "--n",
                "--epsilon", "--k-max", "--criterion", "--replications", "--seed",
                "--m0-override", "--penalty-variant"}
SUBCOMMAND_FLAGS = {
    "simulate": {"--grid-size", "--out"},
    "select": {"--out"},
    "estimate": {"--cutoff", "--grid-size", "--out", "--grid-out"},
    "risk": {"--n-max", "--out"},
    "replication-study": {"--grid-size", "--workers", "--out"},
    "rate-study": {"--smoothness", "--beta", "--radius", "--n-grid", "--workers", "--out"},
    "write-config": {"--out"},
}


def test_cli_flags_are_the_listed_ones():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(SUBCOMMAND_FLAGS)
    for command, sub in subparsers.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings
                 if flag not in ("-h", "--help")}
        assert flags == CONFIG_FLAGS | SUBCOMMAND_FLAGS[command], command


def test_importing_the_package_leaves_multiprocessing_out():
    # only a worker pool imports multiprocessing, so the import stays lean
    code = "import sys, shiftdecon.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def _fault_audit():
    path = Path(__file__).resolve().parents[1] / "tools" / "fault_audit.py"
    spec = importlib.util.spec_from_file_location("fault_audit", path)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit


def test_every_audited_fault_finds_its_line():
    # tools/fault_audit.py injects each fault as an exact text replacement, so
    # a change that moves a faulted line must move the fault with it
    audit = _fault_audit()
    assert audit.check_faults(audit.FAULTS) == []


def test_fault_audit_records_a_failing_test_id_whole():
    # a parametrized id may hold spaces; the id ends at pytest's " - " before
    # the error, or at the end of the line
    audit = _fault_audit()
    output = ("..F\nFAILED tests/t.py::test_x[a b] - AssertionError: assert 1 - 2 == 0\n"
              "ERROR tests/u.py\n")
    assert [m.group(1) for m in audit._FIRST_FAILURE.finditer(output)] == [
        "tests/t.py::test_x[a b]", "tests/u.py"]


def test_every_module_is_audited():
    # each module with logic of its own carries at least one audited fault
    audit = _fault_audit()
    modules = {path.name for path in (audit.SRC / "shiftdecon").glob("*.py")}
    unaudited = modules - {"__init__.py", "errors.py"} - {f.module for f in audit.FAULTS}
    assert not unaudited, f"modules without an audited fault: {sorted(unaudited)}"
