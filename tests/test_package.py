"""The public surface: every exported name exists, and the keyword options
are exactly the listed ones."""
import importlib
import inspect
import pkgutil

import pytest

import shiftdecon

MODULES = ["shiftdecon", *(f"shiftdecon.{info.name}"
                           for info in pkgutil.iter_modules(shiftdecon.__path__))]

# Every parameter with a default, over the functions in the modules' __all__.
# A new option has to be added here.
PUBLIC_KEYWORD_OPTIONS = {
    "catalog.sobolev_template(k_max)",
    "catalog.spike_template(k_max)",
    "catalog.spike_template(location)",
    "catalog.wave_template(k_max)",
    "cli.main(argv)",
    "risk.mc_risk(cutoff)",
    "risk.mc_risk(log_base)",
    "risk.mc_risk(m0)",
    "risk.mc_risk(penalty_variant)",
    "risk.mc_risk(workers)",
    "risk.oracle_ratio(log_base)",
    "risk.oracle_ratio(m0)",
    "risk.oracle_ratio(penalty_variant)",
    "risk.oracle_ratio(workers)",
    "risk.rate_study(k_max)",
    "risk.rate_study(workers)",
    "risk.risk_report(log_base)",
    "selection.compute_m0(log_base)",
    "selection.criterion_increments(log_base)",
    "selection.criterion_increments(penalty_variant)",
    "selection.estimate(kind)",
    "selection.select_cutoff(kind)",
    "selection.select_cutoff(log_base)",
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
