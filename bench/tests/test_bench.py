"""Tests of the benchmark's own arithmetic, wrapping and verdicts.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Span, Target, Tracer, install, self_times, union_length  # noqa: E402
from verdict import (IMPROVED, REGRESSED, UNRESOLVED, WITHIN, quartiles,  # noqa: E402
                     tail_percentile, verdict)


def _span(name, start, end, parent=None, thread=1):
    span = Span(name, parent, thread)
    span.start, span.end = start, end
    return span


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0.0


def test_self_times_on_nested_tree_with_two_pool_threads():
    root = _span("pass", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 2.0, 3.0, a)
    # two pool threads working for root at once
    c = _span("c", 5.0, 9.0, root, thread=2)
    d = _span("d", 6.0, 8.0, root, thread=3)
    e = _span("e", 6.5, 7.0, d, thread=3)
    spans = [b, a, e, c, d, root]
    selfs, overlap = self_times(spans)
    assert selfs[id(b)] == 1.0
    assert selfs[id(a)] == 2.0
    assert selfs[id(e)] == 0.5
    assert selfs[id(d)] == 1.5
    assert selfs[id(c)] == 4.0
    assert selfs[id(root)] == 10.0 - (3.0 + 4.0)  # c and d together cover 5..9
    assert overlap == 2.0                           # d runs inside c's interval
    assert sum(selfs.values()) - overlap == root.duration


def test_tracer_attributes_pool_work_to_the_dispatching_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def work(_):
        with tracer.span("work"):
            leaf_wrapped()

    leaf_wrapped = tracer.wrap(Target("leaf", "unused", "leaf"), leaf)
    with tracer.span("pass") as root:
        with tracer.span("dispatch") as dispatch:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(work, i) for i in range(4)]
                for future in futures:
                    future.result(timeout=10)
    works = [s for s in tracer.spans if s.name == "work"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(works) == 4 and len(leaves) == 4
    assert all(s.parent is dispatch for s in works)
    assert all(s.parent.name == "work" and s.thread == s.parent.thread for s in leaves)
    assert {s.thread for s in works} != {threading.get_ident()}
    selfs, overlap = self_times(tracer.spans)
    assert sum(selfs.values()) - overlap == pytest.approx(root.duration, abs=1e-9)
    assert overlap > 0.0


def _bindings():
    """Every callable bound in a shiftdecon module, keyed by (module, name)."""
    out = {}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "shiftdecon" or name.startswith("shiftdecon."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    return out


def test_traced_pass_wraps_then_restores_every_binding(tmp_path):
    import shiftdecon.cli  # noqa: F401  (loads every module the targets live in)
    from shiftdecon.config import ExperimentConfig
    from shiftdecon.spectral import ShiftDensity

    study_mod, simulate_mod = sys.modules["shiftdecon.study"], sys.modules["shiftdecon.simulate"]
    before = _bindings()
    gamma = ShiftDensity.gamma
    tracer = Tracer()
    with install(tracer, run.TARGETS) as missing:
        assert missing == []
        assert study_mod.simulate is not before[("shiftdecon.study", "simulate")]
        assert study_mod.simulate.__wrapped__ is simulate_mod.simulate.__wrapped__
        assert ShiftDensity.gamma is not gamma
        with tracer.span("pass"):
            study_mod.run_replication_study(ExperimentConfig(replications=3), tmp_path)
    names = {s.name for s in tracer.spans}
    assert {"study.run_replication_study", "simulate.simulate", "selection.select_cutoff",
            "spectral.ShiftDensity.gamma", "csvio.write_csv"} <= names
    assert study_mod.simulate is simulate_mod.simulate
    assert ShiftDensity.gamma is gamma
    assert _bindings() == before


def test_install_restores_after_an_exception():
    import shiftdecon.risk
    original = shiftdecon.risk.select_cutoff
    with pytest.raises(RuntimeError):
        with install(Tracer(), run.TARGETS):
            assert shiftdecon.risk.select_cutoff is not original
            raise RuntimeError("boom")
    assert shiftdecon.risk.select_cutoff is original


def test_layer_metrics_cover_every_listed_per_layer_metric():
    root = _span("pass", 0.0, 2.0)
    mc = _span("risk.mc_risk", 0.5, 1.5, root)
    sims = [_span("simulate.simulate", 0.6, 1.4, mc, thread=t) for t in (2, 3)]
    for sim in sims:
        sim.info = 100 * 49
    sel = _span("selection.select_cutoff", 1.6, 1.7, root)
    sel.info = ("u_tilde", True)
    metrics, residual = run.layer_metrics([*sims, mc, sel, root], root, replicates=2)
    metrics.update({"csvio.cells_written": 0.0, "csvio.bytes_written": 0.0,
                    "trace.untraced_wall_s": 1.0, "trace.overhead_frac": 0.0})
    listed = {m["name"] for m in run.load_spec()["per_layer"]}
    assert listed <= set(metrics)
    assert residual == pytest.approx(0.0, abs=1e-12)
    assert metrics["risk.mc_risk.pool_busy_frac"] == pytest.approx(1.6 / 2.0)
    assert metrics["selection.cap_hit_frac.u_tilde"] == 1.0
    assert metrics["simulate.simulate.ns_per_coeff"] == pytest.approx(1.6e9 / 9800)


def _runs(values):
    return [float(v) for v in values]


PARENT = _runs([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01])


@pytest.mark.parametrize("change, expected", [
    ([v * 0.8 for v in PARENT], IMPROVED),             # a clear win
    ([v * 1.001 for v in reversed(PARENT)], WITHIN),   # a tie
    ([v * 1.3 for v in PARENT], REGRESSED),            # worse by more than the bound
])
def test_verdicts_on_fabricated_samples(change, expected):
    assert verdict(PARENT, change, bound=0.1, higher_is_better=False)["verdict"] == expected


def test_verdict_is_unresolved_when_spread_is_wider_than_bound():
    wide = _runs([0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0])
    shuffled = _runs([1.3, 0.7, 1.2, 0.8, 1.1, 0.9, 1.0, 1.4, 0.6, 1.05])
    result = verdict(wide, shuffled, bound=0.1, higher_is_better=False)
    assert result["verdict"] == UNRESOLVED
    assert result["spread"] > 0.1


def test_verdict_respects_higher_is_better():
    faster = [v * 1.25 for v in PARENT]
    assert verdict(PARENT, faster, bound=0.1, higher_is_better=True)["verdict"] == IMPROVED
    assert verdict(PARENT, faster, bound=0.1, higher_is_better=False)["verdict"] == REGRESSED


def test_quartiles_match_statistics_quantiles_and_tail_needs_ten_beyond():
    values = list(range(1, 11))
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert tail_percentile(values) is None
    p, _ = tail_percentile(range(200))
    assert p == 95.0


def test_without_package_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "study-2000",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_spec_lists_valid_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
