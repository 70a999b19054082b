"""Benchmark of the shiftdecon package: three workloads, end to end and per layer.

Run one workload from the root of a source checkout::

    python3 bench/run.py --workload study-2000 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` a run times whole passes with tracing off and reports every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it alternates
traced and untraced passes and reports every per-layer metric.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out FILE`` also appends the
full record of the run (samples, checks, environment, parameters) to FILE.

Compare two result files, each holding runs of the same benchmark::

    python3 bench/run.py --compare PARENT.json CHANGE.json

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 7   # fresh interpreters per run; set-up reports their median
MIN_PASSES = 3      # timed passes per run, even when one pass outlasts --seconds
MAX_PROBLEMS = 20   # distinct check failures kept in a record

sys.path.insert(0, str(BENCH_DIR))
from spans import Target, Tracer, install, self_times  # noqa: E402
from verdict import summarize, verdict  # noqa: E402
from workloads import WORKLOADS, csv_cells_and_bytes  # noqa: E402


def _sim_size(obs):
    return obs.n * (2 * obs.k_max + 1)


def _selection(sel):
    return sel.criterion_kind, sel.chosen_n == sel.m0


# Every function wrapped in a traced pass.  Names are ``<module>.<function>``;
# the owner is the defining module, and every shiftdecon module binding the
# same object is wrapped with it.
TARGETS = [
    Target("catalog.sobolev_template", "shiftdecon.catalog", "sobolev_template"),
    Target("catalog.catalog_template", "shiftdecon.catalog", "catalog_template"),
    Target("config.load_config", "shiftdecon.config", "load_config"),
    Target("config.build_template", "shiftdecon.config", "build_template"),
    Target("config.build_density", "shiftdecon.config", "build_density"),
    Target("spectral.ShiftDensity.gamma", "shiftdecon.spectral:ShiftDensity", "gamma"),
    Target("spectral.synthesize", "shiftdecon.spectral", "synthesize"),
    Target("simulate.simulate", "shiftdecon.simulate", "simulate", _sim_size),
    Target("simulate.render_curves", "shiftdecon.simulate", "render_curves"),
    Target("selection.compute_m0", "shiftdecon.selection", "compute_m0"),
    Target("selection.criterion_trace", "shiftdecon.selection", "criterion_trace"),
    Target("selection.select_cutoff", "shiftdecon.selection", "select_cutoff", _selection),
    Target("selection.fraction_negative_theta_hat", "shiftdecon.selection",
           "fraction_negative_theta_hat"),
    Target("selection.estimate", "shiftdecon.selection", "estimate"),
    Target("risk.risk_report", "shiftdecon.risk", "risk_report"),
    Target("risk.mc_risk", "shiftdecon.risk", "mc_risk"),
    Target("risk.rate_study", "shiftdecon.risk", "rate_study"),
    Target("study.run_replication_study", "shiftdecon.study", "run_replication_study"),
    Target("csvio.write_csv", "shiftdecon.csvio", "write_csv"),
    Target("csvio.write_curves_csv", "shiftdecon.csvio", "write_curves_csv"),
    Target("csvio.read_template_csv", "shiftdecon.csvio", "read_template_csv"),
    Target("cli.main", "shiftdecon.cli", "main"),
]


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- one run ---------------------------------------------------------------


class Outcome:
    """Attempted and failed passes, with what made them fail.

    A pass fails when it raises, when a check on its outputs fails, or when
    its outputs differ from the first pass's at the same seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_fingerprint = None

    def note(self, problems) -> None:
        """Count one failed pass and keep what made it fail."""
        self.failed += 1
        for problem in problems:
            if problem not in self.problems and len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)

    def run(self, workload, out_dir: Path, pass_fn):
        """Run ``pass_fn`` (which runs one pass and returns its output and
        wall time), check the output, and return the wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output, wall = pass_fn()
        except Exception:  # a failing pass is counted and reported, not fatal
            self.note([traceback.format_exc(limit=-3).strip().splitlines()[-1]])
            return time.perf_counter() - start
        try:
            problems = list(workload.check(output, out_dir))
            fingerprint = workload.fingerprint(output, out_dir)
        except Exception:
            problems = ["checking outputs raised: "
                        + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
            fingerprint = None
        if self._first_fingerprint is None:
            self._first_fingerprint = fingerprint
        elif fingerprint != self._first_fingerprint:
            problems.append("outputs differ from the first pass at this seed")
        if problems:
            self.note(problems)
        return wall


def _plain_pass(workload, out_dir):
    def run():
        start = time.perf_counter()
        output = workload.run_pass(out_dir)
        return output, time.perf_counter() - start
    return run


def _memory_pass(workload, out_dir, peaks: list):
    def run():
        tracemalloc.start()
        try:
            start = time.perf_counter()
            output = workload.run_pass(out_dir)
            wall = time.perf_counter() - start
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return output, wall
    return run


def _traced_pass(workload, out_dir, traces: list):
    def run():
        tracer = Tracer()
        with install(tracer, TARGETS) as missing:
            with tracer.span("pass") as root:
                output = workload.run_pass(out_dir)
        traces.append((tracer.spans, root, missing, *csv_cells_and_bytes(out_dir)))
        return output, root.duration
    return run


def setup_samples(workload, count: int) -> list:
    """Seconds from launching a fresh interpreter until the package is
    imported and the workload's template, density and m0 are built."""
    samples = []
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), *workload.probe_args()]
    for _ in range(count):
        launched = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        samples.append(float(done.stdout.split()[0]) - launched)
    return samples


def _enough(walls, seconds: float, elapsed: float, minimum: int) -> bool:
    """Stop once ``minimum`` samples exist and another would overrun."""
    return len(walls) >= minimum and elapsed + statistics.median(walls) > seconds


def timed_run(workload, out_dir: Path, seconds: float, outcome: Outcome) -> dict:
    setup = setup_samples(workload, SETUP_SAMPLES)
    peaks = []
    # untimed: the memory pass also warms the process up
    outcome.run(workload, out_dir, _memory_pass(workload, out_dir, peaks))
    walls = []
    start = time.perf_counter()
    while not _enough(walls, seconds, time.perf_counter() - start, MIN_PASSES):
        walls.append(outcome.run(workload, out_dir, _plain_pass(workload, out_dir)))
    wall = statistics.median(walls)
    rates = [workload.replicates_per_pass / w for w in walls]
    values = {"wall_s": wall,
              "replicates_per_s": workload.replicates_per_pass / wall,
              "setup_s": statistics.median(setup),
              "peak_mem_mb": peaks[0] / 1e6 if peaks else 0.0,  # 0: the pass failed
              "failed_frac": outcome.failed / outcome.attempted}
    samples = {"wall_s": walls, "replicates_per_s": rates, "setup_s": setup,
               "peak_mem_mb": [p / 1e6 for p in peaks]}
    return {"values": values, "samples": samples}


def traced_run(workload, out_dir: Path, seconds: float, outcome: Outcome) -> dict:
    outcome.run(workload, out_dir, _plain_pass(workload, out_dir))  # warm-up
    traces, traced_walls, plain_walls = [], [], []
    start = time.perf_counter()
    while not _enough([t + p for t, p in zip(traced_walls, plain_walls)], seconds,
                      time.perf_counter() - start, 1):
        traced_walls.append(outcome.run(workload, out_dir,
                                        _traced_pass(workload, out_dir, traces)))
        plain_walls.append(outcome.run(workload, out_dir, _plain_pass(workload, out_dir)))
    per_pass = []
    for spans, root, missing, cells, size in traces:
        metrics, residual = layer_metrics(spans, root, workload.replicates_per_pass)
        metrics["csvio.cells_written"] = float(cells)
        metrics["csvio.bytes_written"] = float(size)
        if abs(residual) > 1e-6 * root.duration + 1e-9:
            outcome.note([f"self times miss the traced wall by {residual!r} s"])
        per_pass.append(metrics)
    if not per_pass:
        raise RuntimeError(f"no traced pass completed: {outcome.problems}")
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced = statistics.median(plain_walls)
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_frac"] = values["trace.wall_s"] / untraced - 1.0
    samples = {"trace.wall_s": traced_walls, "trace.untraced_wall_s": plain_walls}
    missing = sorted({name for trace in traces for name in trace[2]})
    functions = [function_table(spans, root.duration) for spans, root, *_ in traces]
    return {"values": values, "samples": samples, "missing_targets": missing,
            "functions": functions}


def function_table(spans, wall: float) -> dict:
    """Calls, busy, self time and share of traced wall for every span name."""
    selfs, _ = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += selfs[id(span)]
    for row in table.values():
        row["share"] = row["self_s"] / wall
    return table


def layer_metrics(spans, root, replicates: int) -> tuple[dict, float]:
    """Per-layer metrics of one traced pass, and the residual of the identity
    ``sum(self) - overlap == traced wall`` (zero up to rounding)."""
    import numpy as np

    selfs, overlap = self_times(spans)
    wall = root.duration
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return float(len(by_name[name]))

    def busy(name):
        return float(sum(s.duration for s in by_name[name]))

    def self_s(name):
        return float(sum(selfs[id(s)] for s in by_name[name]))

    def pct_us(name, q):
        durations = [s.duration for s in by_name[name]]
        return float(np.percentile(durations, q)) * 1e6 if durations else 0.0

    m = {}
    for name in ("simulate.simulate", "selection.select_cutoff"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.share"] = self_s(name) / wall
        m[f"{name}.p50_us"] = pct_us(name, 50)
        m[f"{name}.p99_us"] = pct_us(name, 99)
    sims = by_name["simulate.simulate"]
    coeffs = sum(s.info for s in sims)
    m["simulate.simulate.ns_per_coeff"] = busy("simulate.simulate") * 1e9 / coeffs \
        if coeffs else 0.0
    top = max((s.info for s in sims), default=None)
    largest = [s.duration for s in sims if s.info == top]
    m["simulate.simulate.largest_n_p50_us"] = \
        float(np.percentile(largest, 50)) * 1e6 if largest else 0.0
    m["simulate.render_curves.busy_s"] = busy("simulate.render_curves")
    m["simulate.render_curves.share"] = self_s("simulate.render_curves") / wall
    m["spectral.synthesize.busy_s"] = busy("spectral.synthesize")
    m["spectral.ShiftDensity.gamma.calls"] = calls("spectral.ShiftDensity.gamma")
    m["spectral.ShiftDensity.gamma.calls_per_replicate"] = \
        calls("spectral.ShiftDensity.gamma") / replicates
    for name in ("selection.fraction_negative_theta_hat", "selection.criterion_trace",
                 "selection.estimate", "risk.risk_report", "csvio.write_csv",
                 "csvio.write_curves_csv", "csvio.read_template_csv",
                 "config.load_config", "config.build_template", "config.build_density",
                 "catalog.sobolev_template"):
        m[f"{name}.busy_s"] = busy(name)
    for name in ("selection.compute_m0", "risk.mc_risk", "risk.risk_report",
                 "csvio.write_csv"):
        m[f"{name}.calls"] = calls(name)
    for name in ("study.run_replication_study", "risk.mc_risk", "risk.rate_study",
                 "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    picks = [s.info for s in by_name["selection.select_cutoff"]]
    for kind in ("u_bar", "u_tilde"):
        hits = [at_cap for k, at_cap in picks if k == kind]
        m[f"selection.selections.{kind}"] = float(len(hits))
        m[f"selection.cap_hit_frac.{kind}"] = sum(hits) / len(hits) if hits else 0.0
    # replicate work on the pool over the pool's capacity, workers x mc_risk wall;
    # workers are counted as the distinct threads that ran replicate work
    pool_spans = [c for c in spans if c.parent is not None and c.parent.name == "risk.mc_risk"]
    threads = len({c.thread for c in pool_spans})
    capacity = busy("risk.mc_risk") * threads
    m["risk.mc_risk.pool_busy_frac"] = \
        sum(c.duration for c in pool_spans) / capacity if capacity else 0.0
    m["csvio.writes.share"] = (self_s("csvio.write_csv")
                               + self_s("csvio.write_curves_csv")) / wall
    m["trace.wall_s"] = wall
    m["trace.root_self_s"] = selfs[id(root)]
    m["trace.parallel_overlap_s"] = overlap
    residual = sum(selfs.values()) - overlap - wall
    return m, residual


# --- reporting -------------------------------------------------------------


def environment() -> dict:
    import numpy
    import shiftdecon

    revision = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, check=False)
        if head.returncode == 0:
            revision = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"cpu_count": os.cpu_count(), "cpus_usable": affinity,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "shiftdecon": shiftdecon.__version__, "platform": platform.platform(),
            "machine": platform.machine(), "git_revision": revision,
            "git_dirty": dirty,
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, spec) -> int:
    if not (SRC / "shiftdecon" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'shiftdecon'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = workdir / "out"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](workdir, args.seed)
        workload.prepare()
        outcome = Outcome()
        runner = traced_run if args.trace else timed_run
        measured = runner(workload, out_dir, float(args.seconds), outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = measured["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    correct = outcome.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "failed_frac": outcome.failed / outcome.attempted,
        "problems": outcome.problems, "replicates_per_pass": workload.replicates_per_pass,
        "params": workload.params(), "environment": environment(),
        "metrics": metrics, "all_values": values,
        "summaries": {k: summarize(v) for k, v in measured["samples"].items() if v},
        "samples": measured["samples"],
        "missing_targets": measured.get("missing_targets", []),
        "functions": measured.get("functions", []),
    }
    if args.out:
        append_record(Path(args.out), record)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{workload.replicates_per_pass} replicates per pass")
    print(f"  parameters: {json.dumps(record['params'])}")
    print(f"  environment: {json.dumps(record['environment'])}")
    for name, summary in record["summaries"].items():
        print(f"  {name}: median {_fmt(summary['median'])} q1 {_fmt(summary['q1'])} "
              f"q3 {_fmt(summary['q3'])} n={summary['count']}"
              + (f" p{summary['tail_percentile']:g} {_fmt(summary['tail_value'])}"
                 if "tail_value" in summary else ""))
    for name, metric in metrics.items():
        print(f"  {name:<52} {_fmt(metric['value']):>14} {metric['unit']}")
    print(f"  failed_frac {outcome.failed}/{outcome.attempted}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    for name in record["missing_targets"]:
        print(f"warning: traced target {name} is not defined by the package",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def append_record(path: Path, record: dict) -> None:
    runs = load_runs(path) if path.exists() else []
    runs.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    tmp.replace(path)


def load_runs(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


# --- compare ---------------------------------------------------------------


def _quartile_cell(summary) -> str:
    return f"{_fmt(summary['median'])} [{_fmt(summary['q1'])}, {_fmt(summary['q3'])}]"


def _pairs(parent_runs, change_runs):
    """Runs paired by seed where seeds match, else in order."""
    by_seed = {r["seed"]: r for r in change_runs}
    matched = [(p, by_seed[p["seed"]]) for p in parent_runs if p["seed"] in by_seed]
    return matched or list(zip(parent_runs, change_runs))


def compare(parent_runs, change_runs, spec, out=sys.stdout) -> list:
    """Print the verdict rows and per-layer deltas; returns the verdict rows."""
    rows = []
    workloads = sorted({r["workload"] for r in parent_runs}
                       & {r["workload"] for r in change_runs})
    print(f"{'workload':<14} {'metric':<17} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':<7} verdict", file=out)
    for wl in workloads:
        pairs = _pairs([r for r in parent_runs if r["workload"] == wl and not r["trace"]],
                       [r for r in change_runs if r["workload"] == wl and not r["trace"]])
        for metric in spec["end_to_end"] if pairs else ():
            name = metric["name"]
            try:
                parent = [p["metrics"][name]["value"] for p, _ in pairs]
                change = [c["metrics"][name]["value"] for _, c in pairs]
            except KeyError:
                continue
            v = verdict(parent, change, bound=metric["bound"],
                        higher_is_better=metric["better"] == "higher")
            rows.append({"workload": wl, "metric": name, **v})
            wins = f"{v['wins']}/{v['pairs']}"
            print(f"{wl:<14} {name:<17} {_quartile_cell(v['parent']):<36} "
                  f"{_quartile_cell(v['change']):<36} {wins:<7} {v['verdict']}", file=out)
    print("\nper-layer medians over traced runs (change - parent, and change / parent)",
          file=out)
    for wl in workloads:
        p_runs = [r for r in parent_runs if r["workload"] == wl and r["trace"]]
        c_runs = [r for r in change_runs if r["workload"] == wl and r["trace"]]
        if not (p_runs and c_runs):
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not (p_vals and c_vals):
                continue
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            ratio = f"x{c_med / p_med:.3f}" if p_med else "-"
            print(f"{wl:<14} {name:<52} {_fmt(p_med):>12} -> {_fmt(c_med):>12}  "
                  f"{_fmt(c_med - p_med):>12}  {ratio} ({metric['unit']})", file=out)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record of the run to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        rows = compare(load_runs(Path(args.compare[0])), load_runs(Path(args.compare[1])),
                       spec)
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
