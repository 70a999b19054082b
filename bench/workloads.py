"""The benchmark's workloads: their inputs, one pass, and the output checks.

Each workload is a closed loop: one caller in one process, each pass starting
after the previous one returns.  The workload seed is a benchmark argument;
the package sees only the inputs made from it.

* ``study-2000``: the replication study users run, through the CLI, at 2000
  replicates on the serial path.  Small n and many short calls, so per-call
  overhead in simulation, the two selections, the loss and the
  negative-energy diagnostic matters.
* ``rate-6400``: the acceptance-5 rate study up to n = 6400 with a two-thread
  pool.  Drawing the n x (2 k_max + 1) noise matrix dominates; a
  summary-only simulation, or dropping the pool, shows here most.
* ``analysis-wide``: four single-dataset CLI calls on a wide band
  (k_max = 256).  Simulation does little; rendering, the synthesis matrix,
  CSV writing and the config and template-file reads do most of the work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Workload", "csv_cells_and_bytes"]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else []), rows[1:]


def csv_cells_and_bytes(out_dir: Path) -> tuple[int, int]:
    """Cells (header included) and bytes of every CSV file under ``out_dir``."""
    cells = size = 0
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = read_csv(path)
        cells += len(header) + sum(len(row) for row in rows)
        size += path.stat().st_size
    return cells, size


def fingerprint_dir(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _floats(cells) -> list:
    return [float(c) for c in cells]


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def compare_to_reference(path: Path, reference: Path, rtol: float = 1e-12) -> list:
    """Problems found comparing a CSV against a stored reference: text cells
    must match exactly and numeric cells to ``rtol`` of their size, with an
    absolute floor of ``rtol`` times the largest reference magnitude."""
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(reference)
    table, ref_table = [header] + rows, [ref_header] + ref_rows
    if [len(r) for r in table] != [len(r) for r in ref_table]:
        return [f"{path.name}: shape differs from the stored reference"]
    numeric = []
    for ref_row in ref_table:
        for cell in ref_row:
            try:
                numeric.append(abs(float(cell)))
            except ValueError:
                pass
    floor = rtol * max(numeric, default=0.0)
    for i, (row, ref_row) in enumerate(zip(table, ref_table)):
        for got, want in zip(row, ref_row):
            try:
                a, b = float(got), float(want)
            except ValueError:
                if got != want:
                    return [f"{path.name} row {i}: {got!r} != reference {want!r}"]
                continue
            if not abs(a - b) <= rtol * max(abs(a), abs(b)) + floor:
                return [f"{path.name} row {i}: {a!r} differs from reference {b!r}"]
    return []


def _quiet_main(cli, argv) -> tuple[int, str]:
    """Run one CLI command with its stdout captured; returns (exit code, text)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


class Workload:
    """One benchmark workload bound to a seed and a scratch directory."""

    name = ""
    replicates_per_pass = 0

    def __init__(self, workdir: Path, seed: int):
        self.workdir = Path(workdir)
        self.seed = int(seed)

    def prepare(self) -> None:
        """Write any input files; runs once, before set-up is timed."""

    def params(self) -> dict:
        raise NotImplementedError

    def probe_args(self) -> list:
        """Arguments for ``probe.py`` after the source path."""
        return [self.name, str(self.seed)]

    def run_pass(self, out_dir: Path):
        raise NotImplementedError

    def check(self, output, out_dir: Path) -> list:
        """Problems found in one pass's outputs; empty when all checks pass."""
        raise NotImplementedError

    def fingerprint(self, output, out_dir: Path) -> str:
        """Digest of a pass's outputs; passes at one seed must agree."""
        return fingerprint_dir(out_dir)


class StudyWorkload(Workload):
    name = "study-2000"
    replicates_per_pass = 2000
    files = ("template_curve.csv", "sample_curves.csv", "traces.csv",
             "selections.csv", "histograms.csv", "risk_summary.csv",
             "risk_curves.csv", "meta.csv")

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        import shiftdecon.cli
        self._cli = shiftdecon.cli

    def argv(self, out_dir) -> list:
        return ["replication-study", "--replications", str(self.replicates_per_pass),
                "--seed", str(self.seed), "--workers", "1", "--out", str(out_dir)]

    def params(self) -> dict:
        return {"argv": self.argv("<out>"), "template": "wave", "k_max": 40,
                "density": "laplace(sigma=0.1)", "n": 100, "epsilon": 0.015,
                "m0_override": 32, "replications": self.replicates_per_pass,
                "workers": 1, "grid_size": 256, "seed": self.seed}

    def run_pass(self, out_dir):
        return _quiet_main(self._cli, self.argv(out_dir))

    def check(self, output, out_dir) -> list:
        code, _ = output
        if code != 0:
            return [f"replication-study exited with {code}"]
        missing = [f for f in self.files if not (out_dir / f).is_file()]
        if missing:
            return [f"bundle is missing {missing}"]
        bad = []
        header, rows = read_csv(out_dir / "selections.csv")
        reps = self.replicates_per_pass
        if len(rows) != reps:
            bad.append(f"selections.csv has {len(rows)} rows, expected {reps}")
        col = {name: i for i, name in enumerate(header)}
        n_star = np.array([int(r[col["n_star"]]) for r in rows])
        n_tilde = np.array([int(r[col["n_tilde"]]) for r in rows])
        losses = _floats(r[col["loss_star"]] for r in rows) \
            + _floats(r[col["loss_tilde"]] for r in rows)
        if not (_all_finite(losses) and min(losses, default=0.0) >= 0.0):
            bad.append("a loss is negative or not finite")
        _, hist = read_csv(out_dir / "histograms.csv")
        for j, label in ((1, "n_star"), (2, "n_tilde")):
            total = sum(int(r[j]) for r in hist)
            if total != reps:
                bad.append(f"{label} histogram sums to {total}, expected {reps}")
        med_star, med_tilde = np.median(n_star), np.median(n_tilde)
        q75_star = np.percentile(n_star, 75)
        if not (med_star < med_tilde and q75_star < med_tilde):
            bad.append(f"cutoff ordering fails: median n_star {med_star}, q75 n_star "
                       f"{q75_star}, median n_tilde {med_tilde}")
        for name in ("template_curve.csv", "risk_curves.csv"):
            bad += compare_to_reference(out_dir / name, REFERENCE_DIR / name)
        return bad


class RateWorkload(Workload):
    name = "rate-6400"
    n_grid = (200, 400, 800, 1600, 3200, 6400)
    replications = 200
    replicates_per_pass = replications * len(n_grid)
    slope_gap_limit = 0.15

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        import shiftdecon.risk
        self._risk = shiftdecon.risk

    def params(self) -> dict:
        return {"call": "rate_study(2.0, 2.0, 1.0, n_grid, 0.2, 200, seed, "
                        "k_max=24, workers=2)",
                "s": 2.0, "beta": 2.0, "radius": 1.0, "n_grid": list(self.n_grid),
                "epsilon": 0.2, "replications": self.replications, "k_max": 24,
                "density": "laplace(sigma=0.1)", "workers": 2, "seed": self.seed}

    def run_pass(self, out_dir):
        return self._risk.rate_study(2.0, 2.0, 1.0, list(self.n_grid), 0.2,
                                     self.replications, self.seed, k_max=24, workers=2)

    def check(self, output, out_dir) -> list:
        bad = []
        mise = [float(v) for v in output.mise]
        if not (_all_finite(mise) and min(mise) > 0.0):
            bad.append(f"a mise is not positive and finite: {mise}")
        gap = abs(output.fitted_slope - output.theoretical_slope)
        if not gap <= self.slope_gap_limit:
            bad.append(f"slope gap {gap!r} exceeds {self.slope_gap_limit} "
                       f"(fitted {output.fitted_slope!r}, theory {output.theoretical_slope!r})")
        return bad

    def fingerprint(self, output, out_dir) -> str:
        digest = hashlib.sha256()
        digest.update(np.asarray(output.mise, dtype=float).tobytes())
        digest.update(np.asarray(output.mise_stderr, dtype=float).tobytes())
        digest.update(repr(float(output.fitted_slope)).encode())
        return digest.hexdigest()


class AnalysisWorkload(Workload):
    name = "analysis-wide"
    replicates_per_pass = 3  # simulate, select and estimate each draw one dataset
    k_max = 256
    m0 = 128
    grid_size = 1024

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        import shiftdecon.cli
        self._cli = shiftdecon.cli
        self.template_path = self.workdir / "inputs" / "sobolev_k256.csv"
        self.config_path = self.workdir / "inputs" / "experiment.ini"

    def prepare(self) -> None:
        from shiftdecon.catalog import sobolev_template
        from shiftdecon.config import ExperimentConfig, save_config
        from shiftdecon.csvio import write_template_csv

        self.template_path.parent.mkdir(parents=True, exist_ok=True)
        write_template_csv(self.template_path, sobolev_template(2.0, 1.0, self.k_max))
        save_config(ExperimentConfig(template=str(self.template_path), k_max=self.k_max,
                                     density_sigma=0.01, n=100, m0_override=self.m0,
                                     seed=self.seed),
                    self.config_path)

    def probe_args(self) -> list:
        return [self.name, str(self.seed), str(self.config_path)]

    def commands(self, out_dir) -> list:
        cfg, grid = ["--config", str(self.config_path)], ["--grid-size", str(self.grid_size)]
        return [
            ["simulate", *cfg, *grid, "--out", str(out_dir / "curves.csv")],
            ["select", *cfg, "--out", str(out_dir / "trace.csv")],
            # estimate renders on its own grid, which must resolve |k| <= 256
            ["estimate", *cfg, *grid, "--out", str(out_dir / "coeffs.csv"),
             "--grid-out", str(out_dir / "fit.csv")],
            ["risk", *cfg, "--n-max", str(self.k_max), "--out", str(out_dir / "risk.csv")],
        ]

    def params(self) -> dict:
        argvs = [[arg.replace(str(self.workdir), "<work>") for arg in argv]
                 for argv in self.commands(Path("<out>"))]
        return {"argv": argvs,
                "template": f"sobolev_template(2.0, 1.0, {self.k_max}) via k,re,im CSV",
                "k_max": self.k_max, "density": "laplace(sigma=0.01)", "n": 100,
                "epsilon": 0.015, "m0_override": self.m0, "criterion": "u_bar",
                "grid_size": self.grid_size, "n_max": self.k_max, "seed": self.seed}

    def run_pass(self, out_dir):
        return [_quiet_main(self._cli, argv) for argv in self.commands(out_dir)]

    def check(self, output, out_dir) -> list:
        from shiftdecon.catalog import sobolev_template
        from shiftdecon.csvio import read_template_csv

        codes = [code for code, _ in output]
        if any(codes):
            return [f"CLI exit codes {codes}"]
        bad = []
        width = 2 * self.k_max + 1
        shapes = {"curves.csv": (self.grid_size, 100, self.grid_size),
                  "trace.csv": (2, self.m0 + 1, 2),
                  "coeffs.csv": (3, width, 3),
                  "fit.csv": (3, self.grid_size, 3),
                  "risk.csv": (7, self.k_max + 1, 7)}
        tables = {}
        for name, (header_len, n_rows, row_len) in shapes.items():
            header, rows = read_csv(out_dir / name)
            tables[name] = rows
            if len(header) != header_len or len(rows) != n_rows \
                    or any(len(r) != row_len for r in rows):
                bad.append(f"{name} is not {n_rows} rows of {row_len} columns")
        if bad:
            return bad
        chosen = re.search(r"chosen_n=(\d+) m0=(\d+)", output[1][1])
        cutoff = re.search(r"cutoff=(\d+)", output[2][1])
        if not (chosen and cutoff):
            return ["select or estimate printed no cutoff"]
        if not (int(chosen.group(1)) <= self.m0 and int(chosen.group(2)) == self.m0
                and int(cutoff.group(1)) <= self.m0):
            bad.append(f"cutoff above m0={self.m0}: {chosen.group(0)}, {cutoff.group(0)}")
        for row in tables["risk.csv"]:
            bias, v1, v2, r = _floats(row[1:5])
            if r != (bias + v1) + v2:
                bad.append(f"risk row N={row[0]}: r != bias + v1 + v2")
                break
        rendered = [v for row in tables["curves.csv"] for v in _floats(row)]
        rendered += [v for row in tables["fit.csv"] for v in _floats(row[1:])]
        if not _all_finite(rendered):
            bad.append("a rendered value is not finite")
        written = sobolev_template(2.0, 1.0, self.k_max).coeffs
        if not np.array_equal(read_template_csv(self.template_path).coeffs, written):
            bad.append("template CSV does not read back as the template written")
        return bad


WORKLOADS = {cls.name: cls for cls in (StudyWorkload, RateWorkload, AnalysisWorkload)}
