"""Fault-injection audit: does the tier-1 suite catch each listed fault?

Each fault is one exact ``old -> new`` source replacement in a module of
``src/shiftdecon``.  For every fault the script copies ``src/`` to a
temporary directory, applies the replacement there, and runs
``pytest -x -q tests`` from the root of the checkout with that copy first on
the import path.  A fault is caught when the run fails; the first failing
test is recorded, with the seconds the run took.  At most ``nproc`` faults
run at a time.

Run it from anywhere in a source checkout::

    python tools/fault_audit.py [--out FILE]

It prints one JSON object and writes the same object to ``--out`` if given.
The exit code is 0 when every fault is caught, 1 when one survives, and 2
when an ``old`` string is not found exactly once in its module (the source
has moved on; fix the fault, never drop it).  A fault that survives is a
finding: add a tier-1 test that catches it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Fault(NamedTuple):
    name: str
    module: str  # file under src/shiftdecon
    old: str
    new: str


FAULTS = [
    # the four faults measured when the audit was planned
    Fault("u_bar penalty level log(n)/n", "selection.py",
          "            level = log_squared_over_n(n)\n",
          "            level = math.log(n) / n\n"),
    Fault("u_tilde loses its noise term", "selection.py",
          "        else:  # u_tilde\n            per_k = -t / g2 + noise_floor / g2\n",
          "        else:  # u_tilde\n            per_k = -t / g2\n"),
    Fault("loss read at cutoff N+1", "risk.py",
          "np.take_along_axis(loss, cutoffs[j, chunk, None], -1)",
          "np.take_along_axis(loss, np.minimum(cutoffs[j, chunk, None] + 1, m0), -1)"),
    Fault("summary noise variance 2 eps^2/n", "simulate.py",
          "(epsilon / math.sqrt(n)) * noise",
          "(epsilon * math.sqrt(2.0 / n)) * noise"),
    # the Monte Carlo path without hidden state
    Fault("replicate seed off by one child", "risk.py",
          "return np.random.SeedSequence(seed, spawn_key=(i,))",
          "return np.random.SeedSequence(seed, spawn_key=(i + 1,))"),
    Fault("study traces drawn at replicate 1's seed", "study.py",
          "simulate_summary(template, density, n, epsilon, seed0)",
          "simulate_summary(template, density, n, epsilon, _replicate_seed(seed, 1))"),
    Fault("pool results reversed", "risk.py",
          "return list(pool.map(fn, units))", "return list(pool.map(fn, units))[::-1]"),
    Fault("phase rows multiplied in place", "simulate.py",
          "        row = row * z\n", "        row *= z\n"),
    # one admission rule for every named choice, and datasets admitted when built
    Fault("a choice admitted without its str test", "spectral.py",
          "    if not (isinstance(value, str) and value in choices):\n",
          "    if value not in choices:\n"),
    Fault("an unknown penalty_variant runs as printed_form", "selection.py",
          '    penalty_variant = _check_choice("penalty_variant", penalty_variant, '
          'PENALTY_VARIANTS)\n', ""),
    Fault("a dataset's n and epsilon admitted unchecked", "simulate.py",
          "        n, epsilon = _check_inputs(self.n, self.epsilon)\n",
          "        n, epsilon = self.n, self.epsilon\n"),
    Fault("a dataset's c_tilde admitted when not finite", "simulate.py",
          "        if not np.all(np.isfinite(c_tilde)):\n",
          "        if False:\n"),
    Fault("a template admitted when its energy overflows", "spectral.py",
          '        with _refuse_overflow("the energy sum |c_k|^2 of coeffs overflows"):\n'
          "            if not math.isfinite(np.sum(np.abs(coeffs) ** 2)):\n",
          "        if not np.all(np.isfinite(coeffs)):\n"),
    # one selection path: the engine selects through the public criteria
    Fault("the engine's criterion trace without its penalty_variant", "risk.py",
          "criterion_trace(obs, density, rule, m0, penalty_variant=penalty_variant)",
          "criterion_trace(obs, density, rule, m0)"),
    Fault("the engine's negative fraction read on |k| <= m0 - 1", "risk.py",
          "fraction_negative_theta_hat(obs, density, m0)",
          "fraction_negative_theta_hat(obs, density, max(m0 - 1, 0))"),
    Fault("select_cutoff breaks ties toward the largest N", "selection.py",
          "    chosen = int(np.argmin(trace))",
          "    chosen = len(trace) - 1 - int(np.argmin(trace[::-1]))"),
    Fault("the engine breaks ties toward the largest N", "risk.py",
          "cutoffs[j, chunk] = np.argmin(trace, axis=-1)",
          "cutoffs[j, chunk] = m0 - np.argmin(trace[..., ::-1], axis=-1)"),
    Fault("tail energy off by one frequency", "spectral.py",
          "    return tail[1 : n_max + 2]\n", "    return tail[: n_max + 1]\n"),
    Fault("a dataset's per_curve admitted in any shape", "simulate.py",
          "        if per_curve.shape != (self.n, 2 * self.k_max + 1):\n",
          "        if per_curve.ndim != 2:\n"),
    Fault("a dataset's per_curve admitted when not finite", "simulate.py",
          "        if not np.all(np.isfinite(per_curve)):\n", "        if False:\n"),
    Fault("an estimate's kind admitted unchecked", "selection.py",
          '        object.__setattr__(self, "kind", _check_choice("estimate kind", self.kind, '
          'ESTIMATE_KINDS))\n', ""),
    Fault("a selection's criterion kind admitted unchecked", "selection.py",
          '                           _check_choice("criterion kind", self.criterion_kind, '
          'CRITERION_KINDS))\n',
          "                           self.criterion_kind)\n"),
    # engine chunks sized by the band, the draw streamed in blocks sized by n
    Fault("a draw block's phase means written to its rows in reverse", "simulate.py",
          "        half[start:stop] = _phase_means(shifts[: stop - start], k_max)\n",
          "        half[start:stop] = _phase_means(shifts[: stop - start], k_max)[::-1]\n"),
    Fault("a shift row written at the chunk index, not the block index", "simulate.py",
          "            shifts[i] = _draw_shifts(density, rng, n)\n",
          "            shifts[start + i] = _draw_shifts(density, rng, n)\n"),
    Fault("a noise row written at the block index, not the chunk index", "simulate.py",
          "            noise[start + i] = rng.standard_normal((2, width))\n",
          "            noise[i] = rng.standard_normal((2, width))\n"),
    Fault("engine chunks sized by n again", "risk.py",
          "    step = max(1, _CHUNK_VALUES // (2 * (2 * template.k_max + 1)))\n",
          "    step = max(1, _CHUNK_VALUES // (n + 2 * template.k_max + 1))\n"),
    # the identities of the exact risk, the criteria and the spectra
    Fault("v2 increments without the - 1", "risk.py",
          "_pair_sums(theta2_band * (g2inv - 1.0), n_max)",
          "_pair_sums(theta2_band * g2inv, n_max)"),
    Fault("one criterion increment skipped in the cumulative sum", "selection.py",
          "        return np.cumsum(increments, axis=-1)\n",
          "        skip = np.arange(increments.shape[-1]) != 1\n"
          "        return np.cumsum(increments * skip, axis=-1)\n"),
    Fault("the Hermitian mirror one index off", "spectral.py",
          "full[..., :k_max] = np.conj(full[..., :k_max:-1])",
          "full[..., :k_max] = np.conj(full[..., -2 : k_max - 1 : -1])"),
    # picklable densities, and a band that is a characteristic function's band
    Fault("a gamma_fn result of any shape admitted", "spectral.py",
          "        if gam.shape != k.shape:\n", "        if False:\n"),
    Fault("a |gamma_k| above 1 admitted", "spectral.py",
          "(g2 <= 1.0 + 1e-12)", "(g2 < math.inf)"),
    Fault("a summary's |gamma_tilde| above 1 admitted", "simulate.py",
          "        if float(np.max(np.abs(gt))) > 1.0 + 1e-12:\n", "        if False:\n"),
    Fault("the Laplace sampler bound to sigma, not sigma / sqrt(2)", "spectral.py",
          'partial(_sample, "laplace", 0.0, s / math.sqrt(2.0))',
          'partial(_sample, "laplace", 0.0, s)'),
]

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def check_faults(faults) -> list:
    """A line for each fault whose ``old`` is not exactly once in its module."""
    problems = []
    for fault in faults:
        count = (SRC / "shiftdecon" / fault.module).read_text().count(fault.old)
        if count != 1:
            problems.append(f"{fault.name}: {fault.module} holds the old text {count} times")
    return problems


def run_fault(fault: Fault) -> dict:
    """Apply ``fault`` to a copy of ``src/`` and run the suite against it."""
    with tempfile.TemporaryDirectory(prefix="fault_audit_") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "shiftdecon" / fault.module
        path.write_text(path.read_text().replace(fault.old, fault.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(copy), *filter(None, [os.environ.get("PYTHONPATH")])]))
        # the ini's pythonpath would put this checkout's src/ ahead of the copy
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "-o", f"pythonpath={copy}", "tests"]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    first = _FIRST_FAILURE.search(proc.stdout)
    caught_by = first.group(1) if first else (
        f"pytest exit code {proc.returncode}" if proc.returncode else None)
    return {"name": fault.name, "module": fault.module, "caught": proc.returncode != 0,
            "caught_by": caught_by, "seconds": round(seconds, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the JSON report here")
    args = parser.parse_args(argv)
    problems = check_faults(FAULTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=min(len(FAULTS), nproc or 1)) as pool:
        results = list(pool.map(run_fault, FAULTS))
    report = {"faults": results, "all_caught": all(r["caught"] for r in results)}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if report["all_caught"] else 1


if __name__ == "__main__":
    sys.exit(main())
