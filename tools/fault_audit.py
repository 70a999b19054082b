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
    Fault("a chunk's stream set one replicate on", "simulate.py",
          "    generator = _stream(seed, start * run // 4)\n",
          "    generator = _stream(seed, (start + 1) * run // 4)\n"),
    Fault("study traces drawn at replicate 1's seed", "risk.py",
          "traces[j] = trace[0]", "traces[j] = trace[min(1, len(trace) - 1)]"),
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
    Fault("a dataset's per_curve admitted with an even width or no curves", "simulate.py",
          "        if per_curve.ndim != 2 or len(per_curve) < 1 or per_curve.shape[1] % 2 != 1:\n",
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
          "        half[first:stop] = _phase_means(shifts, k_max)\n",
          "        half[first:stop] = _phase_means(shifts, k_max)[::-1]\n"),
    Fault("a block's shifts read one uniform on", "simulate.py",
          "uniforms[:, :width]", "uniforms[:, 1 : width + 1]"),
    Fault("a noise block written at the chunk's first rows", "simulate.py",
          "        noise[first:stop] = _noise(", "        noise[: stop - first] = _noise("),
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
    Fault("a drawn |gamma_tilde| above 1 admitted", "simulate.py",
          "        if float(np.max(np.abs(gt))) > 1.0 + 1e-12:\n", "        if False:\n"),
    Fault("the Laplace inverse CDF at scale sigma, not sigma / sqrt(2)", "spectral.py",
          "partial(_laplace_shifts, s / math.sqrt(2.0))", "partial(_laplace_shifts, s)"),
    # a shift density checks everything it returns
    Fault("gamma without its modulus check", "spectral.py",
          "        if unusable.size:\n", "        if False:\n"),
    Fault("a sampler result of any shape admitted", "spectral.py",
          "shifts.shape == uniforms.shape[:-1] and ", ""),
    Fault("a sampler result of any dtype admitted", "spectral.py",
          'shifts.dtype.kind in "iuf"', "True"),
    Fault("a sampler result admitted when not finite", "spectral.py",
          "                and np.isfinite(shifts).all()):\n", "                ):\n"),
    Fault("a density admitted with fields that are not callable", "spectral.py",
          "            if not callable(getattr(self, name)):\n", "            if False:\n"),
    Fault("a template file's Template refusals without the file's path", "csvio.py",
          "    except (InvalidParameterError, InvariantViolationError) as exc:\n",
          "    except InvariantViolationError as exc:\n"),
    # the random stream and the cap
    Fault("simulate's per-curve noise drawn from replicate 0's run", "simulate.py",
          "_stream(seed, _CURVE_NOISE_COUNTER)", "_stream(seed, 0)"),
    Fault("Box-Muller normals of variance 1/2", "spectral.py",
          "np.sqrt(-2.0 * np.log1p(-uniforms[..., :m]))", "np.sqrt(-np.log1p(-uniforms[..., :m]))"),
    Fault("the noise mirrored without its conjugate", "simulate.py",
          "    return _hermitian(half)\n",
          "    return np.concatenate([half[..., :0:-1], half], axis=-1)\n"),
    Fault("the noise's z_0 at variance 1/2", "simulate.py",
          "    half.real[..., 0] = normals[..., 0]\n",
          "    half.real[..., 0] = math.sqrt(0.5) * normals[..., 0]\n"),
    Fault("compute_m0 one below its value, two below the first crossing", "selection.py",
          "value=int(crossed[0]),", "value=int(crossed[0]) - 1,"),
    Fault("compute_m0 one above its value, at the first crossing", "selection.py",
          "value=int(crossed[0]),", "value=int(crossed[0]) + 1,"),
    Fault("a saturated cap reported as not saturated", "selection.py",
          "value=k_max, saturated=True,", "value=k_max, saturated=False,"),
    # a density is a characteristic function
    Fault("a gamma_0 other than 1 admitted", "spectral.py",
          "        if not_one.size:\n", "        if False:\n"),
    Fault("a band that is not Hermitian admitted", "spectral.py",
          "        if not_hermitian.size:\n", "        if False:\n"),
    Fault("compute_m0 reads gamma from k = 1 again", "selection.py",
          "    mags2 = np.abs(density.gamma(np.arange(k_max + 1))) ** 2\n"
          "    crossed = np.nonzero(mags2[1:] <= threshold)[0]\n",
          "    mags2 = np.abs(density.gamma(np.arange(1, k_max + 1))) ** 2\n"
          "    crossed = np.nonzero(mags2 <= threshold)[0]\n"),
    Fault("the noise terms without their overflow guard", "selection.py",
          '    return _refuse_overflow(f"epsilon={epsilon!r} is too large: '
          'its noise terms overflow")\n',
          "    import contextlib\n    return contextlib.nullcontext()\n"),
    # one entry path for the CLI, and the modules above the library
    Fault("main hands every subcommand the default configuration", "cli.py",
          "files, lines = args.func(args, _resolve_config(args))",
          "files, lines = args.func(args, ExperimentConfig())"),
    Fault("the commands' dataset drawn one seed on", "cli.py",
          "cfg.epsilon, cfg.seed)\n", "cfg.epsilon, cfg.seed + 1)\n"),
    Fault("rate-study's refusal admits a non-default template", "cli.py",
          '_RATE_STUDY_FIELDS = ("epsilon", "replications", "seed", "k_max")',
          '_RATE_STUDY_FIELDS = ("epsilon", "replications", "seed", "k_max", "template")'),
    Fault("estimate's grid file with its estimate and truth swapped", "cli.py",
          "np.stack([est.coeffs, template.coeffs])", "np.stack([template.coeffs, est.coeffs])"),
    Fault("m0_override formula read as 0", "config.py",
          '    if raw.lower() in ("", "none", "formula"):\n',
          '    if raw.lower() == "formula":\n        return 0\n'
          '    if raw.lower() in ("", "none"):\n'),
    Fault("a configuration of one replication admitted", "config.py",
          '"replications", self.replications, 2)', '"replications", self.replications, 1)'),
    Fault("selections.csv with loss_star and loss_tilde swapped", "study.py",
          "star.cutoffs, star.losses, tilde.cutoffs,\n                tilde.losses,",
          "star.cutoffs, tilde.losses, tilde.cutoffs,\n                star.losses,"),
    Fault("meta.csv's m0_used written from the formula value", "study.py",
          '("m0_used", m0_used)', '("m0_used", m0_res.value)'),
    Fault("the wave template's tail phase with its sign flipped", "catalog.py",
          "np.exp(1j * WAVE_TAIL_PHASE * k_tail)", "np.exp(-1j * WAVE_TAIL_PHASE * k_tail)"),
    Fault("the Sobolev template scaled by sqrt(radius) / total", "catalog.py",
          "np.sqrt(radius / total)", "np.sqrt(radius) / total"),
    # one Monte Carlo run path: the engine checks, caps and summarizes
    Fault("the engine ignores a given m0", "risk.py",
          "    m0 = _cutoff_cap(density, n, template.k_max, m0)\n",
          "    m0 = _cutoff_cap(density, n, template.k_max, None)\n"),
    Fault("the engine admits any workers", "risk.py",
          '    _check_integer("workers", workers, 1)\n', ""),
    Fault("the engine's standard error with ddof=0", "risk.py",
          "np.std(losses, ddof=1)", "np.std(losses, ddof=0)"),
    Fault("oracle_ratio divides theta_star's risk by inf r", "risk.py",
          'report.r_bar if estimator_kind == "theta_star" else report.r', "report.r"),
    Fault("oracle_ratio's oracle risk over the formula cap", "risk.py",
          "risk_report(template, density, n, epsilon, mc.m0)",
          "risk_report(template, density, n, epsilon, _cutoff_cap(density, n, "
          "template.k_max, None))"),
    Fault("risk_summary.csv with the rules' summaries swapped", "study.py",
          "zip(rules, reps.rules)", "zip(rules, reps.rules[::-1])"),
    Fault("estimate writes --out before it synthesizes its grid", "cli.py",
          "    est = estimate(obs, density, cutoff, kind)\n",
          "    est = estimate(obs, density, cutoff, kind)\n"
          "    if args.out:\n        write_template_csv(args.out, est)\n"),
    # only csvio turns numbers into text; nothing is written before it can all be
    Fault("format_cell writes a numpy float with numpy's repr", "csvio.py",
          "        return repr(float(value))\n", "        return repr(value)\n"),
    Fault("the study creates out_dir before its curves", "study.py",
          "    curves = _synthesize_rows(",
          "    Path(out_dir).mkdir(parents=True, exist_ok=True)\n    curves = _synthesize_rows("),
    Fault("the engine without its penalty_variant check", "risk.py",
          '    _check_choice("penalty_variant", penalty_variant, PENALTY_VARIANTS)\n', ""),
    Fault("--n-grid skips empty items", "cli.py",
          'for part in args.n_grid.split(",")]',
          'for part in args.n_grid.split(",") if part.strip()]'),
    # the synthesis matrix built in place; curve rows written straight to repr
    Fault("the synthesis matrix without its last frequency row", "spectral.py",
          "zip(mat, range(-k_max, k_max + 1))", "zip(mat, range(-k_max, k_max))"),
    Fault("curve rows written with 15 significant digits", "csvio.py",
          'map(repr, row.tolist())', '(format(v, ".15g") for v in row.tolist())'),
    Fault("curves of any dimension or dtype written", "csvio.py",
          "    if curves.ndim > 2 or np.iscomplexobj(curves):\n        raise InvalidParameterError(\n"
          '            f"curves must be real and 1-d or 2-d, got {curves.dtype} {curves.shape}")\n',
          ""),
    # a dataset holds what was observed; one seed contract; a failed write leaves no file
    Fault("c_tilde derived without the first curve", "simulate.py",
          "c_tilde=per_curve.mean(axis=0)", "c_tilde=per_curve[1:].mean(axis=0)"),
    Fault("a column mean that overflows admitted after a warning", "simulate.py",
          '        with _refuse_overflow("the column mean of per_curve overflows"):\n',
          "        if True:\n"),
    Fault("validate without its Hermitian check of gamma_tilde", "simulate.py",
          "        if not np.array_equal(np.conj(gt[::-1]), gt):\n", "        if False:\n"),
    Fault("a Generator admitted as a seed", "simulate.py",
          "    if not isinstance(seed, np.random.SeedSequence):\n",
          "    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):\n"),
    Fault("a failed write leaves the files written before it", "csvio.py",
          "(path.rmdir if path.is_dir() else path.unlink)()",
          "(path.rmdir if path.is_dir() else (lambda: None))()"),
    # one write path: handlers return their files and lines, main writes, then prints
    Fault("main prints before it writes", "cli.py",
          "        _write_together([(path, write) for path, write, _ in files])\n"
          '        print(*(message for _, _, message in files), *lines, sep="\\n")\n',
          '        print(*(message for _, _, message in files), *lines, sep="\\n")\n'
          "        _write_together([(path, write) for path, write, _ in files])\n"),
    Fault("the file whose own write failed is kept", "csvio.py",
          "            if not path.exists():\n                made.append(path)\n"
          "            write(path)\n",
          "            existed = path.exists()\n            write(path)\n"
          "            if not existed:\n                made.append(path)\n"),
    Fault("a created parent directory is kept", "csvio.py",
          "            for folder in reversed([directory, *directory.parents]):\n"
          "                if not folder.is_dir():\n"
          "                    folder.mkdir()\n"
          "                    made.append(folder)\n",
          "            if not directory.is_dir():\n"
          "                directory.mkdir(parents=True)\n"
          "                made.append(directory)\n"),
    Fault("a path that existed before the call is removed", "csvio.py",
          "            if not path.exists():\n                made.append(path)\n",
          "            made.append(path)\n"),
    # one Monte Carlo record per rule, with the cap it ran under; own flags and
    # single-dataset inputs refused plainly
    Fault("McRisk.m0 set from the formula cap, not the cap used", "risk.py",
          "row, cutoffs[j], m0)",
          "row, cutoffs[j], _cutoff_cap(density, n, template.k_max, None))"),
    Fault("estimate admits a stack of summaries", "selection.py",
          "    _one_dataset(obs)\n    cutoff = _check_integer(", "    cutoff = _check_integer("),
    Fault("--n-max parsed by argparse's int again", "cli.py",
          'p.add_argument("--n-max", default=None,',
          'p.add_argument("--n-max", type=int, default=None,'),
]

# A test id, parameters in brackets spaces and all, up to " - " or the line's end.
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+?(?:\[.*?\])?)(?= - |$)", re.MULTILINE)


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
