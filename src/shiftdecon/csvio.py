"""Deterministic CSV emission and template coefficient files.

Callers hand over the values they hold, numpy scalars included, and
:func:`format_cell` alone turns them into text.  All floats are written with
``repr``, the shortest round-trip representation, so a given value always
serializes to the same bytes and files diff cleanly across runs.  Floats,
numpy floating scalars included, are converted with ``float`` first, which
leaves a Python float's text as it is, and numpy integers with ``int``.
:func:`write_curves_csv` writes its float rows straight through ``repr``,
one row at a time.  Files are written with ``\n`` line endings regardless of
platform; the CLI and the study write theirs through one all-or-none step.
"""

from __future__ import annotations

import contextlib
import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError, InvariantViolationError
from .selection import CutoffSelection, SpectralEstimate
from .spectral import Template

__all__ = [
    "format_cell",
    "write_csv",
    "write_curves_csv",
    "write_selection_csv",
    "write_risk_report_csv",
    "write_rate_study_csv",
    "write_template_csv",
    "read_template_csv",
]


def format_cell(value) -> str:
    """Canonical text for one CSV cell."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):  # before int: bool is an int
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    raise InvalidParameterError(f"cannot format {type(value).__name__} into a CSV cell")


def _write_together(files, directory=None) -> None:
    """Call each ``(path, write)`` pair's ``write(path)`` in order, after making
    ``directory`` and its missing parents, if given.  If a step raises, every
    file and directory the call made, a file written part-way included, is
    removed, the last first, and the exception goes on.  A path that existed
    before the call is never removed."""
    made = []
    try:
        if directory is not None:
            for folder in reversed([directory, *directory.parents]):
                if not folder.is_dir():
                    folder.mkdir()
                    made.append(folder)
        for path, write in files:
            path = Path(path)
            if not path.exists():
                made.append(path)
            write(path)
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):
                (path.rmdir if path.is_dir() else path.unlink)()
        raise


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write one CSV file; returns the path."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
    return path


def write_curves_csv(path, grid: np.ndarray, curves: np.ndarray) -> Path:
    """Rendered curves, one row per curve; the header carries the abscissae.

    Each row goes straight to ``repr``, one row at a time.  Complex curves,
    stacks of more than 2 dimensions and grid values :func:`format_cell`
    cannot write are refused before the file is opened.
    """
    curves = np.asarray(curves)
    if curves.ndim > 2 or np.iscomplexobj(curves):
        raise InvalidParameterError(
            f"curves must be real and 1-d or 2-d, got {curves.dtype} {curves.shape}")
    curves = np.atleast_2d(curves.astype(float, copy=False))
    if curves.shape[1] != len(grid):
        raise InvalidParameterError(
            f"curves have {curves.shape[1]} columns but grid has {len(grid)} points"
        )
    header = [format_cell(x) for x in grid]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for row in curves:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    return Path(path)


def write_selection_csv(path, selection: CutoffSelection) -> Path:
    """Criterion trace of one cutoff selection: rows of (N, criterion value)."""
    return write_csv(path, ["n", "criterion"], enumerate(selection.criterion_values))


def write_risk_report_csv(path, report) -> Path:
    """Risk curves: one row per cutoff."""
    rows = zip(range(report.n_max + 1), report.bias, report.v1, report.v2,
               report.r, report.r_bar, report.r_tilde)
    return write_csv(path, ["n", "bias", "v1", "v2", "r", "r_bar", "r_tilde"], rows)


def write_rate_study_csv(path, study) -> Path:
    """Rate table: one row per sample size."""
    return write_csv(path, ["n", "mise", "stderr"],
                     zip(study.n_grid, study.mise, study.mise_stderr))


def write_template_csv(path, template: Template | SpectralEstimate) -> Path:
    """Coefficient table of a template or an estimate: rows of (k, re, im)."""
    return write_csv(path, ["k", "re", "im"],
                     zip(template.k_values, template.coeffs.real, template.coeffs.imag))


def read_template_csv(path) -> Template:
    """Load a coefficient table written by :func:`write_template_csv`.

    The file must list every frequency ``-k_max..k_max`` exactly once and the
    coefficients must form an exactly Hermitian (real-valued) spectrum.  Every
    refusal is an ``InvalidParameterError`` that names the file.
    """
    path = Path(path)
    entries = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["k", "re", "im"]:
            raise InvalidParameterError(
                f"{path}: expected header 'k,re,im', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InvalidParameterError(f"{path}:{lineno}: expected 3 columns")
            try:
                k = int(row[0])
                value = complex(float(row[1]), float(row[2]))
            except ValueError as exc:
                raise InvalidParameterError(f"{path}:{lineno}: {exc}") from None
            if k in entries:
                raise InvalidParameterError(f"{path}:{lineno}: duplicate frequency k={k}")
            entries[k] = value
    if not entries:
        raise InvalidParameterError(f"{path}: no coefficient rows")
    k_max = max(abs(k) for k in entries)
    if k_max < 1:
        raise InvalidParameterError(f"{path}: need at least frequencies -1..1")
    expected = set(range(-k_max, k_max + 1))
    missing = expected - set(entries)
    if missing:
        raise InvalidParameterError(
            f"{path}: missing frequencies {sorted(missing)[:5]} (band is -{k_max}..{k_max})"
        )
    coeffs = np.array([entries[k] for k in range(-k_max, k_max + 1)],
                      dtype=np.complex128)
    try:
        return Template(coeffs=coeffs, k_max=k_max, label=str(path.stem))
    except (InvalidParameterError, InvariantViolationError) as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None
