"""CSV formatting: canonical cells, stable bytes, template file round trips."""
import hashlib

import numpy as np
import pytest

from shiftdecon.catalog import sobolev_template, spike_template, wave_template
from shiftdecon.csvio import (format_cell, read_template_csv, write_csv,
                              write_curves_csv, write_risk_report_csv,
                              write_selection_csv, write_template_csv)
from shiftdecon.errors import InvalidParameterError
from shiftdecon.risk import risk_report
from shiftdecon.selection import select_cutoff
from shiftdecon.simulate import simulate
from shiftdecon.spectral import laplace_density


class _TaggedFloat(float):
    def __repr__(self):
        return "tagged"


def test_format_cell_values():
    assert format_cell("x") == "x"
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(3) == "3"
    assert format_cell(np.int64(-7)) == "-7"
    assert format_cell(0.1) == "0.1"
    assert format_cell(np.float64(1e-17)) == "1e-17"
    assert format_cell(np.float32(0.1)) == "0.10000000149011612"
    assert format_cell(float("inf")) == "inf"
    # a float subclass is written as its float value, not through its own repr
    assert format_cell(_TaggedFloat(0.1)) == "0.1"
    with pytest.raises(InvalidParameterError):
        format_cell([1, 2])
    with pytest.raises(InvalidParameterError):
        format_cell(None)
    with pytest.raises(InvalidParameterError):
        format_cell(1 + 2j)


def _reference_curves_bytes(grid, curves):
    lines = [",".join(repr(float(x)) for x in grid)]
    lines += [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(curves)]
    return ("\n".join(lines) + "\n").encode()


def test_write_curves_csv_matches_per_cell_float_repr(tmp_path):
    grid = np.arange(5) / 5
    special = [0.0, -0.0, 5e-324, 1e16, float("inf"), float("-inf"), float("nan")]
    rng = np.random.default_rng(0)
    f64 = np.vstack([np.array(special[:5]), np.array(special[2:]),
                     rng.standard_normal((3, 5))])
    f32 = f64.astype(np.float32)
    for curves in (f64, f32, f64[0]):
        path = write_curves_csv(tmp_path / "c.csv", grid, curves)
        assert path.read_bytes() == _reference_curves_bytes(grid, curves)


def test_write_csv_exact_bytes(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 0.5), (2, 0.25)])
    assert path.read_bytes() == b"a,b\n1,0.5\n2,0.25\n"


def test_float_repr_round_trips(tmp_path):
    values = [0.1, 1 / 3, 1e-300, -2.5e17, 0.30000000000000004]
    write_csv(tmp_path / "f.csv", ["v"], [(v,) for v in values])
    lines = (tmp_path / "f.csv").read_text().splitlines()[1:]
    assert [float(s) for s in lines] == values


def test_write_curves_csv_shape_check(tmp_path):
    grid = np.arange(4) / 4
    with pytest.raises(InvalidParameterError):
        write_curves_csv(tmp_path / "c.csv", grid, np.zeros((2, 5)))
    path = write_curves_csv(tmp_path / "c.csv", grid, np.zeros((2, 4)))
    lines = path.read_text().splitlines()
    assert lines[0] == "0.0,0.25,0.5,0.75"
    assert len(lines) == 3


def test_selection_and_risk_tables(tmp_path):
    obs = simulate(wave_template(8), laplace_density(0.1), 20, 0.05, seed=0)
    sel = select_cutoff(obs, laplace_density(0.1), "u_bar", m0=8)
    p1 = write_selection_csv(tmp_path / "sel.csv", sel)
    lines = p1.read_text().splitlines()
    assert lines[0] == "n,criterion" and len(lines) == 10

    rep = risk_report(wave_template(8), laplace_density(0.1), 20, 0.05, 8)
    p2 = write_risk_report_csv(tmp_path / "risk.csv", rep)
    lines = p2.read_text().splitlines()
    assert lines[0] == "n,bias,v1,v2,r,r_bar,r_tilde" and len(lines) == 10
    assert lines[1].startswith("0,")


def test_template_file_round_trip(tmp_path):
    t = wave_template(12)
    path = write_template_csv(tmp_path / "wave.csv", t)
    back = read_template_csv(path)
    assert back.k_max == 12
    assert np.array_equal(back.coeffs, t.coeffs)  # repr round trip is exact
    assert back.label == "wave"


@pytest.mark.parametrize("build,digest", [
    (lambda: wave_template(40),
     "b10113e6fb4ca0ea32a1b7b532e67af44657350efb3ddea02fbcfc6c72cd614b"),
    # every negative-frequency imaginary part of this file is -0.0
    (lambda: sobolev_template(2.0, 1.0, 256),
     "3d355adc30f5b4e2ddac3a3a01b2bca16bbaa007592469f59bc4dd2d54fd387b"),
    (lambda: spike_template(40),
     "e31840328681309739e7d1b9b3ae98e231761b7e2e8aa5d695f34fa0dfe02ece"),
], ids=["wave", "sobolev", "spike"])
def test_catalog_template_file_bytes(build, digest, tmp_path):
    path = write_template_csv(tmp_path / "t.csv", build())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_read_template_skips_a_blank_row(tmp_path):
    t = wave_template(8)
    lines = write_template_csv(tmp_path / "wave.csv", t).read_text().splitlines(keepends=True)
    gap = tmp_path / "gap.csv"
    gap.write_text("".join(lines[:3] + ["\n"] + lines[3:] + ["\n"]))
    assert np.array_equal(read_template_csv(gap).coeffs, t.coeffs)


def test_read_template_rejects_bad_files(tmp_path):
    def attempt(text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(InvalidParameterError):
            read_template_csv(p)

    attempt("x,y,z\n0,1,0\n")                          # wrong header
    attempt("k,re,im\n0,1\n")                          # missing column
    attempt("k,re,im\n0,one,0\n")                      # non-numeric
    attempt("k,re,im\n0,1,0\n0,2,0\n")                 # duplicate k
    attempt("k,re,im\n-1,1,0\n0,1,0\n")                # missing k=+1
    attempt("k,re,im\n")                               # no rows
    attempt("k,re,im\n0,1,0\n")                        # band too narrow
    attempt("k,re,im\n-1,1,0.5\n0,1,0\n1,1,0.5\n")     # not Hermitian


def test_read_template_diagnostics_name_the_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k,re,im\n-1,1,0\n0,oops,0\n1,1,0\n")
    with pytest.raises(InvalidParameterError) as err:
        read_template_csv(p)
    assert ":3:" in str(err.value)
