"""Smoke tests of the experiment scripts, run through their main(argv)."""

import csv
import importlib.util
import io
from fractions import Fraction
from pathlib import Path

import pytest

from mdswe import errorprob
from mdswe.mds_enum import MdsParams

from exact_bm import exact_bm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_multiuser_curves(tmp_path):
    out = tmp_path / "curves.csv"
    assert load_script("multiuser_curves").main(["--snr", "4:8:1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert list(rows[0]) == ["gamma_db", "cep", "sep", "sep(0,0)", "bep(0,0)", "sep(0,1)",
                             "bep(0,1)", "sep(1,1)", "bep(1,1)", "bep"]
    assert [float(r["gamma_db"]) for r in rows] == [4.0, 5.0, 6.0, 7.0, 8.0]
    for r in rows:
        assert all(0.0 <= float(v) <= 1.0 for k, v in r.items() if k != "gamma_db")
        assert float(r["bep(1,1)"]) < float(r["bep(0,1)"]) < float(r["bep(0,0)"])


@pytest.mark.parametrize("offset", range(8))
def test_multiuser_bm_columns_match_exact_oracle(capsys, offset):
    # the 17-point paper grid shifted by offset/32 dB
    start = 4.0 + offset / 32
    script = load_script("multiuser_curves")
    assert script.main(["--snr", f"{start!r}:{start + 4.0!r}:0.25"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 17
    params = MdsParams(15, 11, 16)
    curves = {"cep": ("cep", {}), "sep": ("sep", {})}
    for label, conds in script.CONDITION_SETS.items():
        curves[f"sep{label}"] = ("sep", dict(sizes=(3, 3, 5, 4), user=2, conditions=conds))
    for row in rows:
        p = errorprob.channel_map(float(row["gamma_db"]), 15, 11, 4).p_symbol
        for column, (metric, kw) in curves.items():
            exact = exact_bm(params, metric, p, **kw)
            assert abs(Fraction(row[column]) - exact) <= Fraction(1e-14) * exact, column


@pytest.mark.parametrize("snr, reason", [
    ("4:8:0", "step must be positive"),
    ("4:nan:1", "start, stop and step must be finite"),
    ("8:4:0.5", "stop must not be below start"),
])
def test_multiuser_curves_bad_snr_exits_two(capsys, snr, reason):
    assert load_script("multiuser_curves").main(["--snr", snr]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --snr: bad range {snr!r}: {reason}\n")


def test_binary_spectrum(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert load_script("binary_spectrum").main(["--code", "8:7:3", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 22
    assert sum(Fraction(r["exact"]) for r in rows) == 8**3


@pytest.mark.parametrize("spec", ["8:7", "7:5:3", "8:20:3", "8:7:x", "6:5:3"])
def test_binary_spectrum_bad_code_exits_two(capsys, spec):
    assert load_script("binary_spectrum").main(["--code", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --code: bad code {spec!r}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("script, argv", [
    ("multiuser_curves", ["--snr", "4:5:1"]),
    ("binary_spectrum", ["--code", "8:7:3"]),
], ids=["multiuser_curves", "binary_spectrum"])
def test_unwritable_out_exits_two(capsys, tmp_path, script, argv):
    out = tmp_path / "missing" / "x.csv"
    assert load_script(script).main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()
