"""Each command loads only the layers it uses.

The closed forms need neither numpy, the field arithmetic, the
generator-matrix codes, `SparsePoly`, the nested-sum and exhaustive
oracles nor `dataclasses` (which loads `inspect`): importing the package,
the CLI or the error curves, running a closed-form `errprob`, `pwe` or
`binary`, and running either experiment script must leave them
unloaded.  A CSV error curve also leaves `fractions` (with `decimal`) and
`json` unloaded; the commands that print a Fraction or JSON, or parse an
'atmost' fraction, load them where they do.  Each import check runs in a
fresh interpreter, because this test process has loaded everything
already.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import mdswe
from mdswe import cli, linear_code, verify
from mdswe.cli import main

HEAVY = ("numpy", "mdswe.verify", "mdswe.montecarlo", "mdswe.duality",
         "mdswe.linear_code", "mdswe.poly", "mdswe.gf", "mdswe.nested_sum",
         "dataclasses", "inspect")
# unused by a CSV curve: loaded only for a Fraction result or a JSON document
CURVE_UNUSED = ("fractions", "decimal", "json")
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
MULTIUSER = str(SCRIPTS / "multiuser_curves.py")
SPECTRUM = str(SCRIPTS / "binary_spectrum.py")

# the package's public names, as the lazy export table of mdswe/__init__.py lists them
EXPORTS = {
    "BmSphereOracle", "ChannelPoint", "Condition", "DEFAULT_ENUMERATION_BUDGET",
    "ErrorCurve", "FREE", "FULL", "Field", "LinearCode", "MdsParams",
    "Partition", "PropertyAReport", "PropertyAWitness", "PweTable", "SparsePoly", "ZERO",
    "at_most", "avg_binary_iowe", "avg_binary_wgf", "binomial_approx", "bits_per_symbol",
    "brute_force_pwe", "brute_force_weights",
    "channel_map", "check_convolution_identity", "check_subset_identity",
    "code_from_generator", "coordinate_weight_sum", "dual", "dual_property_a",
    "error_curve", "field_from_order", "fixed_support_counts", "iowe", "krawtchouk",
    "macwilliams_pwe", "min_distance", "parse_condition",
    "parse_field_spec", "property_a_check", "psi", "pwe_direct", "pwe_direct_table",
    "pwe_product", "pwgf", "rm1_code", "rs_code", "snr_grid",
    "support_histogram",
    "weight_distribution",
}


@pytest.mark.parametrize("statement", [
    "import mdswe",
    "import mdswe.cli",
    "import mdswe.errorprob",
    "import mdswe.cli; mdswe.cli.main(['errprob', '--code', 'rs:64:63:51', '--metric', "
    "'bep', '--snr', '4:8:0.25', '--format', 'csv', '--out', __import__('os').devnull])",
    "import mdswe.cli; mdswe.cli.main(['pwe', '--code', 'rs:8:7:3', '--partition', '3,4', "
    "'--out', __import__('os').devnull])",
    "import mdswe.cli; mdswe.cli.main(['binary', '--code', 'dual:rs:8:7:3', "
    "'--out', __import__('os').devnull])",
    # a rejected rs: spec is checked from q alone
    "import mdswe.cli; assert mdswe.cli.main(['pwe', '--code', 'rs:6:5:3', "
    "'--partition', '5']) == 2",
    f"import runpy; runpy.run_path({MULTIUSER!r})['main']"
    "(['--snr', '4:8:1', '--out', __import__('os').devnull])",
    f"import runpy; runpy.run_path({SPECTRUM!r})['main']"
    "(['--code', '16:15:11', '--out', __import__('os').devnull])",
], ids=["mdswe", "cli", "errorprob", "errprob-bep", "pwe", "binary", "pwe-rejected-rs",
        "multiuser-script", "spectrum-script"])
def test_closed_forms_leave_heavy_modules_unloaded(statement):
    probe = f"import sys\n{statement}\nprint(*[m for m in {HEAVY!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _unloaded_after(statement: str, modules: tuple[str, ...]) -> list[str]:
    probe = f"import sys\n{statement}\nprint(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("statement", [
    *(f"import mdswe.cli, os; assert mdswe.cli.main(['errprob', '--code', 'rs:64:63:51', "
      f"'--metric', '{metric}', '--snr', '4:8:0.25', '--format', 'csv', '--out', "
      "os.devnull]) == 0" for metric in ("cep", "bep")),
    f"import runpy; runpy.run_path({MULTIUSER!r})['main']"
    "(['--snr', '4:8:1', '--out', __import__('os').devnull])",
], ids=["errprob-cep-csv", "errprob-bep-csv", "multiuser-script"])
def test_csv_curves_leave_fractions_and_json_unloaded(statement):
    assert _unloaded_after(statement, CURVE_UNUSED) == []


@pytest.mark.parametrize("argv", [
    ("errprob", "--code", "rs:16:15:11", "--metric", "cep", "--snr", "4:6:1"),
    ("binary", "--code", "rs:8:7:3", "--format", "csv"),
    ("errprob", "--code", "rs:16:15:11", "--metric", "sep", "--snr", "4:6:1", "--format",
     "csv", "--partition", "3,3,5,4", "--user", "3", "--condition",
     "atmost:1/2,free,free,free"),
], ids=["errprob-json", "binary", "atmost-condition"])
def test_lazy_imports_load_where_used(capsys, argv):
    # a cold call prints what this process, which has every module loaded, prints
    proc = subprocess.run([sys.executable, "-m", "mdswe.cli", *argv], capture_output=True)
    assert main(list(argv)) == 0
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == \
        (0, capsys.readouterr().out, b"")


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_suite_loads_numpy_exactly_when_named(suite):
    statement = f"from mdswe import verify; verify._run_suite({suite!r}, 7)"
    assert _unloaded_after(statement, ("numpy",)) == (
        ["numpy"] if suite in verify.NUMPY_SUITES else [])


def test_numpy_free_verify_loads_numpy_in_no_process():
    # the pool is built from a parent without numpy, and neither it nor a
    # worker loads numpy: each suite's last check reports its worker
    probe = ("import multiprocessing, os, sys\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "real = multiprocessing.Pool\n"
             "def spy(workers, **kwargs):\n"
             "    print('numpy' in sys.modules, workers)\n"
             "    return real(workers, **kwargs)\n"
             "multiprocessing.Pool = spy\n"
             "from mdswe import cli, verify\n"
             "def probed(suite):\n"
             "    def run(rng, seed):\n"
             "        return [*suite(rng, seed), verify.CheckResult(\n"
             "            'probe:numpy-unloaded', 'numpy' not in sys.modules)]\n"
             "    return run\n"
             "for name in ('gf', 'identities', 'binary'):\n"
             "    verify.SUITES[name] = probed(verify.SUITES[name])\n"
             "code = cli.main(['verify', '--suite', 'gf,identities,binary'])\n"
             "print('numpy' in sys.modules)\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False 2", "False")
    assert lines.count("ok   - probe:numpy-unloaded") == 3


@pytest.mark.parametrize("spec", ["rs:8:7:3", "dual:rs:8:7:3"])
@pytest.mark.parametrize("argv", [
    ("pwe", "--partition", "3,4"),
    ("errprob", "--metric", "cep", "--snr", "4:6:1"),
    ("errprob", "--metric", "bep", "--snr", "4:6:1"),
    ("binary",),
], ids=["pwe", "errprob-cep", "errprob-bep", "binary"])
def test_rs_specs_build_no_generator(monkeypatch, capsys, spec, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("rs_code called")

    monkeypatch.setattr(linear_code, "rs_code", refuse)
    assert main([*argv, "--code", spec]) == 0
    assert capsys.readouterr().err == ""


def test_public_names_resolve():
    assert set(mdswe.__all__) == EXPORTS
    assert len(mdswe.__all__) == len(EXPORTS)
    for name in mdswe.__all__:
        assert getattr(mdswe, name) is not None
    assert set(dir(mdswe)) >= EXPORTS
    with pytest.raises(AttributeError):
        mdswe.no_such_name


def test_verify_help_lists_the_suites(capsys):
    assert cli.VERIFY_SUITES == tuple(verify.SUITES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"or 'all' \(([^)]*)\)", text).group(1)
    assert listed.split(", ") == list(verify.SUITES)
