"""Each command loads only the layers it uses.

The closed forms need neither numpy nor the exhaustive oracles: importing
the package, the CLI or the error curves, and running a closed-form
`errprob`, must leave them unloaded.  Each import check runs in a fresh
interpreter, because this test process has loaded everything already.
"""

import re
import subprocess
import sys

import pytest

import mdswe
from mdswe import cli, linear_code, verify
from mdswe.cli import main

HEAVY = ("numpy", "mdswe.verify", "mdswe.montecarlo", "mdswe.duality")

# the package's public names, as the lazy export table of mdswe/__init__.py lists them
EXPORTS = {
    "BmSphereOracle", "ChannelPoint", "Condition", "DEFAULT_ENUMERATION_BUDGET",
    "ErrorCurve", "FREE", "FULL", "Field", "LinearCode", "MdsParams",
    "Partition", "PropertyAReport", "PropertyAWitness", "PweTable", "SparsePoly", "ZERO",
    "at_most", "avg_binary_iowe", "avg_binary_wgf", "binomial_approx", "bits_per_symbol",
    "brute_force_pwe", "brute_force_weights", "cep_bm",
    "channel_map", "check_convolution_identity", "check_subset_identity",
    "code_from_generator", "coordinate_weight_sum", "dual", "dual_property_a",
    "error_curve", "field_from_order", "fixed_support_counts", "iowe", "krawtchouk",
    "macwilliams_pwe", "min_distance", "parse_condition",
    "parse_field_spec", "property_a_check", "psi", "pwe_direct", "pwe_direct_table",
    "pwe_product", "pwgf", "rm1_code", "rs_code", "sep_bm", "snr_grid",
    "sphere_distance_prob", "support_histogram",
    "weight_distribution",
}


@pytest.mark.parametrize("statement", [
    "import mdswe",
    "import mdswe.cli",
    "import mdswe.errorprob",
    "import mdswe.cli; mdswe.cli.main(['errprob', '--code', 'rs:64:63:51', '--metric', "
    "'bep', '--snr', '4:8:0.25', '--format', 'csv', '--out', __import__('os').devnull])",
], ids=["mdswe", "cli", "errorprob", "errprob-bep"])
def test_closed_forms_leave_heavy_modules_unloaded(statement):
    probe = f"import sys\n{statement}\nprint(*[m for m in {HEAVY!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_verify_builds_its_pool_before_numpy_loads():
    # the workers are forked from a parent that has not loaded numpy
    probe = ("import multiprocessing, os, sys\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "real = multiprocessing.Pool\n"
             "def spy(workers, **kwargs):\n"
             "    print('numpy' in sys.modules, workers)\n"
             "    return real(workers, **kwargs)\n"
             "multiprocessing.Pool = spy\n"
             "import mdswe.cli\n"
             "sys.exit(mdswe.cli.main(['verify', '--suite', 'identities,binary']))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False 2"


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

    monkeypatch.setattr(cli, "rs_code", refuse)
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
