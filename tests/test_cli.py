import csv
import hashlib
import io
import json
import multiprocessing
import os
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mdswe import binary_avg, nested_sum, verify
from mdswe.cli import main, parse_code_spec, parse_partition_sizes, parse_snr_range
from mdswe.binary_avg import avg_binary_wgf
from mdswe.gf import Field
from mdswe.linear_code import Partition, brute_force_pwe, dual, rs_code
from mdswe.mds_enum import MdsParams

PAPER53_DOC = {"field": "gf:2^1", "rows": [[1, 0, 0, 1, 1], [0, 1, 0, 0, 1],
                                           [0, 0, 1, 0, 1]]}

EXPECTED_TERMS_738 = {
    (0, 0, 0, 0): 1, (1, 1, 2, 1): 21, (1, 1, 1, 2): 42, (1, 0, 2, 2): 21,
    (0, 1, 2, 2): 21, (1, 1, 2, 2): 63, (1, 1, 0, 3): 7, (1, 0, 1, 3): 14,
    (0, 1, 1, 3): 14, (1, 1, 1, 3): 42, (0, 0, 2, 3): 7, (1, 0, 2, 3): 21,
    (0, 1, 2, 3): 21, (1, 1, 2, 3): 217,
}


# Runs `mdswe.cli` on the arguments after -c, then prints the process's own
# peak resident set, the VmHWM line of /proc/self/status, to stderr.  The
# ru_maxrss that os.wait4 reports would also count the peak of the pytest
# process that spawned it, which depends on the tests run before.
CLI_REPORTING_PEAK = """\
import sys
from mdswe.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    sys.stderr.write("".join(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecParsers:
    def test_code_specs(self):
        assert parse_code_spec("rs:8:7:3").n == 7
        assert parse_code_spec("rm1:3").n == 8
        assert parse_code_spec("dual:rm1:3").k == 4

    def test_bad_code_specs(self):
        for bad in ("rs:8:7", "rs:8:7:x", "rm1:x", "nope:1"):
            with pytest.raises(ValueError):
                parse_code_spec(bad)

    def test_partition_sizes(self):
        assert parse_partition_sizes("1,1,2,3") == (1, 1, 2, 3)
        with pytest.raises(ValueError):
            parse_partition_sizes("1,0,2")
        with pytest.raises(ValueError):
            parse_partition_sizes("1,a")

    def test_snr_range(self):
        assert parse_snr_range("4:8:2") == [4.0, 6.0, 8.0]
        with pytest.raises(ValueError):
            parse_snr_range("8:4:1")


class TestPweCommand:
    def test_paper_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "pwe", "--code", "rs:8:7:3",
                               "--partition", "1,1,2,3")
        assert code == 0
        doc = json.loads(out)
        got = {tuple(t["profile"]): int(t["count"]) for t in doc["terms"]}
        assert got == EXPECTED_TERMS_738
        assert doc["total"] == "512"

    def test_json_round_trip_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "pwe.json"
        code = main(["pwe", "--code", "rs:8:7:3", "--partition", "1,1,2,3",
                     "--out", str(path)])
        assert code == 0
        text = path.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "pwe", "--code", "rs:8:7:3",
                             "--partition", "3,4")
        _, out2, _ = run_cli(capsys, "pwe", "--code", "rs:8:7:3",
                             "--partition", "3,4")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "pwe", "--code", "rs:8:7:3",
                               "--partition", "1,1,2,3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {tuple(int(x) for x in r["profile"].split(",")): int(r["count"])
               for r in rows}
        assert got == EXPECTED_TERMS_738


class TestBruteCommand:
    def test_matches_pwe_for_rs(self, capsys):
        _, out_pwe, _ = run_cli(capsys, "pwe", "--code", "rs:8:7:3",
                                "--partition", "1,1,2,3")
        _, out_brute, _ = run_cli(capsys, "brute", "--code", "rs:8:7:3",
                                  "--partition", "1,1,2,3")
        assert json.loads(out_pwe)["terms"] == json.loads(out_brute)["terms"]

    def test_budget_flag(self, capsys):
        code, _, err = run_cli(capsys, "brute", "--code", "rs:8:7:5",
                               "--partition", "7", "--budget", "100")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("m, peak_mb", [(13, 128), (14, None)])
    def test_long_code_tally_in_bounded_memory(self, tmp_path, m, peak_mb):
        # 2^(m+1) codewords of length 2^m: the words and their support bits
        # are held a few MB at a time, not codewords x length at once
        out = tmp_path / "out.json"
        with open(out, "w") as stdout:
            proc = subprocess.run([sys.executable, "-c", CLI_REPORTING_PEAK, "brute", "--code",
                                   f"rm1:{m}", "--partition", str(1 << m)],
                                  stdout=stdout, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        half = {"profile": [1 << (m - 1)], "count": str((1 << (m + 1)) - 2)}
        assert doc["total"] == str(1 << (m + 1)) and half in doc["terms"]
        if peak_mb is not None:
            [peak_kb] = [int(line.split()[1]) for line in proc.stderr.splitlines()
                         if line.startswith("VmHWM:")]
            assert peak_kb < peak_mb * 1024


class TestBinaryCommand:
    def test_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "binary", "--code", "rs:8:7:3",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        expected = avg_binary_wgf(MdsParams(7, 3, 8))
        assert len(rows) == 22
        for r in rows:
            h = int(r["h_b"])
            num, _, den = r["exact"].partition("/")
            from fractions import Fraction
            assert Fraction(int(num), int(den or 1)) == expected[h]

    def test_zero_code(self, capsys):
        # dual:rs:8:7:7 is the zero code: brute-force weights [1, 0, ..., 0]
        code, out, _ = run_cli(capsys, "binary", "--code", "dual:rs:8:7:7",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["exact"] for r in rows] == ["1"] + ["0"] * 21

    def test_rs_code_beyond_enumeration_budget(self, capsys):
        # q^k = 16^11 is never enumerated: an rs: spec takes the closed form
        code, out, _ = run_cli(capsys, "binary", "--code", "rs:16:15:11",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        expected = avg_binary_wgf(MdsParams(15, 11, 16))
        assert [Fraction(r["exact"]) for r in rows] == expected
        assert len(expected) == 61


class TestMdsCheck:
    @pytest.mark.parametrize("argv", [
        ("pwe", "--partition", "4,4"),
        ("errprob", "--metric", "cep", "--snr", "4:6:1"),
    ], ids=["pwe", "errprob"])
    def test_non_mds_code_exits_two(self, capsys, argv):
        # RM(1,3) is (8,4) with d = 4 < n - k + 1 = 5
        code, out, err = run_cli(capsys, argv[0], "--code", "rm1:3", *argv[1:])
        assert code == 2
        assert out == ""
        assert "not MDS" in err

    def test_mds_code_without_rs_spec_is_accepted(self, capsys):
        # RM(1,1) is the whole space GF(2)^2, d = 1 = n - k + 1
        code, out, _ = run_cli(capsys, "pwe", "--code", "rm1:1", "--partition", "1,1")
        assert code == 0
        assert json.loads(out)["total"] == "4"

    def test_budget_bounds_the_mds_check(self, capsys):
        code, _, err = run_cli(capsys, "pwe", "--code", "dual:rm1:3",
                               "--partition", "4,4", "--budget", "10")
        assert code == 2
        assert "budget" in err

    def test_non_mds_binary_without_partition_enumerates(self, capsys):
        code, out, _ = run_cli(capsys, "binary", "--code", "rm1:3", "--format", "csv")
        assert code == 0
        rows = {int(r["h_b"]): r["exact"] for r in csv.DictReader(io.StringIO(out))}
        assert rows[0] == "1" and rows[4] == "14" and rows[8] == "1"


class TestSpecDerivedParams:
    """pwe, errprob and binary read (n, k, q) from an rs: spec or a dual of
    one without building a generator; invalid specs fail as parse_code_spec
    does, with exit 2 and one `error:` line."""

    COMMANDS = {
        "pwe": ("pwe", "--partition", "3,3,5,4"),
        "errprob": ("errprob", "--metric", "bep", "--snr", "4:5:1"),
        "binary": ("binary",),
        "errprob-user": ("errprob", "--metric", "bep", "--snr", "4:5:1", "--partition",
                         "3,3,5,4", "--user", "1", "--condition", "free,zero,full,free"),
    }
    NOT_MDS = ("--code: dual:rs:16:15:15 is not MDS: the closed forms need minimum "
               "distance n - k + 1 = 16; use brute for any code")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("spec, message", [
        ("rs:16:17:11", "length 17 exceeds q-1 = 15"),
        ("rs:15:14:10", "15 is not a prime power"),
        ("rs:16:15:0", "need 1 <= k <= n, got k=0, n=15"),
        ("dual:rs:4:3:0", "need 1 <= k <= n, got k=0, n=3"),
        ("dual:rs:16:15", "--code: bad RS spec 'rs:16:15'; expected rs:<q>:<n>:<k>"),
    ])
    def test_invalid_rs_spec_exits_two(self, capsys, command, spec, message):
        code, out, err = run_cli(capsys, *self.COMMANDS[command], "--code", spec,
                                 "--format", "csv")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["pwe", "errprob", "errprob-user"])
    def test_zero_dimensional_dual_is_not_mds(self, capsys, command):
        code, out, err = run_cli(capsys, *self.COMMANDS[command],
                                 "--code", "dual:rs:16:15:15", "--format", "csv")
        assert (code, out, err) == (2, "", f"error: {self.NOT_MDS}\n")

    def test_zero_dimensional_dual_binary_enumerates(self, capsys):
        code, out, _ = run_cli(capsys, "binary", "--code", "dual:rs:16:15:15",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["exact"] for r in rows] == ["1"] + ["0"] * 60

    def test_bad_partition_is_reported_after_a_valid_spec(self, capsys):
        code, _, err = run_cli(capsys, "pwe", "--code", "dual:rs:16:15:15",
                               "--partition", "0")
        assert (code, err) == (2, "error: --partition: sizes must be positive, got '0'\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_double_dual_is_the_code(self, capsys, command):
        argv = (*self.COMMANDS[command], "--format", "csv")
        code, out, _ = run_cli(capsys, *argv, "--code", "dual:dual:rs:16:15:11")
        assert code == 0
        assert (0, out, "") == run_cli(capsys, *argv, "--code", "rs:16:15:11")


class TestDualPweCommand:
    @pytest.mark.parametrize("sizes", [(3, 4), (7,), (2, 2, 3)])
    def test_matches_brute_force_of_dual(self, capsys, sizes):
        code, out, _ = run_cli(capsys, "dual-pwe", "--code", "rs:8:7:3",
                               "--partition", ",".join(map(str, sizes)))
        assert code == 0
        doc = json.loads(out)
        got = {tuple(t["profile"]): int(t["count"]) for t in doc["terms"]}
        expected = brute_force_pwe(dual(rs_code(Field(2, 3), 7, 3)),
                                   Partition.contiguous(sizes)).counts
        assert got == expected

    # SHA-256 of each output, pinned when the transform took two blocks only:
    # the general transform leaves two-block output byte for byte the same
    @pytest.mark.parametrize("spec, sizes, fmt, digest", [
        ("rs:8:7:3", "3,4", "json",
         "8185db88ed5c02bba97cf7121079706d564d97bfb943319b315d7430287f902a"),
        ("rs:8:7:3", "3,4", "csv",
         "96a2c99cb3b1fb171e141a356c726090ca26a13138c7b3b23d4328701e9b0a57"),
        ("rm1:3", "3,5", "json",
         "4b528639781785f663474fe5160141516b949242f51ab571c4499c87a6ed1546"),
        ("rm1:3", "3,5", "csv",
         "8b534c26ac313afabf0feceb8e8d23e03a26ece9ab04f983b2462218aba2ca83"),
        ("file:paper53.json", "2,3", "json",
         "5bffd04a659c3d09172608e9772f30afebe5978ea28da749d56a027d136122f6"),
        ("file:paper53.json", "2,3", "csv",
         "37922b4126d4a3cb71e491c84d8bd3232d2fba6e0d302b4de9cbfd2d1606b64f"),
    ])
    def test_two_block_output_unchanged(self, capsys, monkeypatch, tmp_path,
                                        spec, sizes, fmt, digest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "paper53.json").write_text(json.dumps(PAPER53_DOC))
        code, out, _ = run_cli(capsys, "dual-pwe", "--code", spec, "--partition", sizes,
                               "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPropertyACommand:
    def test_holds_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "property-a", "--code", "rs:8:7:3")
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_counterexample_exit_one_with_witnesses(self, capsys, tmp_path):
        path = tmp_path / "paper53.json"
        path.write_text(json.dumps(PAPER53_DOC))
        code, out, _ = run_cli(capsys, "property-a", "--code", f"file:{path}")
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert any(w["weight"] == 2 and w["expected"] == "6/5"
                   for w in doc["witnesses"])


class TestErrprobCommand:
    def test_sep_curve_csv(self, capsys):
        code, out, _ = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                               "--partition", "3,3,5,4", "--metric", "sep",
                               "--user", "3", "--condition", "zero,full,free,free",
                               "--snr", "4:8:0.25", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 17
        probs = [float(r["probability"]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in probs)
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_unconditional_cep(self, capsys):
        code, out, _ = run_cli(capsys, "errprob", "--code", "rs:8:7:3",
                               "--metric", "cep", "--snr", "4:6:1")
        assert code == 0
        assert len(json.loads(out)["points"]) == 3

    def test_bep_metric(self, capsys):
        code, out, _ = run_cli(capsys, "errprob", "--code", "rs:8:7:3",
                               "--metric", "bep", "--snr", "4:6:1")
        assert code == 0

    def test_snr_beyond_float_range_exits_zero(self, capsys):
        # the linear SNR overflows to inf: an error-free channel, not an
        # exact value at the float boundary
        code, out, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11", "--metric",
                                 "cep", "--snr", "1e308:1e308:1", "--format", "csv")
        assert (code, out, err) == (0, "gamma_db,probability\r\n1e+308,0.0\r\n", "")

    @pytest.mark.parametrize("code, extra", [
        ("rs:256:255:223", ("--metric", "cep")), ("rs:256:255:223", ("--metric", "sep")),
        ("rs:256:255:223", ("--metric", "sep", "--partition", "56,56,56,87", "--user", "4",
                             "--condition", "free,free,free,free")),
        ("rs:256:255:239", ("--metric", "cep")), ("rs:256:255:239", ("--metric", "sep"))],
        ids=["223-cep", "223-sep", "223-user", "239-cep", "239-sep"])
    def test_paper_scale_bm_curves(self, capsys, code, extra):
        # the BM curves cross the float boundary as shares mu(w) <= 1, not E(h)
        rc, out, err = run_cli(capsys, "errprob", "--code", code, *extra, "--snr", "3:12:1",
                               "--format", "csv")
        assert (rc, err) == (0, "")
        probs = [float(r["probability"]) for r in csv.DictReader(io.StringIO(out))]
        assert len(probs) == 10 and all(0.0 < v <= 1.0 for v in probs)
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_float_overflow_exits_two(self):
        # the union-bound coefficients of (255,223,256) exceed the float64 range
        proc = subprocess.run([sys.executable, "-m", "mdswe.cli", "errprob", "--code",
                               "rs:256:255:223", "--metric", "bep", "--snr", "4:5:1"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "float boundary" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["pwe", "brute"])
    def test_out_of_memory_exits_two(self, command):
        # rm1:40 has 2^40 coordinates, too many to build; the child's address
        # space is capped, so it fails the same wherever it runs
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

        proc = subprocess.run([sys.executable, "-m", "mdswe.cli", command, "--code", "rm1:40",
                               "--partition", "3"], capture_output=True, text=True,
                              preexec_fn=cap_memory)
        assert proc.returncode == 2
        assert proc.stderr == "error: the input needs more memory than is available\n"

    def test_condition_requires_user_partition(self, capsys):
        code, _, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                               "--metric", "sep", "--user", "3", "--snr", "4:6:1")
        assert code == 2 and "--condition" in err

    def test_bad_condition_token(self, capsys):
        code, _, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                               "--partition", "3,3,5,4", "--metric", "sep",
                               "--user", "3", "--condition", "zero,banana,free,free",
                               "--snr", "4:6:1")
        assert code == 2 and "--condition" in err

    def test_zero_denominator_condition(self, capsys):
        code, out, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                                 "--partition", "3,3,5,4", "--metric", "sep",
                                 "--user", "1", "--condition", "atmost:1/0,free,free,free",
                                 "--snr", "4:5:1")
        assert (code, out) == (2, "")
        assert err == ("error: --condition: bad fraction '1/0' in 'atmost:1/0': "
                       "zero denominator\n")

    @pytest.mark.parametrize("snr", ["4:inf:1", "-inf:5:1", "nan:5:1", "4:5:nan"])
    def test_non_finite_snr_range(self, capsys, snr):
        code, out, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                                 "--metric", "cep", f"--snr={snr}")
        assert (code, out, err) == (2, "", f"error: --snr: bad range {snr!r}: "
                                           "start, stop and step must be finite\n")

    def test_huge_snr_grid_exits_two(self, capsys):
        # 10^12 points: refused before any point is built
        code, out, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                                 "--metric", "cep", "--snr", "0:1e6:1e-6")
        assert (code, out) == (2, "")
        assert err == "error: --snr: bad range '0:1e6:1e-6': more than 100000 points\n"

    @pytest.mark.parametrize("metric", ["sep", "bep"])
    def test_all_free_user_bep_equals_code_bep(self, capsys, metric):
        argv = ("errprob", "--code", "rs:64:63:51", "--metric", metric, "--snr", "4:8:1",
                "--format", "csv")
        code, user_rows, _ = run_cli(capsys, *argv, "--partition", "15,15,15,18",
                                     "--user", "4", "--condition", "free,free,free,free")
        assert code == 0
        assert run_cli(capsys, *argv) == (0, user_rows, "")
        assert len(user_rows.splitlines()) == 6

    @pytest.mark.parametrize("metric, user, message", [
        ("cep", "3", "per-user metrics are sep and bep, not 'cep'"),
        ("sep", "1", "the user under study must have a free or atmost condition"),
    ], ids=["per-user-cep", "user-block-zero"])
    def test_per_user_curve_errors_exit_two(self, capsys, metric, user, message):
        assert run_cli(capsys, "errprob", "--code", "rs:16:15:11", "--metric", metric,
                       "--partition", "3,3,5,4", "--user", user,
                       "--condition", "zero,full,free,free", "--snr", "4:6:1") == \
            (2, "", f"error: {message}\n")

    def test_user_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                               "--partition", "3,3,5,4", "--metric", "sep",
                               "--user", "9", "--condition", "zero,full,free,free",
                               "--snr", "4:6:1")
        assert code == 2 and "--user" in err

    @pytest.mark.parametrize("flag, argv", [
        ("--partition", ("--partition", "99,1", "--condition", "bogus")),
        ("--condition", ("--condition", "bogus")),
        ("--partition", ("--partition", "3,3,5,4")),
    ])
    def test_user_flags_without_user_exit_two(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, "errprob", "--code", "rs:16:15:11",
                                 "--metric", "cep", "--snr", "4:5:1", *argv)
        assert (code, out, err) == (2, "", f"error: {flag}: only valid with --user\n")


@pytest.mark.parametrize("argv", [
    ("errprob", "--code", "rs:16:15:11", "--metric", "cep", "--snr", "4:5:1",
     "--decoder", "bm"),
    ("binary", "--code", "rs:8:7:3", "--partition", "3,4"),
], ids=["errprob-decoder", "binary-partition"])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_oracle_suite_catches_one_wrong_entry(self, monkeypatch):
        field = verify.field_from_order(8)
        monkeypatch.setattr(verify, "_oracle_codes", lambda: iter([(field, 8, 7, 3)]))
        original = nested_sum.pwe_direct_table
        seen = []

        def perturbed(params, sizes):
            table = original(params, sizes)
            if not seen:  # one entry of the first table: the all-full profile
                seen.append(tuple(sizes))
                table[tuple(sizes)] += 1
            return table

        monkeypatch.setattr(nested_sum, "pwe_direct_table", perturbed)
        [result] = verify.suite_oracle(random.Random(7), 7, partitions_per_code=3)
        assert not result.passed
        assert f"failures: [(8, 7, 3, {seen[0]}, {seen[0]})]" in result.detail

    BINARY_CHECKS = ("binary:substitution-poly-normalized",
                     "binary:iowe-closed-form==substitution",
                     "binary:bit-weight-share-identity",
                     "binary:pwgf-collapse-matches-wgf")

    def _binary_suite_failures(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "binary", "--seed", "7")
        results = [line.split(" - ") for line in out.splitlines()]
        assert [name for _, name in results] == list(self.BINARY_CHECKS)
        return code, [name for status, name in results if status == "FAIL"]

    def test_binary_suite_catches_one_wrong_iowe_entry(self, monkeypatch, capsys):
        original = binary_avg.avg_binary_iowe

        def perturbed(params, s, w_b, h_b):
            value = original(params, s, w_b, h_b)
            return value + 1 if (params.k, s, w_b, h_b) == (3, 1, 0, 0) else value

        monkeypatch.setattr(binary_avg, "avg_binary_iowe", perturbed)
        assert self._binary_suite_failures(capsys) == (
            1, ["binary:iowe-closed-form==substitution"])

    def test_binary_suite_catches_one_wrong_wgf_entry(self, monkeypatch, capsys):
        # move one unit between two weights of (15,11,16): the total and
        # the signs still hold, only the comparison with the PWGF sees it
        original = binary_avg.avg_binary_wgf

        def perturbed(params):
            E_b = list(original(params))
            if params == MdsParams(15, 11, 16):
                E_b[30] += 1
                E_b[31] -= 1
            return E_b

        monkeypatch.setattr(binary_avg, "avg_binary_wgf", perturbed)
        assert self._binary_suite_failures(capsys) == (
            1, ["binary:pwgf-collapse-matches-wgf"])

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2 and "--suite" in err
        # every name is checked before any suite runs
        code, out, err = run_cli(capsys, "verify", "--suite", "gf,nonsense")
        assert code == 2 and out == ""
        assert "unknown suite 'nonsense'" in err

    @pytest.mark.parametrize("suites", ["identities", "identities,binary"])
    def test_exception_in_suite_is_failed_check(self, monkeypatch, capsys, suites):
        def boom(rng, seed):
            raise ValueError("boom")

        monkeypatch.setitem(verify.SUITES, "identities", boom)
        two_cpus(monkeypatch)   # the two-suite run goes through the pool
        code, out, err = run_cli(capsys, "verify", "--suite", suites, "--seed", "7")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "FAIL - identities:raised  (ValueError: boom)"
        if "binary" in suites:
            assert lines[1:] == [f"ok   - {name}" for name in self.BINARY_CHECKS]


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class TestVerifyPool:
    """Suites run in worker processes print what the sequential loop prints."""

    NAMES = ["identities", "binary", "duality"]

    def _pools(self, monkeypatch):
        built = []
        real = multiprocessing.Pool

        def spy(workers, **kwargs):
            built.append(workers)
            return real(workers, **kwargs)

        two_cpus(monkeypatch)
        monkeypatch.setattr(multiprocessing, "Pool", spy)
        return built

    def test_pooled_output_is_the_one_suite_runs_in_order(self, monkeypatch, capsys):
        alone = "".join(run_cli(capsys, "verify", "--suite", name, "--seed", "7")[1]
                        for name in self.NAMES)
        built = self._pools(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "--suite", ",".join(self.NAMES),
                                 "--seed", "7")
        assert (code, err) == (0, "")
        assert out == alone
        assert built == [2]

    @pytest.mark.parametrize("raises", [False, True], ids=["pass", "raise"])
    def test_no_worker_outlives_the_run(self, monkeypatch, raises):
        if raises:
            monkeypatch.setitem(verify.SUITES, "binary", lambda rng, seed: 1 / 0)
        built = self._pools(monkeypatch)
        stream = io.StringIO()
        assert verify.run_suites(self.NAMES, 7, stream) is not raises
        assert built == [2]
        assert ("FAIL - binary:raised  (ZeroDivisionError: division by zero)"
                in stream.getvalue()) is raises
        assert multiprocessing.active_children() == []

    def test_failed_write_stops_the_workers(self, monkeypatch):
        class Broken(io.StringIO):
            def write(self, text):
                raise OSError("write failed")

        built = self._pools(monkeypatch)
        with pytest.raises(OSError, match="write failed"):
            verify.run_suites(self.NAMES, 7, Broken())
        assert built == [2]
        assert multiprocessing.active_children() == []

    # a run whose second suite blocks: the pool forks, so its workers
    # inherit the registered suite, and the run cannot end before the
    # interrupt; SIGUSR1 makes each of its processes print every thread's
    # stack to stderr
    BLOCKED_RUN = "\n".join([
        "import faulthandler, signal, time",
        "from mdswe import cli, verify",
        "faulthandler.register(signal.SIGUSR1, all_threads=True)",
        "def suite_block(rng, seed):",
        "    time.sleep(60)",
        "    return []",
        "verify.SUITES['block'] = suite_block",
        "cli.main(['verify', '--suite', 'gf,block'])",
    ])

    @staticmethod
    def _group(pgid):
        """{pid: its /proc stat line} of each process in group `pgid`."""
        group = {}
        for name in os.listdir("/proc"):
            try:
                if name.isdigit() and os.getpgid(int(name)) == pgid:
                    with open(f"/proc/{name}/stat") as stat:
                        group[int(name)] = stat.read().strip()
            except OSError:   # the process has gone
                pass
        return group

    def _stacks(self, proc, pgid):
        """The run's stderr after each of its processes in turn has printed
        its threads' stacks there, half a second apart so that they do not
        interleave; the run is then killed."""
        for pid in sorted(self._group(pgid)):
            try:
                os.kill(pid, signal.SIGUSR1)
            except ProcessLookupError:
                pass
            time.sleep(0.5)
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return proc.communicate()[1]

    def test_interrupt_stops_the_workers_quietly(self):
        # Ctrl-C signals the whole process group; the workers ignore it,
        # and the parent alone stops the run
        proc = subprocess.Popen([sys.executable, "-u", "-c", self.BLOCKED_RUN],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        pgid = proc.pid
        try:
            assert proc.stdout.readline().startswith("ok")
            os.killpg(pgid, signal.SIGINT)
            deadline = time.monotonic() + 5
            try:
                _, err = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                pytest.fail("the run is still alive 5 s after SIGINT; its stderr with "
                            f"every process's stacks:\n{self._stacks(proc, pgid)}")
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                # the run's stderr is closed, so a survivor's stacks would go nowhere
                assert time.monotonic() < deadline, \
                    f"a process of the run is still alive: {self._group(pgid)}\n{err}"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert "ForkPoolWorker" not in err
        assert "KeyboardInterrupt" in err

    def test_worker_init_ignores_sigint(self):
        handler = signal.getsignal(signal.SIGINT)
        try:
            verify._init_worker()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, handler)

    # a pooled run of the oracle and two probes; the barrier holds the first
    # probe until the second one starts, so each runs in its own worker.  A
    # probe reports its worker's threads, whether numpy is loaded and the
    # OpenBLAS variable; the parent reports its threads when the pool is
    # built, and the variable after the run
    ONE_THREAD_RUN = "\n".join([
        "import multiprocessing, os, sys",
        "from mdswe import verify",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "barrier = multiprocessing.Barrier(2)",
        "def threads():",
        "    return len(os.listdir('/proc/self/task'))",
        "def suite_probe(rng, seed):",
        "    state = (threads(), 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))",
        "    barrier.wait(120)",
        "    return [verify.CheckResult('probe', True, repr(state))]",
        "verify.SUITES['probe'] = suite_probe",
        "real = multiprocessing.Pool",
        "def spy(workers, **kwargs):",
        "    print('parent', threads(), workers)",
        "    return real(workers, **kwargs)",
        "multiprocessing.Pool = spy",
        "ok = verify.run_suites(['oracle', 'probe', 'probe'], 7)",
        "print('after', os.environ.get('OPENBLAS_NUM_THREADS'))",
        "sys.exit(0 if ok else 1)",
    ])

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_workers_fork_from_one_thread_with_numpy_loaded(self, preset):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", self.ONE_THREAD_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        probes = [line for line in lines if line.startswith("ok   - probe")]
        assert lines[-1] == f"after {preset}"
        if preset is None:
            # numpy imported under the cap leaves one thread; without it, two
            assert lines[0] == "parent 1 2"
            assert probes == ["ok   - probe  ((1, True, None))"] * 2
        else:
            assert probes == [f"ok   - probe  ((1, True, {preset!r}))"] * 2

    def test_longest_suites_start_first(self):
        names = ["gf", "errorprob", "identities", "oracle", "gf"]
        assert [names[i] for i in verify._start_order(names)] == \
            ["oracle", "errorprob", "gf", "identities", "gf"]

    def test_output_keeps_the_asked_order_and_repeats(self, monkeypatch, capsys):
        names = ["errorprob", "gf", "identities", "gf"]
        alone = "".join(run_cli(capsys, "verify", "--suite", name, "--seed", "3")[1]
                        for name in names)
        built = self._pools(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "--suite", ",".join(names), "--seed", "3")
        assert (code, err) == (0, "")
        assert out == alone
        assert built == [2]
        assert multiprocessing.active_children() == []

    def test_raising_suite_prints_in_its_asked_place(self, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "oracle", lambda rng, seed: 1 / 0)
        alone = io.StringIO()
        verify.run_suites(["identities"], 7, alone)
        built = self._pools(monkeypatch)
        stream = io.StringIO()
        assert not verify.run_suites(["identities", "oracle", "binary"], 7, stream)
        assert built == [2]
        lines = stream.getvalue().splitlines()
        raised = [i for i, line in enumerate(lines) if "raised" in line]
        assert raised == [len(alone.getvalue().splitlines())]
        assert lines[raised[0]] == \
            "FAIL - oracle:raised  (ZeroDivisionError: division by zero)"
        assert lines[-1].startswith("ok   - binary:")
        assert multiprocessing.active_children() == []

    def test_one_cpu_builds_no_pool(self, monkeypatch):
        pooled = io.StringIO()
        self._pools(monkeypatch)
        verify.run_suites(self.NAMES, 7, pooled)

        def refuse(workers, **kwargs):
            raise AssertionError("pool built")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        alone = io.StringIO()
        assert verify.run_suites(self.NAMES, 7, alone)
        assert alone.getvalue() == pooled.getvalue()


class TestUsageErrors:
    def test_unknown_code_spec(self, capsys):
        code, _, err = run_cli(capsys, "pwe", "--code", "banana:1",
                               "--partition", "1")
        assert code == 2
        assert "--code" in err

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["pwe", "--code", "rs:8:7:3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("doc", [
        [1],
        {"field": "gf:2^1", "rows": 5},
        {"field": "gf:2^1", "rows": [1, 0]},
        {"field": "gf:2^1", "rows": [[1, None]]},
        {"field": 5, "rows": [[1, 0]]},
        {"field": "gf:2^1", "rows": [[1, 0], [1, 0]]},
    ], ids=["not-an-object", "rows-not-a-list", "rows-not-lists", "null-entry",
            "field-not-a-string", "rank-deficient"])
    def test_malformed_generator_file_exits_two(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "brute", "--code", f"file:{path}",
                                 "--partition", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --code: bad generator file {str(path)!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rows", [
        [[1.7, 0, 1], [0, True, 1]],
        [[1, 0, 1], [0, 1.0, 1]],
        [[1, 0, 1], [0, True, 1]],
        [[1, 0, 1], [0, "1", 1]],
        "101",
    ], ids=["float-and-bool", "integral-float", "bool-entry", "string-entry", "rows-a-string"])
    def test_generator_entries_must_be_json_integers(self, capsys, tmp_path, rows):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": "gf:2^1", "rows": rows}))
        code, out, err = run_cli(capsys, "brute", "--code", f"file:{path}",
                                 "--partition", "3")
        assert (code, out) == (2, "")
        assert err == (f"error: --code: bad generator file {str(path)!r}: "
                       "rows must be a list of lists of integers\n")


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "mdswe.cli", "pwe",
                           "--code", "rs:8:7:3", "--partition", "7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == "512"
