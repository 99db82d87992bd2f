"""The benchmark's tracer still runs the program unchanged.

`perfbench/tracer.py` imports every mdswe module it names and wraps
functions and `SparsePoly` methods by name, so a package change that
drops one of them breaks the traced runs.  Each call here runs once
untraced and once under the tracer: the traced run must exit 0, print
the same bytes and write a trace that parses.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.parametrize("argv", [
    ("pwe", "--code", "rs:8:7:3", "--partition", "1,1,2,3"),
    ("errprob", "--code", "rs:16:15:11", "--metric", "sep", "--snr", "4:8:0.5",
     "--user", "3", "--partition", "3,3,5,4", "--condition", "zero,full,free,free"),
    ("verify", "--suite", "binary,errorprob", "--seed", "7"),
], ids=["pwe", "errprob-user", "verify"])
def test_traced_call_matches_untraced(tmp_path, argv):
    plain = subprocess.run([sys.executable, "-m", "mdswe.cli", *argv],
                           capture_output=True, cwd=ROOT, timeout=300)
    assert plain.returncode == 0, plain.stderr.decode()
    trace = tmp_path / "t.json"
    traced = subprocess.run([sys.executable, str(TRACER), str(trace), "cli", *argv],
                            capture_output=True, cwd=ROOT, timeout=300)
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert set(doc) == {"spans", "counters", "caches"}


def test_one_suite_verify_runs_traced_in_process(tmp_path):
    # one suite builds no worker pool, so its span is recorded in the traced process
    trace = tmp_path / "t.json"
    traced = subprocess.run([sys.executable, str(TRACER), str(trace), "cli",
                             "verify", "--suite", "identities", "--seed", "7"],
                            capture_output=True, cwd=ROOT, timeout=300)
    assert traced.returncode == 0, traced.stderr.decode()
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["spans"]["verify.suite.identities"][0] == 1
