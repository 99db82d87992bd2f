"""Cold-start benchmark of the mdswe CLI and the multiuser experiment script.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout; the program runs from ``src`` and
``scripts`` with nothing installed.  An op is a fixed list of program calls,
each in a fresh interpreter, so no ``lru_cache`` or field table carries over
between ops, as for a user at the command line.  Ops run one at a time from
this one process (closed loop, one client) until ``--seconds`` is used up.
Every call's output is checked: against outputs recorded at the baseline
commit in ``reference.json`` where that commit computes a result, and
against invariants where it does not.

With ``--trace 0`` the last line reports the end-to-end metrics: the mean
op wall time, the median of interpreter start plus ``import mdswe.cli``
timed apart from the ops (samples spread between the ops over the whole
run), and the largest peak RSS of any op's process (from ``os.wait4``).
The op time is a mean, not a median, because on a shared host the same
op's time falls into a fast and a slow mode, and the median of a run's
dozen ops jumps between them.
With ``--trace 1`` untraced and traced ops alternate, the traced calls run
under ``tracer.py``, and the last line reports the per-layer metrics named
in ``BENCHMARK.json``.  Each traced op is paired with the untraced op of the
same calls just before it: the tracing overhead is the median of traced minus
untraced wall time, and the residual is the median of the untraced wall time
minus the layers' self times and one setup per process.  The summary says
whether the residual stays within the overhead.  ``--all`` runs every
workload, ``errprob-cli`` included, both ways and prints every metric and
every span, with each failed call's exit code and exception class.

``--seed`` picks the SNR grid offset of each op (same number of points, so
the same work); the verify suite keeps its documented seed 7 because the
amount of work in ``mdswe verify`` depends on its seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP = ROOT / ".perfbench_tmp"
SETUP_SHARE = 0.1       # share of the run spent on setup samples, taken between ops
CHILD_TIMEOUT_S = 150   # a call that runs longer is killed and counted as failed
SNR_OFFSETS = 8         # grid offsets with recorded reference outputs
REL_TOL = 1e-12


def snr_range(offset: int) -> str:
    """17-point grid in dB, shifted by offset/32 dB from the paper's 4:8:0.25."""
    start = 4.0 + offset / 32
    return f"{start!r}:{start + 4.0!r}:0.25"


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One program call.  `kind` is "cli" (python -m mdswe.cli) or "script"."""

    label: str
    kind: str
    args: tuple[str, ...]
    check: str          # "reference", "curve" or "verify"


def multiuser_op(rng: random.Random) -> list[Call]:
    snr = snr_range(rng.randrange(SNR_OFFSETS))
    return [Call(f"multiuser_curves {snr}", "script",
                 ("scripts/multiuser_curves.py", "--snr", snr), "reference")]


def errprob_op(codes: tuple[str, ...]) -> Callable[[random.Random], list[Call]]:
    # The baseline commit has no (255,223,256) curve to record (its float
    # boundary overflows), so those calls are checked by invariants.
    def op(rng: random.Random) -> list[Call]:
        snr = snr_range(rng.randrange(SNR_OFFSETS))
        return [Call(f"errprob {code} {metric} {snr}", "cli",
                     ("errprob", "--code", code, "--metric", metric, "--snr", snr,
                      "--format", "csv"),
                     "curve" if code == "rs:256:255:223" else "reference")
                for code in codes for metric in ("cep", "bep")]
    return op


def verify_op(rng: random.Random) -> list[Call]:
    return [Call("verify all 7", "cli", ("verify", "--suite", "all", "--seed", "7"), "verify")]


WORKLOADS: dict[str, Callable[[random.Random], list[Call]]] = {
    "multiuser-15": multiuser_op,
    "errprob-short": errprob_op(("rs:16:15:11", "rs:64:63:51")),
    # Not in BENCHMARK.json: its (255,223,256) calls raise OverflowError at
    # the baseline commit, so it is run and reported by --all only.
    "errprob-cli": errprob_op(("rs:16:15:11", "rs:64:63:51", "rs:256:255:223")),
    "verify-all": verify_op,
}


# -- output checks ----------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _curve_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise CheckFailed(f"bad CSV header {rows[0] if rows else None}")
    return rows[1:]


def check_reference(text: str, ref: str) -> None:
    """Strings equal exactly; numbers equal within REL_TOL relative."""
    ref_rows = list(csv.reader(io.StringIO(ref)))
    rows = _curve_rows(text, ref_rows[0])
    if len(rows) != len(ref_rows) - 1:
        raise CheckFailed(f"{len(rows)} rows, reference has {len(ref_rows) - 1}")
    for row, want in zip(rows, ref_rows[1:]):
        if len(row) != len(want) or row[0] != want[0]:
            raise CheckFailed(f"row {row[:1]} differs from reference {want[:1]}")
        for got, exp in zip(row[1:], want[1:]):
            if not math.isclose(float(got), float(exp), rel_tol=REL_TOL, abs_tol=0.0):
                raise CheckFailed(f"at {row[0]} dB: {got} != reference {exp}")


def check_curve(text: str, snr: str) -> None:
    """Finite probabilities in [0, 1] on the requested grid, non-increasing in SNR."""
    start, stop, step = (float(x) for x in snr.split(":"))
    rows = _curve_rows(text, ["gamma_db", "probability"])
    if len(rows) != round((stop - start) / step) + 1:
        raise CheckFailed(f"{len(rows)} points for grid {snr}")
    values = [float(v) for _, v in rows]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        raise CheckFailed(f"probability outside [0, 1]: {values}")
    if any(b > a for a, b in zip(values, values[1:])):
        raise CheckFailed("curve increases with SNR")


def check_verify(text: str) -> None:
    lines = text.splitlines()
    bad = [ln for ln in lines if not ln.startswith("ok ")]
    if not lines or bad:
        raise CheckFailed(f"non-ok verify lines: {bad[:3] or 'no output'}")


def check_output(call: Call, text: str, reference: dict) -> None:
    if call.check == "verify":
        check_verify(text)
    elif call.check == "curve":
        check_curve(text, call.args[call.args.index("--snr") + 1])
    elif call.label not in reference:
        raise CheckFailed("no recorded reference output")
    else:
        check_reference(text, reference[call.label])


# -- running children -----------------------------------------------------------


@dataclass
class CallResult:
    label: str
    wall_s: float
    rss_mb: float
    exit_code: int
    failure: Optional[str] = None       # why the call failed, or None
    trace: Optional[dict] = None


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    calls: list[CallResult] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout, stderr) -> tuple[float, float, int]:
    """Run one child to completion; (wall s, peak RSS MB, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env())
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def error_class(stderr: str) -> str:
    """Exception class of a traceback, or the CLI's 'error:' message."""
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if last.startswith("error:"):
        return last
    head = last.split(":", 1)[0]
    return head if head.replace(".", "").replace("_", "").isalnum() else "no exception"


def run_call(call: Call, traced: bool, reference: dict) -> CallResult:
    out_path, err_path, trace_path = TMP / "stdout", TMP / "stderr", TMP / "trace.json"
    trace_path.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), call.kind, *call.args]
    elif call.kind == "cli":
        argv = [sys.executable, "-m", "mdswe.cli", *call.args]
    else:
        argv = [sys.executable, *call.args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, rss, code = spawn(argv, out, err)
    result = CallResult(call.label, wall, rss, code)
    if code != 0:
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        result.failure = f"exit {code}: {error_class(stderr)}"
    else:
        try:
            check_output(call, out_path.read_text(encoding="utf-8"), reference)
        except (CheckFailed, ValueError) as exc:
            result.failure = f"output check: {exc}"
    if traced and trace_path.exists():
        result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return result


def run_op(calls: list[Call], traced: bool, reference: dict) -> Op:
    results = [run_call(c, traced, reference) for c in calls]
    return Op(sum(r.wall_s for r in results), max(r.rss_mb for r in results), results)


def time_setup() -> float:
    """Interpreter start plus `import mdswe.cli`, in a fresh child."""
    with open(TMP / "setup.err", "wb") as err:
        wall, _, code = spawn([sys.executable, "-c", "import mdswe.cli"], subprocess.DEVNULL, err)
    if code != 0:
        msg = (TMP / "setup.err").read_text(encoding="utf-8", errors="replace").strip()
        raise SystemExit(f"perfbench: cannot import mdswe.cli from {ROOT / 'src'}: "
                         f"{msg.splitlines()[-1] if msg else f'exit {code}'}")
    return wall


# -- measuring a workload -----------------------------------------------------------


@dataclass
class Run:
    workload: str
    setup_s: list[float]
    ops: list[Op]
    traced: list[Op]


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> Run:
    """Run ops (each followed by a traced op if `trace`) until the next one
    would overrun `seconds`; at least one op.  After each op, time setup until
    setup samples fill SETUP_SHARE of the time used, so that they spread over
    the run as the ops do."""
    make_op = WORKLOADS[name]
    rng = random.Random(seed)
    setup: list[float] = []
    ops: list[Op] = []
    traced: list[Op] = []
    start = time.perf_counter()
    while True:
        calls = make_op(rng)
        ops.append(run_op(calls, False, reference))
        if trace:
            traced.append(run_op(calls, True, reference))
        while sum(setup) < SETUP_SHARE * (time.perf_counter() - start):
            setup.append(time_setup())
        elapsed = time.perf_counter() - start
        if elapsed * (len(ops) + 1) / len(ops) > seconds:
            return Run(name, setup, ops, traced)


def calls_of(run: Run) -> list[CallResult]:
    return [c for op in run.ops + run.traced for c in op.calls]


def end_to_end(run: Run) -> dict[str, float]:
    walls = [op.wall_s for op in run.ops]
    calls = calls_of(run)
    return {
        "op_s": statistics.fmean(walls),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": max(op.rss_mb for op in run.ops),
        "failed_frac": sum(c.failure is not None for c in calls) / len(calls),
    }


def op_layers(op: Op) -> dict[str, float]:
    """Per-layer values of one traced op, summed over its processes."""
    out: dict[str, float] = {}
    for call in op.calls:
        trace = call.trace or {"spans": {}, "counters": {}, "caches": {}}
        for span, (calls, self_s, errors) in trace["spans"].items():
            for key, value in (("calls", calls), ("self_s", self_s), ("errors", errors)):
                out[f"{span}.{key}"] = out.get(f"{span}.{key}", 0) + value
        for name, value in trace["counters"].items():
            merge = max if name.endswith("max_coeff_bits") else (lambda a, b: a + b)
            out[name] = merge(out.get(name, 0), value)
        for name, (hits, misses) in trace["caches"].items():
            out[f"{name}.hits"] = out.get(f"{name}.hits", 0) + hits
            out[f"{name}.misses"] = out.get(f"{name}.misses", 0) + misses
    for name in {k.rsplit(".", 1)[0] for k in out if k.endswith(".misses")}:
        total = out[f"{name}.hits"] + out[f"{name}.misses"]
        out[f"{name}.hit_ratio"] = out[f"{name}.hits"] / total if total else 0.0
    out["trace.self_sum_s"] = sum(v for k, v in out.items() if k.endswith(".self_s"))
    return out


def per_layer(run: Run) -> dict[str, float]:
    """Median over traced ops of each layer value, plus the tracing overhead
    and the residual, each a median over (untraced, traced) pairs of one op:
    overhead = traced minus untraced wall time; residual = untraced wall time
    minus the traced layers' self times minus one setup per process."""
    per_op = [op_layers(op) for op in run.traced]
    names = sorted({k for layers in per_op for k in layers})
    out = {k: statistics.median(layers.get(k, 0) for layers in per_op) for k in names}
    startup = len(run.ops[0].calls) * statistics.median(run.setup_s)
    pairs = list(zip(run.ops, run.traced, per_op))
    out["trace.overhead_s"] = statistics.median(t.wall_s - u.wall_s for u, t, _ in pairs)
    out["trace.residual_s"] = statistics.median(
        u.wall_s - layers["trace.self_sum_s"] - startup for u, _, layers in pairs)
    return out


def within_overhead(layers: dict[str, float]) -> bool:
    """Whether the layers' self times plus setup add up to op_s within the
    tracing overhead."""
    return abs(layers["trace.residual_s"]) <= layers["trace.overhead_s"]


# -- reporting ----------------------------------------------------------------------


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def failures(run: Run) -> dict[str, int]:
    seen: dict[str, int] = {}
    for c in calls_of(run):
        if c.failure:
            key = f"{c.label.rsplit(' ', 1)[0]}: {c.failure}"
            seen[key] = seen.get(key, 0) + 1
    return seen


def summary_lines(run: Run, e2e: dict, layers: Optional[dict]) -> list[str]:
    walls = [op.wall_s for op in run.ops]
    p75 = statistics.quantiles(walls, n=4)[2] if len(walls) > 1 else walls[0]
    lines = [f"[{run.workload}] op_s mean {e2e['op_s']:.4f} s  median {statistics.median(walls):.4f}"
             f" s  p75 {p75:.4f} s  n={len(walls)}"
             f" | setup_s {e2e['setup_s']:.4f} s n={len(run.setup_s)}"
             f" | peak_rss_mb {e2e['peak_rss_mb']:.1f} MB"
             f" | failed_frac {e2e['failed_frac']:.4f} ratio"]
    for what, count in failures(run).items():
        lines.append(f"[{run.workload}]   failed x{count}: {what}")
    if layers is not None:
        lines += [f"[{run.workload}]   {key} = {value!r}" for key, value in layers.items()]
        lines.append(f"[{run.workload}] self times + setup add up to op_s within the tracing"
                     f" overhead: {'yes' if within_overhead(layers) else 'NO'}"
                     f" (|residual| {abs(layers['trace.residual_s']):.4f} s,"
                     f" overhead {layers['trace.overhead_s']:.4f} s)")
    return lines


def result_line(run: Run, metrics: dict[str, float], spec: list[dict]) -> str:
    calls = calls_of(run)
    failed = sum(c.failure is not None for c in calls)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        # a layer the program no longer has reads 0
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in spec},
    })


def environment() -> dict:
    import platform
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy_version,
            "cpu": cpu, "nproc": os.cpu_count()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    for needed in ("src/mdswe/cli.py", "scripts/multiuser_curves.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}; run from a source checkout",
                  file=sys.stderr)
            return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(BENCH / "reference.json")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    TMP.mkdir(exist_ok=True)
    try:
        if not args.all:
            run = measure(args.workload, args.seed, seconds, bool(args.trace), reference)
            e2e = end_to_end(run)
            layers = per_layer(run) if args.trace else None
            print("\n".join(summary_lines(run, e2e, layers)))
            print(result_line(run, layers if args.trace else e2e,
                              spec["per_layer"] if args.trace else spec["end_to_end"]))
            return 0
        report = {"environment": environment(), "seed": args.seed, "seconds": seconds,
                  "workloads": {}}
        for name in WORKLOADS:
            run = measure(name, args.seed, seconds, True, reference)
            e2e, layers = end_to_end(run), per_layer(run)
            print("\n".join(summary_lines(run, e2e, layers)), flush=True)
            report["workloads"][name] = {"end_to_end": e2e, "failures": failures(run),
                                         "per_layer": layers,
                                         "within_overhead": within_overhead(layers)}
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
