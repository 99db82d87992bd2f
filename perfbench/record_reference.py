"""Record the reference outputs that run.py checks calls against.

    python3 perfbench/record_reference.py

Runs every call that has a "reference" check, on every SNR grid offset a
seed can pick, and writes the outputs to perfbench/reference.json.  Run it
only at a commit whose outputs are trusted: later commits are checked
against what it records.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


class FixedOffset:
    """Stands in for the workload rng: always picks one grid offset."""

    def __init__(self, offset: int) -> None:
        self.offset = offset

    def randrange(self, stop: int) -> int:
        return self.offset


def main() -> int:
    run.TMP.mkdir(exist_ok=True)
    reference: dict[str, str] = {}
    try:
        for make_op in run.WORKLOADS.values():
            for offset in range(run.SNR_OFFSETS):
                for call in make_op(FixedOffset(offset)):
                    if call.check != "reference" or call.label in reference:
                        continue
                    result = run.run_call(call, False, {})
                    if result.exit_code != 0:
                        print(f"{call.label}: {result.failure}", file=sys.stderr)
                        return 1
                    reference[call.label] = (run.TMP / "stdout").read_text(encoding="utf-8")
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
