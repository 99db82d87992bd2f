#!/usr/bin/env python3
"""Multiuser error-probability experiment on a shared RS codeword.

Emits plot-ready CSV for a systematic (15,11) RS code over GF(16) whose
coordinates are split (3,3,5,4) among three users plus redundancy:

  * unconditional CEP and SEP of the BM decoder,
  * user 3's conditional SEP given users 1 and 2 see symbol error rates
    (0,0), (0,1), (1,1) in a codeword-error event,
  * the same four conditional variants for the union-bound BEP of the
    averaged binary image.

Usage: python scripts/multiuser_curves.py [--snr 4:8:0.25] [--out curves.csv]
"""

import argparse
import csv
import sys

from mdswe.errorprob import FREE, FULL, ZERO, error_curve, snr_grid
from mdswe.mds_enum import MdsParams

CONDITION_SETS = {
    "(0,0)": (ZERO, ZERO, FREE, FREE),
    "(0,1)": (ZERO, FULL, FREE, FREE),
    "(1,1)": (FULL, FULL, FREE, FREE),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snr", default="4:8:0.25", help="grid start:stop:step in dB")
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    try:
        start, stop, step = (float(x) for x in args.snr.split(":"))
        grid = snr_grid(start, stop, step)
    except ValueError as exc:
        print(f"error: --snr: bad range {args.snr!r}: {exc}", file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    params = MdsParams(15, 11, 16)
    sizes = (3, 3, 5, 4)
    user = 2  # third user, zero-based

    columns = {"cep": error_curve(params, grid, "cep"),
               "sep": error_curve(params, grid, "sep")}
    for label, conds in CONDITION_SETS.items():
        columns[f"sep{label}"] = error_curve(params, grid, "sep", sizes, user, conds)
        columns[f"bep{label}"] = error_curve(params, grid, "bep", sizes, user, conds)
    columns["bep"] = error_curve(params, grid, "bep", sizes, user, (FREE,) * 4)

    writer = csv.writer(out)
    writer.writerow(["gamma_db", *columns.keys()])
    for i, g in enumerate(grid):
        writer.writerow([g, *(repr(curve.points[i][1]) for curve in columns.values())])
    if args.out:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
