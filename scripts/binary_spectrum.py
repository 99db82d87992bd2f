#!/usr/bin/env python3
"""Averaged binary weight spectrum of an RS code vs the normalized
binomial reference.

Emits CSV rows (h_b, exact rational, float, binomial reference, relative
error) for the averaged binary image of an MDS code.

Usage: python scripts/binary_spectrum.py [--code 8:7:3] [--out spectrum.csv]
"""

import argparse
import csv
import sys
from fractions import Fraction

from mdswe.binary_avg import avg_binary_wgf, binomial_approx, bits_per_symbol
from mdswe.mds_enum import MdsParams, check_rs_params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--code", default="8:7:3", help="q:n:k of an RS code")
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    try:
        q, n, k = (int(x) for x in args.code.split(":"))
        check_rs_params(q, n, k)
        m = bits_per_symbol(q)
    except ValueError as exc:
        print(f"error: --code: bad code {args.code!r}; expected q:n:k of an RS code "
              f"over GF(2^m): {exc}", file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    params = MdsParams(n, k, q)
    exact = avg_binary_wgf(params)

    writer = csv.writer(out)
    writer.writerow(["h_b", "exact", "float64", "binomial_ref", "rel_error"])
    for h_b in range(m * n + 1):
        ref = binomial_approx(params, h_b)
        rel = float(exact[h_b] / ref - 1) if ref else float("nan")
        writer.writerow([h_b, f"{Fraction(exact[h_b])}", repr(float(exact[h_b])),
                         repr(float(ref)), repr(rel)])
    if args.out:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
