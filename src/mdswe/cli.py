"""Command-line front end.

Subcommands
-----------
pwe         closed-form partition weight enumerator of an MDS code
brute       exhaustive partition weight enumerator of any code
binary      averaged binary weight distribution (exact rationals)
dual-pwe    the dual code's enumerator, any number of blocks, via the
            MacWilliams transform of the brute-force enumerator
property-a  uniform-coordinate-weight check (exit 1 + witnesses on failure)
errprob     decoder error-probability curves over an SNR grid
verify      run the built-in verification suites

Code specs: ``rs:<q>:<n>:<k>``, ``rm1:<m>``, ``dual:<spec>``,
``file:<path>`` (JSON object with "field" spec string and integer
"rows").  Field specs: ``gf:<p>^<m>[:poly=<hex bitmask>]``.

Exit codes: 0 success, 1 failed check, 2 usage error.  Exact quantities
are emitted as decimal strings (or "num/denom" for rationals); binary64
values use shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .binary_avg import avg_binary_weights_from_distribution, avg_binary_wgf, bits_per_symbol
from .errorprob import error_curve, parse_condition, snr_grid
from .gf import field_from_order, parse_field_spec
from .linear_code import (BudgetExceededError, LinearCode, Partition, brute_force_pwe,
                          brute_force_weights, check_rs_params, code_from_generator, dual,
                          min_distance, rm1_code, rs_code)
from .mds_enum import MdsParams, pwgf

# the names of verify.SUITES, so that building the parser does not load the
# suites (tests/test_imports.py keeps the two in step)
VERIFY_SUITES = ("gf", "codes", "oracle", "identities", "binary", "duality", "errorprob")


class UsageError(ValueError):
    """Bad command-line input; reported with exit code 2."""


def _parse_rs_spec(spec: str) -> tuple[int, int, int]:
    """(q, n, k) of ``rs:<q>:<n>:<k>``, unchecked."""
    try:
        q_s, n_s, k_s = spec.split(":")[1:]
        return int(q_s), int(n_s), int(k_s)
    except ValueError:
        raise UsageError(f"--code: bad RS spec {spec!r}; expected rs:<q>:<n>:<k>")


def parse_code_spec(spec: str) -> LinearCode:
    kind, _, rest = spec.partition(":")
    if kind == "rs":
        q, n, k = _parse_rs_spec(spec)
        return rs_code(field_from_order(q), n, k)
    if kind == "rm1":
        try:
            return rm1_code(int(rest))
        except ValueError:
            raise UsageError(f"--code: bad RM spec {spec!r}; expected rm1:<m>")
    if kind == "dual":
        return dual(parse_code_spec(rest))
    if kind == "file":
        with open(rest, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            rows = doc["rows"]
            if not isinstance(rows, list) or any(not isinstance(row, list) or
                                                 any(type(v) is not int for v in row)
                                                 for row in rows):
                raise ValueError("rows must be a list of lists of integers")
            return code_from_generator(parse_field_spec(str(doc["field"])), rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"--code: bad generator file {rest!r}: {exc}")
    raise UsageError(f"--code: unknown code spec {spec!r}")


def parse_partition_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"--partition: bad sizes {text!r}; expected n1,n2,...")
    if any(s <= 0 for s in sizes):
        raise UsageError(f"--partition: sizes must be positive, got {text!r}")
    return sizes


def parse_snr_range(text: str) -> list[float]:
    try:
        start, stop, step = map(float, text.split(":"))
    except ValueError:
        raise UsageError(f"--snr: bad range {text!r}; expected start:stop:step")
    try:
        return snr_grid(start, stop, step)
    except ValueError as exc:
        raise UsageError(f"--snr: bad range {text!r}: {exc}")


def _format_exact(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
            else str(value.numerator)
    return str(value)


def _emit(doc: dict, rows: list[dict], args) -> None:
    """Write the document as canonical JSON or CSV to --out / stdout."""
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_document(args, sizes, counts, extra: Optional[dict] = None) -> tuple[dict, list[dict]]:
    terms = [{"profile": list(profile), "count": str(count)}
             for profile, count in sorted(counts.items())]
    doc = {"code": args.code, "partition": list(sizes),
           "total": str(sum(counts.values())), "terms": terms}
    if extra:
        doc.update(extra)
    rows = [{"profile": ",".join(map(str, t["profile"])), "count": t["count"]}
            for t in terms]
    return doc, rows


class CodeShape(NamedTuple):
    """The (n, k, q) of a --code.  `code` is its generator, or None for an
    `rs:` spec or a dual of one: those are MDS by construction, and the
    closed forms need no generator."""

    n: int
    k: int
    q: int
    code: Optional[LinearCode]


def read_code_shape(spec: str) -> CodeShape:
    """Read a --code spec, building the generator only if it is not an
    `rs:` spec or a dual of one.  An invalid spec fails as in
    `parse_code_spec`."""
    inner, duals = spec, 0
    while inner.startswith("dual:"):
        inner, duals = inner[len("dual:"):], duals + 1
    if inner.partition(":")[0] != "rs":
        code = parse_code_spec(spec)
        return CodeShape(code.n, code.k, code.field.order, code)
    q, n, k = _parse_rs_spec(inner)
    check_rs_params(field_from_order(q), n, k)
    return CodeShape(n, n - k if duals % 2 else k, q, None)


def _mds_params(args, shape: CodeShape) -> Optional[MdsParams]:
    """The code's (n, k, q) if it is MDS, else None.

    A code with a generator is MDS iff its minimum distance, found by
    exhaustive enumeration within --budget, is n - k + 1.  The zero code
    has no MdsParams.
    """
    if shape.k == 0:
        return None
    params = MdsParams(shape.n, shape.k, shape.q)
    if shape.code is None or min_distance(shape.code, budget=args.budget) == params.d:
        return params
    return None


def _require_mds(args, shape: CodeShape) -> MdsParams:
    params = _mds_params(args, shape)
    if params is None:
        raise UsageError(f"--code: {args.code} is not MDS: the closed forms need "
                         f"minimum distance n - k + 1 = {shape.n - shape.k + 1}; "
                         "use brute for any code")
    return params


def _cmd_pwe(args) -> int:
    shape = read_code_shape(args.code)
    sizes = parse_partition_sizes(args.partition)
    params = _require_mds(args, shape)
    poly = pwgf(params, sizes)
    doc, rows = _table_document(args, sizes, poly.terms,
                                {"n": params.n, "k": params.k, "q": params.q})
    _emit(doc, rows, args)
    return 0


def _cmd_brute(args) -> int:
    code = parse_code_spec(args.code)
    sizes = parse_partition_sizes(args.partition)
    table = brute_force_pwe(code, Partition.contiguous(sizes), budget=args.budget)
    doc, rows = _table_document(args, sizes, table.counts,
                                {"n": code.n, "k": code.k, "q": code.field.order})
    _emit(doc, rows, args)
    return 0


def _cmd_binary(args) -> int:
    shape = read_code_shape(args.code)
    m = bits_per_symbol(shape.q)
    params = _mds_params(args, shape)
    if params is not None:
        weights = avg_binary_wgf(params)
    else:
        # a non-MDS code, or the zero code (the dual of an rs:<q>:<n>:<n> spec)
        code = shape.code if shape.code is not None else parse_code_spec(args.code)
        weights = avg_binary_weights_from_distribution(
            brute_force_weights(code, budget=args.budget), m)
    rows = [{"h_b": h, "exact": _format_exact(Fraction(w)), "float64": repr(float(w))}
            for h, w in enumerate(weights)]
    doc = {"code": args.code, "bits_per_symbol": m,
           "rows": [{"h_b": r["h_b"], "exact": r["exact"],
                     "float64": float(r["float64"])} for r in rows]}
    _emit(doc, rows, args)
    return 0


def _cmd_dual_pwe(args) -> int:
    from .duality import macwilliams_pwe

    code = parse_code_spec(args.code)
    sizes = parse_partition_sizes(args.partition)
    table = brute_force_pwe(code, Partition.contiguous(sizes), budget=args.budget)
    dual_table = macwilliams_pwe(table, code.field.order, code.k)
    doc, rows = _table_document(args, sizes, dual_table.counts,
                                {"n": code.n, "k": code.n - code.k,
                                 "q": code.field.order, "transform": "macwilliams"})
    _emit(doc, rows, args)
    return 0


def _cmd_property_a(args) -> int:
    from .duality import property_a_check

    code = parse_code_spec(args.code)
    report = property_a_check(code, budget=args.budget)
    doc = {
        "code": args.code,
        "holds": report.holds,
        "method": report.method,
        "witnesses": [{"coordinate": w.coordinate, "weight": w.weight,
                       "observed": str(w.observed),
                       "expected": _format_exact(w.expected)}
                      for w in report.witnesses],
    }
    rows = [{"coordinate": w["coordinate"], "weight": w["weight"],
             "observed": w["observed"], "expected": w["expected"]}
            for w in doc["witnesses"]]
    _emit(doc, rows, args)
    return 0 if report.holds else 1


def _cmd_errprob(args) -> int:
    params = _require_mds(args, read_code_shape(args.code))
    gammas = parse_snr_range(args.snr)

    if args.user is not None:
        if not args.condition:
            raise UsageError("--condition: required when --user is given")
        if not args.partition:
            raise UsageError("--partition: required when --user is given")
        sizes = parse_partition_sizes(args.partition)
        try:
            conditions = tuple(parse_condition(tok) for tok in args.condition.split(","))
        except ValueError as exc:
            raise UsageError(f"--condition: {exc}")
        if not 1 <= args.user <= len(sizes):
            raise UsageError(f"--user: index {args.user} outside 1..{len(sizes)}")
        curve = error_curve(params, gammas, args.metric, sizes, args.user - 1, conditions)
    elif args.partition or args.condition:
        flag = "--partition" if args.partition else "--condition"
        raise UsageError(f"{flag}: only valid with --user")
    else:
        curve = error_curve(params, gammas, args.metric)

    rows = [{"gamma_db": repr(g), "probability": repr(v)} for g, v in curve.points]
    doc = {"code": args.code, "decoder": curve.decoder, "metric": curve.metric,
           "user": args.user,
           "conditions": [str(c) for c in curve.conditions] if curve.conditions else None,
           "points": [{"gamma_db": g, "probability": v} for g, v in curve.points]}
    _emit(doc, rows, args)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites, suite_names

    try:
        names = suite_names([tok.strip() for tok in args.suite.split(",")])
    except ValueError as exc:
        raise UsageError(f"--suite: {exc}")
    return 0 if run_suites(names, seed=args.seed) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdswe",
        description="Exact partition weight enumerators of MDS codes and "
                    "decoder error-probability curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, partition=False, partition_required=False):
        p.add_argument("--code", required=True, help="code spec, e.g. rs:8:7:3")
        if partition:
            p.add_argument("--partition", required=partition_required,
                           help="block sizes, e.g. 1,1,2,3")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--budget", type=int, default=None,
                       help="max codewords for exhaustive enumeration")

    p = sub.add_parser("pwe", help="closed-form partition weight enumerator")
    add_common(p, partition=True, partition_required=True)
    p.set_defaults(fn=_cmd_pwe)

    p = sub.add_parser("brute", help="exhaustive partition weight enumerator")
    add_common(p, partition=True, partition_required=True)
    p.set_defaults(fn=_cmd_brute)

    p = sub.add_parser("binary", help="averaged binary weight distribution")
    add_common(p)
    p.set_defaults(fn=_cmd_binary)

    p = sub.add_parser("dual-pwe", help="dual code enumerator via MacWilliams")
    add_common(p, partition=True, partition_required=True)
    p.set_defaults(fn=_cmd_dual_pwe)

    p = sub.add_parser("property-a", help="uniform-coordinate-weight check")
    add_common(p)
    p.set_defaults(fn=_cmd_property_a)

    p = sub.add_parser("errprob", help="decoder error-probability curves")
    add_common(p, partition=True, partition_required=False)
    p.add_argument("--metric", choices=("cep", "sep", "bep"), required=True)
    p.add_argument("--user", type=int, default=None,
                   help="1-based block index of the user under study")
    p.add_argument("--condition",
                   help="comma list per block: free|zero|full|atmost:<frac>")
    p.add_argument("--snr", required=True, help="gamma grid start:stop:step in dB")
    p.set_defaults(fn=_cmd_errprob)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--suite", default="all",
                   help="comma list of suites, or 'all' "
                        f"({', '.join(VERIFY_SUITES)})")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # exact coefficients beyond ~1e308 cannot cross the float boundary
        print(f"error: an exact value exceeds the float64 range at the float "
              f"boundary ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
