"""Command line front end.

Exit codes: 0 success, 1 property failure, 2 input error, 3 resource guard.
The default seed comes from KNOTMF_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .braid import parse_braid
from .hecke import from_braid, homflypt
from .localization import partitions_of, superpoly_jm, syt_enumerate
from .ring import ResourceLimit

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_GUARD = 0, 1, 2, 3

HOMFLY_STRAND_CAP = 6


def _default_seed() -> int:
    try:
        return int(os.environ.get("KNOTMF_SEED", "7"))
    except ValueError:
        return 7


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="knotmf",
        description="Exact symbolic workbench: closure invariants via the "
                    "Markov trace, rank-2 factorization pipelines, and "
                    "fixed-point character formulas.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homfly", help="closure invariant of a braid word")
    p.add_argument("braid", help="whitespace-separated signed generators")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--force", action="store_true",
                   help="lift the strand cap")

    p = sub.add_parser("hecke", help="algebra image of a braid word")
    p.add_argument("braid")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("superpoly",
                       help="superpolynomial character of a JM power braid")
    p.add_argument("--jm", default="",
                   help="comma separated exponents, one per JM generator")
    p.add_argument("--mode", choices=("residue", "syt"), default="residue")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("tableaux", help="standard tableau counts")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite",
                   choices=("mf-suite", "markov", "skein", "localization"))
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--format", choices=("text", "json"), default="json")
    return ap


def _cmd_homfly(args) -> int:
    try:
        braid = parse_braid(args.braid, args.strands)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if braid.strands > HOMFLY_STRAND_CAP and not args.force:
        print(f"error: {braid.strands} strands exceeds the cap "
              f"{HOMFLY_STRAND_CAP}; pass --force to override",
              file=sys.stderr)
        return EXIT_GUARD
    value = homflypt(braid)
    if args.format == "json":
        print(json.dumps({"braid": braid.to_json(),
                          "writhe": braid.writhe(),
                          "components": braid.component_count(),
                          "invariant": value.a_coefficients()},
                         sort_keys=True))
    else:
        print(value)
    return EXIT_OK


def _cmd_hecke(args) -> int:
    try:
        braid = parse_braid(args.braid, args.strands)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if braid.strands > HOMFLY_STRAND_CAP and not args.force:
        print("error: strand cap exceeded; pass --force", file=sys.stderr)
        return EXIT_GUARD
    x = from_braid(braid)
    if args.format == "json":
        data = [{"permutation": [v + 1 for v in w],
                 "coeff": c.to_json()} for w, c in sorted(x.terms.items())]
        print(json.dumps(data, sort_keys=True))
    else:
        print(x)
    return EXIT_OK


def _cmd_superpoly(args) -> int:
    text = args.jm.strip()
    try:
        exponents = [int(tok) for tok in text.split(",") if tok.strip()] \
            if text else []
    except ValueError:
        print("error: --jm wants comma separated integers", file=sys.stderr)
        return EXIT_INPUT
    if any(b < 0 for b in exponents):
        print("error: negative JM exponents are outside the positive range "
              "of the character formula", file=sys.stderr)
        return EXIT_INPUT
    try:
        ch = superpoly_jm(exponents, mode=args.mode, order=args.order)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    if args.format == "json":
        print(json.dumps(ch.to_json(), sort_keys=True))
    else:
        print(f"character of the {ch.n}-box closure, exponents {exponents}")
        print(f"  reduced sum: {ch.reduced}")
        print(f"  series to order {args.order}: {ch.series()}")
    return EXIT_OK


def _cmd_tableaux(args) -> int:
    if args.n < 1 or args.n > 9:
        print("error: n must be between 1 and 9", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    total = 0
    for shape in partitions_of(args.n):
        count = shape.syt_count()
        brute = len(syt_enumerate(shape)) if args.n <= 7 else count
        if brute != count:
            print("error: hook length mismatch", file=sys.stderr)
            return EXIT_FAIL
        rows.append({"shape": list(shape.parts), "count": count})
        total += count
    if args.format == "json":
        print(json.dumps({"n": args.n, "shapes": rows, "total": total},
                         sort_keys=True))
    else:
        for row in rows:
            print(f"{tuple(row['shape'])}: {row['count']}")
        print(f"total: {total}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suite
    report = run_suite(args.suite, samples=args.samples, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"suite {report['suite']}: {report['status']}")
        for step in report.get("steps", []):
            print(f"  {step['step']}: {step['status']}")
        for failure in report.get("failures", []):
            print(f"  failure: {failure}")
    return EXIT_OK if report["status"] == "pass" else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {"homfly": _cmd_homfly, "hecke": _cmd_hecke,
                "superpoly": _cmd_superpoly, "tableaux": _cmd_tableaux,
                "verify": _cmd_verify}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
