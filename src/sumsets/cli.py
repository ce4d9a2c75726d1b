"""Command-line surface: compute, bound, witness, classify, scan.

Exit codes: 0 clean, 2 theorem violation (an engine bug surfaced by a
verify scan), 3 conjecture counterexample found, 64 usage error, 65 domain
error from the library, 141 stdout closed by its reader (as a shell
reports SIGPIPE).
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

from .bounds import audit
from .core import SetFamily, SumsetKind, canonical_json, parse_set_literal
from .errors import EngineMismatch, InvalidSetLiteral, SumsetError, TheoremViolation
from .explorer import CSV_HEADER, ScanConfig, _target, parse_mode, scan
from .inverse import classify_extremal
from .kernel import sumset_layered, sumset_naive
from .witness import s_family, t_family, u_family, verify_family

EXIT_OK = 0
EXIT_THEOREM_VIOLATION = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sumsets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser, json: bool = True) -> None:
        p.add_argument("--set", required=True, help="set literal, e.g. 1,3,5,7")
        p.add_argument("--h", required=True, type=int, help="fold count")
        if json:
            p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("compute", help="compute one sumset")
    common(p)
    p.add_argument(
        "--kind",
        choices=[k.value for k in SumsetKind],
        default=SumsetKind.RESTRICTED_SIGNED.value,
    )
    p.add_argument("--engine", choices=["naive", "layered"], default="layered")

    p = sub.add_parser("bound", help="audit a set against all applicable bounds")
    common(p)

    text = ("dump certificate families with checks as JSON; a set that "
            "starts at 0 gets the contains-zero chains")
    p = sub.add_parser("witness", help=text, description=text)
    common(p, json=False)
    p.add_argument("--superincreasing", action="store_true")

    p = sub.add_parser("classify", help="classify a set against inverse theory")
    common(p)

    p = sub.add_parser("scan", help="exhaustive scan of a normalized space")
    p.add_argument("--mode", required=True, help="verify:<id> or conj:<id>")
    p.add_argument(
        "--k", required=True, type=int, help="set size; a contains-zero set counts its 0"
    )
    p.add_argument("--h", help="fold, or inclusive range like 3-5")
    p.add_argument(
        "--family", choices=["positive", "contains-zero"],
        help="set family to scan; defaults to the target's (positive for TA_Nathanson)",
    )
    p.add_argument(
        "--max", required=True, type=int, dest="max_element",
        help="largest element; the stacked DP int the walk holds per tree "
        "level (2^32 bits in all) and the prefix blocks (2^18) are budgeted by it",
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes N >= 1, at most min(N, blocks, usable CPUs, "
        "1 + sets x folds // 2^17), since smaller scans ran no faster in a "
        "pool; one worker runs in the calling process",
    )
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write the CSV report here")
    p.add_argument("--json", action="store_true", help="print report JSON to stdout")
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_h_range(text: str | None) -> range | None:
    """A fold or inclusive fold range; one that runs backwards is
    malformed.  Only the scan decides which folds its target takes, and it
    refuses a range of more than k folds at its first fold outside 1..k,
    before listing the range."""
    if text is None:
        return None
    lo, sep, hi = text.partition("-")
    try:
        lo, hi = (int(lo), int(hi)) if sep else (int(text), int(text))
    except ValueError:
        raise InvalidSetLiteral(f"malformed fold range: {text!r}") from None
    if lo > hi:
        raise InvalidSetLiteral(f"malformed fold range: {text!r} runs backwards")
    return range(lo, hi + 1)


def _cmd_compute(args) -> int:
    a = parse_set_literal(args.set)
    engine = sumset_naive if args.engine == "naive" else sumset_layered
    result = engine(a, args.h, SumsetKind(args.kind))
    if args.json:
        sys.stdout.write(
            canonical_json(
                {
                    "set": a.canonical(),
                    "h": args.h,
                    "kind": result.kind.value,
                    "engine": args.engine,
                    "values": list(result.values),
                    "cardinality": result.cardinality,
                }
            )
        )
    else:
        print(",".join(str(v) for v in result.values))
        print(f"cardinality {result.cardinality}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    a = parse_set_literal(args.set)
    report = audit(a, args.h)
    if args.json:
        sys.stdout.write(canonical_json(report.to_json_dict()))
    else:
        print(f"set {report.set}")
        print(f"h {report.h}")
        print(f"cardinality {report.cardinality}")
        print(f"restricted_cardinality {report.restricted_cardinality}")
        for entry in report.bounds:
            print(f"{entry.id} bound={entry.value} {entry.status.value}")
    return EXIT_COUNTEREXAMPLE if report.has_conjecture_violation else EXIT_OK


def _cmd_witness(args) -> int:
    a = parse_set_literal(args.set)
    h = args.h
    zero = a.elements[0] == 0
    membership = sumset_layered(a, h).values
    families = [s_family(a, h)]
    t = t_family(a, h, zero_in_a=zero, superincreasing=args.superincreasing)
    families.append(t)
    families.extend(t.subfamilies)
    if not zero and h == a.k and a.k >= 3:
        families.append(u_family(a))
    payload = []
    all_ok = True
    for fam in families:
        check = verify_family(fam, membership)
        all_ok = all_ok and check.ok
        payload.append({
            **vars(check), "elements": [e.to_json_dict() for e in fam.elements],
            "ok": check.ok,
        })
    sys.stdout.write(
        canonical_json(
            {
                "set": a.canonical(),
                "h": h,
                "zero_in_a": zero,
                "families": payload,
                "all_ok": all_ok,
            }
        )
    )
    return EXIT_OK if all_ok else EXIT_THEOREM_VIOLATION


def _cmd_classify(args) -> int:
    a = parse_set_literal(args.set)
    cls = classify_extremal(a, args.h)
    if args.json:
        sys.stdout.write(canonical_json(cls.to_json_dict()))
    else:
        if not cls.covered:
            print(f"set {cls.set} h {cls.h}: not covered by a proven inverse theorem")
            print(f"cardinality {cls.cardinality}")
        else:
            print(f"set {cls.set} h {cls.h}: theorem {cls.theorem}")
            print(f"cardinality {cls.cardinality} bound {cls.bound}")
            print(f"equality {cls.equality}")
            print(f"family {cls.family} params {cls.params}")
            print(f"consistent {cls.consistent}")
    return EXIT_OK


def _writable(path: str) -> bool:
    """Whether a report can be written to ``path``: a writable file, or a
    new name in a writable directory."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    folder = os.path.dirname(path) or "."
    return os.path.isdir(folder) and os.access(folder, os.W_OK)


def _cmd_scan(args) -> int:
    # a report path that cannot be written fails now, not after the scan
    for flag, path in (("--out", args.out), ("--csv", args.csv)):
        if path is not None and not _writable(path):
            print(f"usage error: {flag} {path!r} cannot be written", file=sys.stderr)
            return EXIT_USAGE
    # one file for both would hold only the JSON, written after the CSV
    if args.out and args.csv and os.path.realpath(args.out) == os.path.realpath(args.csv):
        print(f"usage error: --out and --csv name one file, {args.out!r}", file=sys.stderr)
        return EXIT_USAGE
    mode = parse_mode(args.mode)
    family = SetFamily(args.family or _target(mode.target)[1].family)
    config = ScanConfig(
        k=args.k,
        max_element=args.max_element,
        # TA_Nathanson holds for any set; its scan defaults to positive ones
        family=SetFamily.POSITIVE if family is SetFamily.ANY else family,
        mode=mode,
        h_values=_parse_h_range(args.h),
        jobs=args.jobs,
    )
    try:
        report = scan(config)
    except (TheoremViolation, EngineMismatch) as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_THEOREM_VIOLATION
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(report.csv_rows())
    # one text for --out and --json, built after the CSV rows are freed
    text = report.to_json() if args.out or args.json else None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        print(f"mode {config.mode} k={config.k} family={config.family.value} "
              f"max={config.max_element}")
        print(f"sets_scanned {report.sets_scanned}")
        # each record kind's dicts are built once, for its loop
        print(f"equalities {len(report.records['equalities'])}")
        for rec in report.equalities:
            fam = rec.get("family")
            print(f"  {rec['set']} h={rec['h']} cardinality={rec['cardinality']}"
                  + (f" family={fam}" if fam else ""))
        for rec in report.classification_failures:
            print(
                f"  INVERSE COUNTEREXAMPLE {rec['set']} h={rec['h']} "
                f"cardinality={rec['cardinality']} bound={rec['bound']} "
                f"naive_cardinality={rec['naive_cardinality']} "
                f"expected_family={rec['expected_family']}"
            )
        for rec in report.conjecture_counterexamples:
            print(
                f"  BOUND COUNTEREXAMPLE {rec['set']} h={rec['h']} "
                f"cardinality={rec['cardinality']} < bound={rec['bound']} "
                f"naive_cardinality={rec['naive_cardinality']}"
            )
        print(f"wall_time {report.wall_time:.3f}s")
    return EXIT_OK if report.clean else EXIT_COUNTEREXAMPLE


_COMMANDS = {
    "compute": _cmd_compute,
    "bound": _cmd_bound,
    "witness": _cmd_witness,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early, as ``| head`` does; stdout now points at
        # devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InvalidSetLiteral as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SumsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
