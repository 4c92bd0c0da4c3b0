"""Command-line front end: verify identities, enumerate objects, trace moves.

Exit codes: 0 all good, 1 at least one check failed (a builder that raises
fails its own check, and the other checks still report), 2 usage error,
an --output path that cannot be written included.  Output is deterministic
for a fixed invocation; the text and CSV report formats omit timings so
repeated runs are byte-identical.  JSON adds each check's timings in whole
milliseconds: millis for the whole check, lhs_ms and rhs_ms for each side's
build.  A run builds a side that several checks share once, in the first of
them; each later one reads only its own view of it (x = q^t, x = -1 or one
x-slice), about 0 ms, and names the check that built it in lhs_from or
rhs_from, keys present only then.  A shared builder that raises fails every
check that uses it, with its error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

from .identities import PROFILES, REGISTRY, CheckReport, run_many
from .partitions import Partition, iter_gap_exact
from .rafts import (
    RaftedPartition,
    compose_with_trace,
    decompose_with_trace,
    enumerate_minimal,
    enumerate_rafted,
)

PROFILE_ENV = "QRAFTS_PROFILE"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrafts",
        description="verify q-series identities built on raft moves over "
                    "partitions into distinct parts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity checks")
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--identity", action="append", metavar="NAME",
                       help="check name; repeat for several")
    which.add_argument("--all", action="store_true", help="run every check")
    p_verify.add_argument("--order", type=int, metavar="N",
                          help="q-truncation order (overrides --profile)")
    p_verify.add_argument("--x-order", type=int, metavar="M", dest="x_order",
                          help="x-truncation for bivariate checks (default: q order)")
    p_verify.add_argument("--profile", choices=sorted(PROFILES),
                          help=f"named order: "
                               f"{', '.join(f'{k}={v}' for k, v in PROFILES.items())} "
                               f"(default standard, or ${PROFILE_ENV})")
    p_verify.add_argument("--format", choices=("text", "json", "csv"),
                          default="text",
                          help="json adds per-check timings in ms: millis for the "
                               "check, lhs_ms and rhs_ms for each side's build; a "
                               "side reused from an earlier check reads only its "
                               "view (x = q^t, x = -1 or one x-slice), about 0 ms, "
                               "and names that check in lhs_from/rhs_from "
                               "(default: text)")
    p_verify.add_argument("--output", metavar="PATH",
                          help="write the report here instead of stdout")

    p_list = sub.add_parser("list", help="list available checks")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    p_enum = sub.add_parser("enumerate", help="enumerate partition families")
    p_enum.add_argument("--target", required=True, metavar="WHAT",
                        help="distinct, <d>-distinct, minimal-rafted, or rafted")
    p_enum.add_argument("--k", type=int, metavar="K",
                        help="raft count for the rafted targets")
    bound = p_enum.add_mutually_exclusive_group(required=True)
    bound.add_argument("--weight", type=int, metavar="W", help="exact weight")
    bound.add_argument("--max-weight", type=int, metavar="N", dest="max_weight",
                       help="all weights up to N")
    p_enum.add_argument("--counts", action="store_true",
                        help="emit weight,count CSV instead of objects")
    p_enum.add_argument("--output", metavar="PATH",
                        help="write here instead of stdout")

    p_trace = sub.add_parser("trace", help="decompose a rafted partition and replay it")
    p_trace.add_argument("partition", metavar="PARTITION",
                         help='bracketed text, e.g. "1,[2,3],5"')
    return parser


def _resolve_order(args, parser) -> int:
    for flag, value in (("--order", args.order), ("--x-order", args.x_order)):
        if value is not None and value < 0:
            parser.error(f"{flag} must be >= 0")
    if args.order is not None:
        return args.order
    name = args.profile
    if name is None:
        name = os.environ.get(PROFILE_ENV, "standard")
        if name not in PROFILES:
            parser.error(f"${PROFILE_ENV} must be one of {sorted(PROFILES)}, got {name!r}")
    return PROFILES[name]


def _report_text(reports: list[CheckReport]) -> str:
    width = max((len(r.name) for r in reports), default=0)
    lines = []
    for r in reports:
        scope = f"q<={r.q_trunc}"
        if r.x_trunc is not None:
            scope += f" x<={r.x_trunc}"
        if r.passed:
            lines.append(f"ok    {r.name:<{width}}  {scope}")
        elif r.error is not None:
            lines.append(f"FAIL  {r.name:<{width}}  {scope}  "
                         f"error: {r.error[0]}: {r.error[1]}")
        else:
            fd = r.first_diff
            at = f"q^{fd.q}" if fd.x is None else f"x^{fd.x} q^{fd.q}"
            lines.append(f"FAIL  {r.name:<{width}}  {scope}  "
                         f"first diff at {at}: lhs={fd.lhs} rhs={fd.rhs}")
    lines.append(f"passed {sum(r.passed for r in reports)}/{len(reports)}")
    return "\n".join(lines) + "\n"


def _report_json(reports: list[CheckReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"


def _report_csv(reports: list[CheckReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "passed", "first_diff_q", "first_diff_x"])
    for r in reports:
        fd = r.first_diff
        writer.writerow([
            r.name,
            "true" if r.passed else "false",
            "" if fd is None else fd.q,
            "" if fd is None or fd.x is None else fd.x,
        ])
    return buf.getvalue()


def _emit(text: str, path: str | None) -> bool:
    """Write to stdout or ``path``; False, after an error message, if it cannot."""
    if path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"qrafts: error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_verify(args, parser) -> int:
    order = _resolve_order(args, parser)
    names = list(REGISTRY) if args.all else args.identity
    try:
        reports = run_many(names, order, args.x_order)
    except ValueError as exc:
        print(f"qrafts: error: {exc}", file=sys.stderr)
        return 2
    render = {"text": _report_text, "json": _report_json, "csv": _report_csv}
    if not _emit(render[args.format](reports), args.output):
        return 2
    return 0 if all(r.passed for r in reports) else 1


def _cmd_list(args) -> int:
    if args.format == "json":
        rows = [{"name": c.name,
                 "bivariate": c.bivariate,
                 "description": c.description}
                for c in REGISTRY.values()]
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        width = max(len(n) for n in REGISTRY)
        for c in REGISTRY.values():
            kind = "x,q" if c.bivariate else "q  "
            sys.stdout.write(f"{c.name:<{width}}  {kind}  {c.description}\n")
    return 0


def _iter_target(args, parser, weights: range):
    """Yield the family's objects of these weights, weight then lex order."""
    target = args.target
    if target == "distinct" or target.endswith("-distinct"):
        if target == "distinct":
            gap = 1
        else:
            head = target[: -len("-distinct")]
            if not re.fullmatch("[0-9]+", head) or int(head) < 1:
                parser.error(f"bad target {target!r}: want <d>-distinct with d >= 1")
            gap = int(head)
        if args.k is not None:
            parser.error(f"--k does not apply to target {target!r}")
        for w in weights:
            for parts in iter_gap_exact(w, gap):
                yield Partition(parts)
        return

    if target in ("minimal-rafted", "rafted"):
        if args.k is None or args.k < 1:
            parser.error(f"target {target!r} needs --k >= 1")
        it = enumerate_minimal if target == "minimal-rafted" else enumerate_rafted
        yield from it(args.k, weights[-1], min_weight=weights[0])
        return

    parser.error(f"unknown target {target!r}")


def _cmd_enumerate(args, parser) -> int:
    top = args.max_weight if args.weight is None else args.weight
    if top < 0:
        parser.error("weights must be >= 0")
    weights = range(0 if args.weight is None else top, top + 1)
    objects = _iter_target(args, parser, weights)
    if args.counts:
        counts = dict.fromkeys(weights, 0)
        for obj in objects:
            counts[obj.weight] += 1
        text = "weight,count\n" + "".join(f"{w},{n}\n" for w, n in counts.items())
    else:
        text = "".join(f"{obj}\n" for obj in objects)
    return 0 if _emit(text, args.output) else 2


def _eta_text(eta) -> str:
    return "(" + ", ".join(str(e) for e in eta.parts) + ")"


def _cmd_trace(args) -> int:
    try:
        start = RaftedPartition.parse(args.partition)
    except ValueError as exc:
        print(f"qrafts: error: {exc}", file=sys.stderr)
        return 2
    beta, eta, moves = decompose_with_trace(start)
    out = [f"input: {start}"]
    for before, raft, after in moves:
        out.append(f"{before}  --bwd(raft={raft})-->  {after}")
    out.append(f"beta: {beta}")
    out.append(f"eta: {_eta_text(eta)}")
    rebuilt, fwd_moves = compose_with_trace(beta, eta)
    for before, raft, after in fwd_moves:
        out.append(f"{before}  --fwd(raft={raft})-->  {after}")
    out.append("roundtrip: ok" if rebuilt == start else "roundtrip: MISMATCH")
    sys.stdout.write("\n".join(out) + "\n")
    return 0 if rebuilt == start else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "enumerate":
        return _cmd_enumerate(args, parser)
    return _cmd_trace(args)


if __name__ == "__main__":
    sys.exit(main())
