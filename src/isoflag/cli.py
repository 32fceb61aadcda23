"""Command-line surface.

Commands: validate, regions, decide, hm, crosscheck, gen, batch.  Output is
machine-readable JSON (CSV for batch reports on request) with a stable field
order.  Exit codes: decide maps its verdict to 0/1/2/3; other commands return
0 on success; every command returns 64 on usage errors, 65 on data errors and
70 on internal errors (a failed self-check, which is a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .errors import InputError, InternalConsistencyError, ParseError
from .flags import validate_flag
from .higgs import EXIT_CODES, decide_stability, generate_stable_instance
from .hmgit import INFINITE, build_linearization, consistency_check, destabilizing_oneps, hm_total
from .io import (
    InstanceFile,
    Report,
    ReportRow,
    build_report,
    parse_instance_text,
    parse_oneps_text,
    serialize_instance,
    verdict_to_json,
)
from .randgen import random_flag_system, random_weight
from .scalars import format_fraction
from .weights import (
    compactness_criterion,
    correspondence_caveats,
    j_interval,
    monodromy_and_toledo,
    region_membership,
    validate_weight,
    weight_stats,
)

USAGE_EXIT = 64
DATA_EXIT = 65
INTERNAL_EXIT = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="isoflag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("file")

    p = sub.add_parser("regions", help="region membership and degree bookkeeping")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=-1)

    p = sub.add_parser("decide", help="decide stability; exit code is the verdict")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("hm", help="Hilbert-Mumford weight of a one-parameter subgroup")
    p.add_argument("file")
    p.add_argument("--oneps", required=True)

    p = sub.add_parser("crosscheck", help="verdict vs Hilbert-Mumford consistency")
    p.add_argument("path")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate a stable instance")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--region", choices=["W", "Wprime"], default="W")

    p = sub.add_parser("batch", help="decide a directory of instances")
    p.add_argument("dir")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv")
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc}") from None


def _read_instance(path: str) -> InstanceFile:
    return parse_instance_text(_read_text(path))


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    inst = _read_instance(args.file)
    weight_violations = validate_weight(inst.weight)
    flag_violations = []
    for j, flag in enumerate(inst.flags.flags):
        for v in validate_flag(flag):
            flag_violations.append(f"flag {j + 1}: {v}")
    report = {
        "weight_violations": weight_violations,
        "flag_violations": flag_violations,
        "caveats": correspondence_caveats(inst.weight),
        "valid": not weight_violations and not flag_violations,
    }
    _emit(report)
    return 0 if report["valid"] else DATA_EXIT


def _cmd_regions(args) -> int:
    inst = _read_instance(args.file)
    w = inst.weight
    stats = weight_stats(w)
    membership = region_membership(w)
    interval = j_interval(w)
    compact = compactness_criterion(w, args.degree)
    mono = monodromy_and_toledo(w, args.degree)
    _emit({
        "in_W": membership.in_w,
        "in_W_prime": membership.in_w_prime,
        "abs_alpha": format_fraction(stats.abs_alpha),
        "abs_beta": format_fraction(stats.abs_beta),
        "abs_beta1": format_fraction(stats.abs_beta1),
        "j_interval": {
            "lower": format_fraction(interval.lower),
            "upper": format_fraction(interval.upper),
            "contained_integer": interval.contained_integer,
        },
        "compactness": {
            "eta_forced_zero": compact.eta_forced_zero,
            "failing_condition": compact.failing_condition,
        },
        "toledo": format_fraction(mono.toledo),
        "all_unit_modulus": mono.all_unit_modulus,
    })
    return 0


def _cmd_decide(args) -> int:
    inst = _read_instance(args.file)
    verdict = decide_stability(inst.higgs, inst.flags, inst.weight, seed=args.seed)
    _emit(verdict_to_json(verdict))
    return EXIT_CODES[verdict.tag]


def _cmd_hm(args) -> int:
    inst = _read_instance(args.file)
    lam = parse_oneps_text(_read_text(args.oneps))
    lin = build_linearization(inst.weight)
    audit: list = []
    mu = hm_total(lam, inst.higgs, inst.flags, lin, inst.weight, audit=audit)
    _emit({
        "mu": "+inf" if mu is INFINITE else mu,
        "N": lin.n,
        "summands": audit,
    })
    return 0


def _cmd_crosscheck(args) -> int:
    target = Path(args.path)
    files = sorted(target.glob("*.instance.json")) if target.is_dir() else [target]
    results = []
    inconsistencies = 0
    for f in files:
        inst = _read_instance(str(f))
        res = consistency_check(inst.higgs, inst.flags, inst.weight,
                                bound=args.bound, seed=args.seed)
        res["instance"] = f.stem
        results.append(res)
        if not res["consistent"]:
            inconsistencies += 1
    _emit({
        "instances": len(results),
        "inconsistencies": inconsistencies,
        "results": results,
    })
    return 0 if inconsistencies == 0 else DATA_EXIT


def _cmd_gen(args) -> int:
    w = random_weight(args.q, args.s, args.seed, region=args.region)
    fs = random_flag_system(args.q, args.s, args.seed)
    higgs = generate_stable_instance(args.q, args.s, fs, w, seed=args.seed)
    inst = InstanceFile(w, fs, higgs, seed=args.seed,
                        metadata={"generator": "spanning-rows"})
    print(serialize_instance(inst))
    return 0


def _decide_one_path(path_str: str) -> dict:
    """Worker for batch mode; module-level so it pickles."""
    inst = _read_instance(path_str)
    start = time.perf_counter()
    verdict = decide_stability(inst.higgs, inst.flags, inst.weight,
                               seed=inst.seed or 0)
    elapsed = time.perf_counter() - start
    mu = ""
    if verdict.tag == "Unstable" and verdict.certificate is not None:
        cert = verdict.certificate
        lin = build_linearization(inst.weight)
        try:
            if cert.kind == "isotropic_span":
                _, mu_val = destabilizing_oneps("shape1", cert.span, inst.flags, lin, inst.weight)
                mu = str(mu_val)
            elif cert.coisotropic is not None:
                _, mu_val = destabilizing_oneps("shape2", cert.coisotropic, inst.flags, lin, inst.weight)
                mu = str(mu_val)
        except InputError:
            mu = ""
    return {
        "instance_id": Path(path_str).stem,
        "q": inst.weight.q,
        "s": inst.weight.s,
        "verdict": verdict.tag,
        "certificate_kind": verdict.certificate.kind if verdict.certificate else "",
        "lower": "" if verdict.lower is None else format_fraction(verdict.lower),
        "upper": "" if verdict.upper is None else format_fraction(verdict.upper),
        "mu": mu,
        "wall_time": elapsed,
    }


def _cmd_batch(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise ParseError(args.dir, "not a directory")
    files = sorted(str(p) for p in directory.glob("*.instance.json"))
    jobs = os.environ.get("ISOFLAG_JOBS", args.jobs)
    try:
        jobs = int(jobs)
    except ValueError:
        raise _UsageError(f"ISOFLAG_JOBS must be an integer, got {jobs!r}") from None
    if jobs > 1 and len(files) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_decide_one_path, files))
    else:
        raw = [_decide_one_path(f) for f in files]
    rows = [ReportRow(**r) for r in raw]
    report = build_report(rows)
    _emit(report.to_json())
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "regions": _cmd_regions,
    "decide": _cmd_decide,
    "hm": _cmd_hm,
    "crosscheck": _cmd_crosscheck,
    "gen": _cmd_gen,
    "batch": _cmd_batch,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, InputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
