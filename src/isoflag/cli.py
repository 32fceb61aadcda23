"""Command-line surface.

Commands: validate, regions, decide, hm, crosscheck, gen, batch.  Output is
machine-readable JSON (CSV for batch reports on request) with a stable field
order.  Exit codes: decide maps its verdict to 0/1/2/3; other commands return
0 on success; every command returns 64 on usage errors (among them a gen
shape with --q below 2, --s below 3 or --s below q + 2), 65 on data errors
(a batch too, serial or parallel, after reporting the good files, with one
line per bad file naming it), 70 on
internal errors (a failed self-check or any other uncaught exception,
which is a bug, not bad input; crosscheck too, after its report, when it
finds an inconsistency, a disagreement between two of isoflag's own
routes) and 74 on output errors: standard output
closed before the output is written (as in `isoflag crosscheck FILE |
head -3`), or a batch --csv path that cannot be written (a missing
directory, or a directory itself).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

from .errors import InputError, InternalConsistencyError, ParseError
from .flags import validate_flag
from .higgs import EXIT_CODES, decide_stability, generate_stable_instance
from .hmgit import INFINITE, certificate_oneps, consistency_check, hm_total
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
IO_EXIT = 74  # sysexits EX_IOERR; 1 is a verdict code


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process and shared by every main call (parsing leaves
    it unchanged).  A parser per call took a measurable share of a short
    call and left a reference cycle behind for the garbage collector."""
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


def _parse_file(path: str, parse):
    """parse(text of the file); a parse error names the file before the
    field's JSON pointer."""
    text = _read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}:{exc.path}", exc.message) from None


def _read_instance(path: str) -> InstanceFile:
    return _parse_file(path, parse_instance_text)


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
    lam = _parse_file(args.oneps, parse_oneps_text)
    audit: list = []
    mu = hm_total(lam, inst.higgs, inst.flags, inst.weight, audit=audit)
    _emit({
        "mu": "+inf" if mu is INFINITE else mu,
        "N": inst.weight.n,
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
        res = consistency_check(inst.higgs, inst.flags, inst.weight, seed=args.seed)
        res["instance"] = f.stem
        results.append(res)
        if not res["consistent"]:
            inconsistencies += 1
    _emit({
        "instances": len(results),
        "inconsistencies": inconsistencies,
        "results": results,
    })
    # two of isoflag's own routes disagree: a bug, not bad input
    return 0 if inconsistencies == 0 else INTERNAL_EXIT


def _cmd_gen(args) -> int:
    if args.q < 2:  # and s - 2 >= q, so that the generated rows can span C^q
        raise _UsageError(f"--q must be at least 2, got {args.q}")
    if args.s < 3:
        raise _UsageError(f"--s must be at least 3, got {args.s}")
    if args.s < args.q + 2:
        raise _UsageError(f"--s must be at least --q + 2 = {args.q + 2}, got {args.s}")
    w = random_weight(args.q, args.s, args.seed, region=args.region)
    fs = random_flag_system(args.q, args.s, args.seed)
    higgs = generate_stable_instance(args.q, args.s, fs, w, seed=args.seed)
    inst = InstanceFile(w, fs, higgs, seed=args.seed,
                        metadata={"generator": "spanning-rows"})
    print(serialize_instance(inst))
    return 0


def _decide_one_path(path_str: str) -> dict:
    """Worker for batch mode; module-level so it pickles.  A file that is
    bad input gives {"error": message naming the file}, so that it does not
    lose the other files' rows."""
    try:
        inst = _read_instance(path_str)
        start = time.perf_counter()
        verdict = decide_stability(inst.higgs, inst.flags, inst.weight,
                                   seed=inst.seed or 0)
        elapsed = time.perf_counter() - start
    except ParseError as exc:
        return {"error": str(exc)}
    except InputError as exc:
        return {"error": f"{path_str}: {exc}"}
    mu = ""
    if verdict.tag == "Unstable" and verdict.certificate is not None:
        # A fresh certificate's span is isotropic and its coisotropic
        # subspace is W^perp with W isotropic, so both shapes accept them:
        # an InputError here is a bug, not bad data.
        try:
            packaged = certificate_oneps(verdict.certificate, inst.flags, inst.weight)
        except InputError as exc:
            raise InternalConsistencyError(
                f"{path_str}: certificate rejected by its destabilizer: {exc}") from exc
        if packaged is not None:
            mu = str(packaged[1])
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
    if args.jobs < 1:
        # a count below 1 names no worker; it is not a request to run serially
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and len(files) > 1:
        # imported here: the pool module is a fifth of the CLI's import time,
        # and only a parallel batch needs it
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method forks every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(files))) as pool:
            raw = list(pool.map(_decide_one_path, files))
    else:
        raw = [_decide_one_path(f) for f in files]
    errors = [r["error"] for r in raw if "error" in r]
    for message in errors:
        print(f"data error: {message}", file=sys.stderr)
    report = build_report([ReportRow(**r) for r in raw if "error" not in r], len(errors))
    _emit(report.to_json())
    if args.csv:
        try:
            Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
        except OSError as exc:  # an I/O fault, not a bug
            print(f"io error: cannot write {args.csv}: {exc.strerror or exc}", file=sys.stderr)
            return IO_EXIT
    return DATA_EXIT if errors else 0


_COMMANDS = {
    "validate": _cmd_validate,
    "regions": _cmd_regions,
    "decide": _cmd_decide,
    "hm": _cmd_hm,
    "crosscheck": _cmd_crosscheck,
    "gen": _cmd_gen,
    "batch": _cmd_batch,
}


def _quiet_stdout() -> None:
    """Point stdout's file descriptor at devnull, so that the interpreter's
    flush of stdout at exit does not fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        _quiet_stdout()
        print("io error: standard output was closed", file=sys.stderr)
        return IO_EXIT
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, InputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except Exception as exc:  # a crash must not exit with a verdict's code
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
