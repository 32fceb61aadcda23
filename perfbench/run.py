"""isoflag decision benchmark.

    python3 perfbench/run.py --workload narrow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client, closed loop: each call to ``isoflag.cli.main`` starts when the
previous one has returned.  ``narrow`` and ``wide`` run ``decide FILE --seed
n`` and ``crosscheck`` runs ``crosscheck FILE``, on a corpus written to files
during set-up, so every call parses its own instance.  An untraced run sets
up and measures in PARTS fresh processes in turn, each taking its share of
the corpus in whole passes.  Timings are scaled to a reference machine speed
(speed.py); the report also gives them as measured.

With ``--trace 0`` the last line of output is the end-to-end result; with
``--trace 1`` it carries the per-layer metrics of the traced passes (see
tracing.py).  The line before it is a report: the corpus digest, the workload
properties and the verdict mix.  Every output is checked by gate.py.
README.md explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import corpus  # noqa: E402
import gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

if not (corpus.SRC_DIR / "isoflag" / "__init__.py").is_file():
    sys.exit(f"isoflag sources not found under {corpus.SRC_DIR}")

# Untraced runs measure in this many fresh processes, one after another: the
# speed of a process depends on its memory layout, which varies from process
# to process, and the parts average that out.
PARTS = 4
SPANS_DIR = BENCH_DIR / "_out"

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (metric, span, field, unit).  Fields are summed over the
# spans inside timed calls and divided by the number of calls, except for the
# set-up layers, which are divided by the number of generated instances.
# Times are scaled to the reference speed like the end-to-end ones.
_CALLS_AND_SELF = (
    "linalg.rref", "linalg.meet_join", "linalg.isotropy_classify",
    "linalg.orthocomplement", "linalg.Subspace.from_vectors", "linalg.Subspace.contains",
    "flags.IsotropicFlag.profile", "flags.IsotropicFlag.intersect_piece",
    "flags.pardeg_subspace", "flags.validate_flag",
    "weights.require_valid",
    "higgs.line_oracle", "higgs.verify_certificate",
    "hmgit.consistency_check", "hmgit.bounded_destabilizer_search",
    "hmgit.destabilizing_oneps", "hmgit.hm_total",
)
SPAN_METRICS = (
    [(f"{s}.calls", s, "calls", "calls/op") for s in _CALLS_AND_SELF]
    + [(f"{s}.self_s", s, "self_s", "s/op") for s in _CALLS_AND_SELF]
    + [(f"{s}.calls", s, "calls", "calls/op") for s in ("linalg.kernel_basis", "linalg.invert_matrix")]
    + [(f"{s}.self_s", s, "self_s", "s/op") for s in (
        "higgs.max_pardeg_isotropic_in", "io.parse_instance_text", "io.verdict_to_json", "cli.main")]
    + [(f"{s}.span_s", s, "span_s", "s/op") for s in (
        "cli.main", "higgs.decide_stability", "higgs.line_oracle",
        "higgs.max_pardeg_isotropic_in", "hmgit.bounded_destabilizer_search")]
)
SETUP_SPAN_METRICS = tuple(
    (f"{s}.self_s", s, "self_s", "s/instance")
    for s in ("io.serialize_instance", "randgen.random_instance")
)
OTHER_LAYER_UNITS = {
    **{f"{c}.calls": "calls/op" for c in tracing.SCALAR_COUNTERS},
    "higgs.undetermined_rate": "ratio",
    "higgs.lattice_capped_share": "ratio",
    "higgs.undetermined_gap_mean": "pardeg",
    "trace.overhead_throughput_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    units = {m: u for m, _, _, u in SPAN_METRICS + list(SETUP_SPAN_METRICS)}
    units.update(OTHER_LAYER_UNITS)
    return units


# ---------------------------------------------------------------------------
# calls


def argv_for(command: str, item: corpus.Item) -> list[str]:
    if command == "decide":
        return ["decide", str(item.path), "--seed", str(item.seed)]
    return ["crosscheck", str(item.path)]


def invoke(cli, command: str, item: corpus.Item):
    """One CLI call with its output captured: (exit code, stdout, start, end).
    An exception escaping main is returned in place of the exit code, so the
    gate counts it as a failure instead of the run stopping."""
    out, err = io.StringIO(), io.StringIO()
    argv = argv_for(command, item)
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a verdict
            rc = f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
    return rc, out.getvalue(), start, end


def run_pass(cli, command, items, tracer=None, first_op=0):
    """One pass over the corpus: ([(item index, exit code, stdout, start,
    end)], pass start, pass end)."""
    calls = []
    start = perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.begin_op(first_op + i)
        rc, out, call_start, call_end = invoke(cli, command, item)
        if tracer is not None:
            tracer.end_op()
        calls.append((i, rc, out, call_start, call_end))
    return calls, start, perf_counter()


def verdict_tag(command: str, stdout: str) -> str:
    try:
        out = json.loads(stdout)
        return out["verdict"] if command == "decide" else out["results"][0]["verdict"]
    except (ValueError, KeyError, IndexError, TypeError):
        return "unreadable"


def _calls(passes):
    return [c for calls, _, _ in passes for c in calls]


def _outcomes(workload, items, texts, calls) -> dict:
    """Gate every call; count verdict tags."""
    digests = [corpus.canonical_digest(t) for t in texts]
    checker = gate.Gate(workload.command, gate.load_reference())
    failures, tags = [], {}
    for i, rc, stdout, _, _ in calls:
        reason = checker.check(items[i], digests[i], rc, stdout)
        if reason is not None:
            failures.append(f"{items[i].key}: {reason}")
        tag = verdict_tag(workload.command, stdout)
        tags[tag] = tags.get(tag, 0) + 1
    return {"attempted": len(calls), "failures": failures, "verdicts": tags}


# ---------------------------------------------------------------------------
# untraced runs: one part per child process


def run_part(name: str, seed: int, seconds: float, part: int, parts: int) -> int:
    """Set up in a fresh process, then measure for about seconds/parts.
    The corpus is dealt into ``parts`` subsets; pass j of this part runs
    subset (part + j) % parts, so with several passes every instance is
    timed in several processes.  Prints one JSON line for the parent."""
    workload = corpus.WORKLOADS[name]
    with speed.SpeedProbe() as probe:
        items, texts, setup = corpus.timed_setup(
            workload, seed, corpus.WORK_DIR / name / f"part{part}")
        cli = sys.modules["isoflag.cli"]
        budget = seconds / parts
        passes = []
        # another pass only if it should still end within the budget
        while not passes or sum(b - a for _, a, b in passes) + (passes[-1][2] - passes[-1][1]) <= budget:
            mine = list(range((part + len(passes)) % parts, len(items), parts))
            calls, a, b = run_pass(cli, workload.command, [items[i] for i in mine])
            passes.append(([(mine[k], *rest) for k, *rest in calls], a, b))
    calls = _calls(passes)
    out = {
        "setup": [probe.scaled(*setup), probe.unscaled(*setup)],
        "latencies": [[items[i].key, probe.scaled(a, b), probe.unscaled(a, b)]
                      for i, _, _, a, b in calls],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_factor": probe.factor(-float("inf"), float("inf")),
        "corpus_size": len(items),
        "corpus_sha256": corpus.corpus_digest(texts),
        **_outcomes(workload, items, texts, calls),
    }
    if part == 0:
        out["properties"] = corpus.properties(items)
    print(json.dumps(out))
    return 0


def _child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"benchmark child {args} failed with exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(parts: list[dict], column: int) -> dict:
    """Throughput and median latency from per-instance median latencies, so
    that the corpus mix sets the weights however often each instance ran;
    median set-up time over the parts."""
    per_item: dict[str, list[float]] = {}
    for part in parts:
        for key, *lengths in part["latencies"]:
            per_item.setdefault(key, []).append(lengths[column])
    medians = [statistics.median(v) for v in per_item.values()]
    return {
        "throughput_per_s": len(medians) / sum(medians),
        "latency_p50_ms": statistics.median(medians) * 1000,
        "setup_s": statistics.median(p["setup"][column] for p in parts),
    }


def run_untraced(name: str, seed: int, seconds: float) -> int:
    parts = [_child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--part", f"{k}/{PARTS}"]) for k in range(PARTS)]
    if len({p["corpus_sha256"] for p in parts}) != 1:
        sys.exit("benchmark parts generated different corpora")
    metrics = _summary(parts, 0)
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    failures = [f for p in parts for f in p["failures"]]
    attempted = sum(p["attempted"] for p in parts)
    tags: dict[str, int] = {}
    for p in parts:
        for tag, n in p["verdicts"].items():
            tags[tag] = tags.get(tag, 0) + n
    latencies = [x[1] * 1000 for p in parts for x in p["latencies"]]
    report = {
        "workload": name, "seed": seed,
        "corpus_size": parts[0]["corpus_size"],
        "corpus_sha256": parts[0]["corpus_sha256"],
        **parts[0]["properties"],
        "samples": attempted,
        "verdicts": dict(sorted(tags.items())),
        "undetermined_rate": tags.get("Undetermined", 0) / attempted,
        "failed_share": len(failures) / attempted,
        "failures": sorted(set(failures))[:5],
        "speed_factors": [p["speed_factor"] for p in parts],
        "as_measured": _summary(parts, 1),
    }
    if len(latencies) >= 100:
        report["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[8]
    _emit(report, failures, attempted, metrics, END_TO_END_UNITS)
    return 0


def _emit(report, failures, attempted, metrics, units) -> None:
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


# ---------------------------------------------------------------------------
# traced runs


def per_layer(tracer, n_ops, n_instances, overhead, op_scale, setup_scale) -> dict:
    ops = tracer.aggregate(lambda op: op >= 0)
    setup = tracer.aggregate(lambda op: op == tracing.SETUP_OP)
    values = {m: ops[s][f] / n_ops * (1 if f == "calls" else op_scale)
              for m, s, f, _ in SPAN_METRICS}
    values.update({m: setup[s][f] / n_instances * setup_scale
                   for m, s, f, _ in SETUP_SPAN_METRICS})
    for name, count in zip(tracing.SCALAR_COUNTERS, tracer.op_scalar_counts):
        values[f"{name}.calls"] = count / n_ops
    verdicts = [v for op, v in tracer.kept if op >= 0]
    undetermined = [v for v in verdicts if v.tag == "Undetermined"]
    values["higgs.undetermined_rate"] = len(undetermined) / len(verdicts)
    values["higgs.lattice_capped_share"] = (
        sum(bool(getattr(v, "lattice_capped", False)) for v in verdicts) / len(verdicts))
    values["higgs.undetermined_gap_mean"] = (
        statistics.fmean(float(v.upper - v.lower) for v in undetermined) if undetermined else 0.0)
    values["trace.overhead_throughput_per_s"] = overhead
    return values


def run_traced(name: str, seed: int, seconds: float) -> int:
    """One process.  Untraced and traced passes over the whole corpus
    alternate, so that drift in the machine's speed does not show up as
    tracing overhead."""
    workload = corpus.WORKLOADS[name]
    tracer = tracing.Tracer()
    with speed.SpeedProbe() as probe:
        items, texts, _ = corpus.timed_setup(workload, seed, corpus.WORK_DIR / name / "traced")
        cli = sys.modules["isoflag.cli"]
        with tracer:
            tracer.op = tracing.SETUP_OP
            setup_start = perf_counter()
            corpus.write_corpus(corpus.choose(workload, seed),
                                corpus.WORK_DIR / name / "traced-setup")
            setup_end = perf_counter()
            tracer.op = tracing.OTHER_OP
        untraced, traced = [], []
        while sum(b - a for _, a, b in untraced + traced) < seconds:
            untraced.append(run_pass(cli, workload.command, items))
            with tracer:
                traced.append(run_pass(cli, workload.command, items, tracer,
                                       len(_calls(traced))))

    def throughput(passes):
        return len(_calls(passes)) / sum(probe.scaled(a, b) for _, a, b in passes)

    op_scale = (sum(probe.scaled(a, b) for _, a, b in traced)
                / sum(b - a for _, a, b in traced))
    setup_scale = probe.scaled(setup_start, setup_end) / (setup_end - setup_start)
    metrics = per_layer(tracer, len(_calls(traced)), len(items),
                        throughput(traced) - throughput(untraced), op_scale, setup_scale)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    outcome = _outcomes(workload, items, texts, _calls(untraced + traced))
    report = {
        "workload": name, "seed": seed,
        "corpus_sha256": corpus.corpus_digest(texts),
        "spans_file": str(spans_path.relative_to(BENCH_DIR.parent)),
        "spans": len(tracer.span_name),
        "traced_calls": len(_calls(traced)),
        "verdicts": outcome["verdicts"],
        "failures": sorted(set(outcome["failures"]))[:5],
    }
    _emit(report, outcome["failures"], outcome["attempted"], metrics, per_layer_units())
    return 0


# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Every workload in turn, one table of end-to-end metrics."""
    status = 0
    print(f"{'workload':<11} {'metric':<18} {'value':>14} unit")
    for name in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        rows = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        rows["failed_share"] = (result["failed"] / result["attempted"], "ratio")
        rows["undetermined_rate"] = (report["undetermined_rate"], "ratio")
        if "latency_p90_ms" in report:
            rows["latency_p90_ms"] = (report["latency_p90_ms"], "ms")
        for metric, (value, unit) in rows.items():
            print(f"{name:<11} {metric:<18} {value:>14.6g} {unit}")
        print(f"{name:<11} {'samples':<18} {report['samples']:>14} calls")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", help=argparse.SUPPRESS)   # k/n, set by the parent
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.trace:
        return run_traced(args.workload, args.seed, args.seconds)
    if args.part:
        part, parts = map(int, args.part.split("/"))
        return run_part(args.workload, args.seed, args.seconds, part, parts)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
