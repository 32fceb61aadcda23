"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

1. Tracing does not change outputs: on a few narrow and crosscheck instances
   the CLI's verdict JSON and exit code are byte-identical with and without
   the tracer installed.
2. Every wrapped name fires at least once in a traced run (set-up included).

It also checks that no isoflag module still binds an unwrapped original
while the tracer is installed, that uninstalling restores every binding, and
that
BENCHMARK.json lists exactly the metrics run.py reports, with the same units.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _bindings() -> dict:
    """Identity snapshot of every isoflag module namespace and class dict."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "isoflag" or name.startswith("isoflag."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for k, v in vars(value).items():
                        snap[(name, attr, k)] = v
    return snap


def _instances():
    """Two narrow instances, and one crosscheck instance per generation mode
    (the degenerate modes give Unstable verdicts of both certificate kinds)."""
    narrow = corpus.WORKLOADS["narrow"]
    picked = [("decide", spec) for spec in corpus.choose(narrow, 0)[:2]]
    cls = corpus.WORKLOADS["crosscheck"].classes[0]
    picked += [("crosscheck", (cls, seed)) for seed in (0, 7, 8, 9)]
    directory = corpus.WORK_DIR / "selftest"
    out = []
    for command, spec in picked:
        (item, _), = corpus.write_corpus([spec], directory)
        out.append((command, item))
    return out


def main() -> int:
    problems = []
    cli = corpus.import_isoflag()
    cases = _instances()
    before = _bindings()

    plain = [run.invoke(cli, command, item)[:2] for command, item in cases]
    tracer = tracing.Tracer()
    with tracer:
        originals = {id(original) for _, _, original in tracer._patches}
        unpatched = sorted(f"{name}.{attr}" for (name, attr, *rest), value in _bindings().items()
                           if not rest and id(value) in originals)
        if unpatched:
            problems.append(f"bindings left unwrapped: {unpatched}")
        tracer.op = tracing.SETUP_OP
        corpus.write_corpus([(corpus.WORKLOADS["narrow"].classes[0], 0)],
                            corpus.WORK_DIR / "selftest")
        traced = []
        for k, (command, item) in enumerate(cases):
            tracer.begin_op(k)
            traced.append(run.invoke(cli, command, item)[:2])
            tracer.end_op()

    for (command, item), a, b in zip(cases, plain, traced):
        if a != b:
            problems.append(f"{command} {item.key}: traced output differs from untraced")
    expected = set(tracing.span_names()) | set(tracing.SCALAR_COUNTERS)
    missing = sorted(expected - tracer.fired())
    if missing:
        problems.append(f"wrapped names that never fired: {missing}")
    after = _bindings()
    changed = sorted(str(k) for k in before if after.get(k) is not before[k])
    if changed:
        problems.append(f"bindings not restored: {changed[:5]}")

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end does not match run.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer does not match run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(corpus.WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match corpus.py")

    for p in problems:
        print("FAIL", p)
    print(f"{len(cases)} instances, {len(expected)} wrapped names, "
          f"{len(tracer.span_name)} spans: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
