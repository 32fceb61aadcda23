"""Record the reference verdicts the correctness gate compares against.

    python3 perfbench/record_reference.py > perfbench/reference.json

Runs every pool instance of every workload once through the CLI and keeps
its verdict and bounds (or, for crosscheck, its verdict) with the digest of
the instance.  The reference pins the outputs of the package as it was when
the benchmark was introduced; re-recording it would let a changed verdict
pass, so do it only when the instances themselves must change, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import corpus  # noqa: E402
from run import invoke  # noqa: E402


def main() -> int:
    cli = corpus.import_isoflag()
    directory = corpus.WORK_DIR / "reference"
    reference = {}
    for workload in corpus.WORKLOADS.values():
        for item, text in corpus.write_corpus(corpus.pool_specs(workload), directory):
            rc, stdout, start, end = invoke(cli, workload.command, item)
            out = json.loads(stdout)
            entry = {"sha256": corpus.canonical_digest(text)}
            if workload.command == "decide":
                entry["decide"] = {k: out[k] for k in ("verdict", "exact", "bounds") if k in out}
            else:
                res = out["results"][0]
                entry["crosscheck"] = {"verdict": res["verdict"], "consistent": res["consistent"]}
            reference[item.key] = entry
            print(f"{workload.name} {item.key} exit={rc} {end - start:.3f}s", file=sys.stderr)
    print(json.dumps(reference, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
