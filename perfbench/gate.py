"""Correctness gate: every output of a timed call is checked here.

A call passes when

* ``decide`` exits with the code its verdict tag maps to,
* an Unstable certificate re-verifies with ``verify_certificate`` on the
  instance parsed afresh from its file,
* ``crosscheck`` exits 0 and reports ``"consistent": true``,
* a verdict's own certified bounds imply its tag,
* the verdict agrees with ``reference.json``, recorded with the package as it
  was when the benchmark was introduced.  A decided reference verdict must
  keep its tag, and an exact supremum must keep its value.  A reference that
  was Undetermined may become decided, but its new exact value must lie in
  the reference's certified [lower, upper]; certified intervals must always
  overlap, since both contain the true supremum.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The CLI's documented exit codes for `decide`.
DECIDE_EXIT = {"Stable": 0, "StrictlySemistable": 1, "Unstable": 2, "Undetermined": 3}
DECIDED = ("Stable", "StrictlySemistable", "Unstable")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _bound(text: str | None) -> Fraction | None:
    if text is None or text == "-inf":
        return None
    from isoflag.scalars import parse_fraction

    return parse_fraction(text)


def _interval(bounds: dict | None) -> tuple[Fraction | None, Fraction | None] | None:
    """(lower, upper) with None for an infinite end, or None without bounds."""
    if not bounds:
        return None
    return _bound(bounds.get("lower")), _bound(bounds.get("upper"))


def _overlap(a, b) -> bool:
    lo = max((x for x in (a[0], b[0]) if x is not None), default=None)
    hi = min((x for x in (a[1], b[1]) if x is not None), default=None)
    return lo is None or hi is None or lo <= hi


def _bounds_fit_tag(tag: str, interval) -> bool:
    """A verdict's own certified bounds must imply its tag: Stable needs a
    negative supremum, StrictlySemistable an exact 0, Unstable a positive
    lower bound, and Undetermined bounds that straddle 0."""
    lo, hi = interval
    if tag == "Stable":
        return hi is not None and hi < 0
    if tag == "StrictlySemistable":
        return lo == hi == 0
    if tag == "Unstable":
        return lo is not None and lo > 0
    return (lo is None or lo <= 0) and hi is not None and hi >= 0


def compare_verdict(ref: dict, out: dict) -> str | None:
    """Reference rule for one verdict; None when it holds."""
    tag, rtag = out["verdict"], ref["verdict"]
    oint = _interval(out.get("bounds"))
    if oint is not None and not _bounds_fit_tag(tag, oint):
        return f"verdict {tag} contradicts its own bounds {out['bounds']}"
    if rtag in DECIDED and tag != rtag:
        return f"verdict {tag} differs from reference {rtag}"
    if "bounds" not in ref:
        return None
    rint = _interval(ref["bounds"])
    if rtag in DECIDED and ref["exact"]:
        if not out.get("exact") or oint != rint:
            return f"exact supremum {out.get('bounds')} differs from reference {ref['bounds']}"
        return None
    if oint is None:
        return None if rtag in DECIDED else "a decision from Undetermined carries no bounds"
    if out.get("exact") and oint[0] == oint[1]:
        value = oint[0]
        if not _overlap((value, value), rint):
            return f"exact value {value} outside the reference bounds {ref['bounds']}"
        return None
    if not _overlap(oint, rint):
        return f"bounds {out['bounds']} do not meet the reference bounds {ref['bounds']}"
    return None


def _certificate_from_json(obj: dict):
    from isoflag.higgs import Certificate, ExtensionLine
    from isoflag.io import scalar_from_json, subspace_from_json, vector_from_json
    from isoflag.scalars import parse_fraction

    witness = None
    if "witness" in obj:
        witness = subspace_from_json(obj["witness"], "/witness")
    elif "witness_line" in obj:
        line = obj["witness_line"]
        base = vector_from_json(line["base"], "/base")
        witness = ExtensionLine(len(base), base,
                                vector_from_json(line["twist"], "/twist"),
                                scalar_from_json(line["delta"], "/delta"))
    return Certificate(
        obj["kind"],
        span=subspace_from_json(obj["span"], "/span") if "span" in obj else None,
        witness=witness,
        coisotropic=subspace_from_json(obj["coisotropic"], "/coisotropic")
        if "coisotropic" in obj else None,
        pardeg=parse_fraction(obj["pardeg"]) if "pardeg" in obj else None,
    )


def _certificate_verifies(out: dict, path: Path) -> bool:
    from isoflag.higgs import Verdict, verify_certificate
    from isoflag.io import parse_instance_text

    inst = parse_instance_text(path.read_text(encoding="utf-8"))
    verdict = Verdict("Unstable", _certificate_from_json(out["certificate"]))
    return verify_certificate(verdict, inst.higgs, inst.flags, inst.weight)


def check_decide(ref: dict, rc, stdout: str, path: Path) -> str | None:
    try:
        out = json.loads(stdout)
        tag = out["verdict"]
    except (ValueError, KeyError, TypeError):
        return f"unreadable output (exit {rc})"
    if rc != DECIDE_EXIT.get(tag):
        return f"exit code {rc} does not match verdict {tag}"
    if tag == "Unstable":
        if "certificate" not in out:
            return "Unstable verdict without a certificate"
        if not _certificate_verifies(out, path):
            return "Unstable certificate failed verify_certificate"
    return compare_verdict(ref["decide"], out)


def check_crosscheck(ref: dict, rc, stdout: str) -> str | None:
    try:
        out = json.loads(stdout)
        results = out["results"]
    except (ValueError, KeyError, TypeError):
        return f"unreadable output (exit {rc})"
    if rc != 0 or out.get("inconsistencies") != 0 or len(results) != 1:
        return f"crosscheck reported inconsistencies (exit {rc})"
    if results[0].get("consistent") is not True:
        return "crosscheck result is not consistent: " + str(results[0].get("reason"))
    rtag = ref["crosscheck"]["verdict"]
    if rtag in DECIDED and results[0]["verdict"] != rtag:
        return f"verdict {results[0]['verdict']} differs from reference {rtag}"
    return None


class Gate:
    """Checks call outputs against the reference, once per distinct output."""

    def __init__(self, command: str, reference: dict):
        self.command = command
        self.reference = reference
        self._seen: dict[tuple, str | None] = {}

    def check(self, item, digest: str, rc, stdout: str) -> str | None:
        key = (item.key, rc, stdout)
        if key not in self._seen:
            self._seen[key] = self._check(item, digest, rc, stdout)
        return self._seen[key]

    def _check(self, item, digest: str, rc, stdout: str) -> str | None:
        ref = self.reference.get(item.key)
        if ref is None:
            return f"{item.key} has no reference"
        if ref["sha256"] != digest:
            return f"{item.key} is not the instance the reference was recorded on"
        if self.command == "decide":
            return check_decide(ref, rc, stdout, item.path)
        return check_crosscheck(ref, rc, stdout)
