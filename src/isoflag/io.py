"""JSON serialization for all value types, plus batch reports.

The only wire format is JSON with decimal rational strings ("p/q" or "p");
floats never appear.  Parsing is strict and keeps a JSON-pointer-style path
for error messages.  serialize(parse(x)) is idempotent: it reproduces the
canonical rendering (reduced fractions, canonical subspace bases).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .errors import ParseError
from .flags import FlagSystem, IsotropicFlag
from .higgs import Certificate, ExtensionLine, HiggsTuple, Verdict
from .linalg import Subspace, Vector
from .scalars import Scalar, format_fraction, parse_fraction
from .weights import Weight


# ---------------------------------------------------------------------------
# scalars and vectors


def scalar_to_json(x: Scalar) -> dict:
    return {"re": format_fraction(x.re), "im": format_fraction(x.im)}


def scalar_from_json(obj: Any, path: str) -> Scalar:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ParseError(path, "expected an object with 're' and 'im'")
    return Scalar(parse_fraction(obj["re"], path + "/re"),
                  parse_fraction(obj["im"], path + "/im"))


def vector_to_json(v: Vector) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(obj: Any, path: str) -> Vector:
    if not isinstance(obj, list):
        raise ParseError(path, "expected an array")
    return tuple(scalar_from_json(x, f"{path}/{i}") for i, x in enumerate(obj))


def matrix_to_json(rows) -> list:
    return [vector_to_json(r) for r in rows]


def matrix_from_json(obj: Any, path: str) -> tuple[Vector, ...]:
    if not isinstance(obj, list):
        raise ParseError(path, "expected an array of rows")
    rows = tuple(vector_from_json(r, f"{path}/{i}") for i, r in enumerate(obj))
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(path, "ragged matrix")
    return rows


# ---------------------------------------------------------------------------
# weights


def weight_to_json(w: Weight) -> dict:
    return {
        "q": w.q,
        "s": w.s,
        "alpha": [format_fraction(a) for a in w.alpha],
        "beta": [[format_fraction(b) for b in row] for row in w.beta],
    }


def weight_from_json(obj: Any, path: str = "/weight") -> Weight:
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    for key in ("q", "s", "alpha", "beta"):
        if key not in obj:
            raise ParseError(path, f"missing field {key!r}")
    q, s = obj["q"], obj["s"]
    if not isinstance(q, int) or not isinstance(s, int):
        raise ParseError(path, "q and s must be integers")
    alpha = obj["alpha"]
    beta = obj["beta"]
    if not isinstance(alpha, list) or len(alpha) != s:
        raise ParseError(path + "/alpha", f"expected {s} entries")
    if not isinstance(beta, list) or len(beta) != s:
        raise ParseError(path + "/beta", f"expected {s} rows")
    alphas = tuple(parse_fraction(a, f"{path}/alpha/{j}") for j, a in enumerate(alpha))
    betas = []
    for j, row in enumerate(beta):
        if not isinstance(row, list) or len(row) != q:
            raise ParseError(f"{path}/beta/{j}", f"expected {q} entries")
        betas.append(tuple(parse_fraction(b, f"{path}/beta/{j}/{i}")
                           for i, b in enumerate(row)))
    return Weight(q, s, alphas, tuple(betas))


# ---------------------------------------------------------------------------
# flags, subspaces, instances


def flag_to_json(f: IsotropicFlag) -> list:
    return matrix_to_json(f.basis)


def flag_from_json(obj: Any, path: str) -> IsotropicFlag:
    rows = matrix_from_json(obj, path)
    if not rows or len(rows) != len(rows[0]):
        raise ParseError(path, "flag basis must be a square matrix")
    return IsotropicFlag(rows)


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient": s.ambient, "rows": matrix_to_json(s.rows)}


def subspace_from_json(obj: Any, path: str) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "rows" not in obj:
        raise ParseError(path, "expected an object with 'ambient' and 'rows'")
    rows = matrix_from_json(obj["rows"], path + "/rows")
    return Subspace.from_vectors(list(rows), obj["ambient"])


@dataclass(frozen=True)
class InstanceFile:
    weight: Weight
    flags: FlagSystem
    higgs: HiggsTuple
    seed: int | None = None
    metadata: dict = field(default_factory=dict)


def instance_to_json(inst: InstanceFile) -> dict:
    out = {
        "weight": weight_to_json(inst.weight),
        "flags": [flag_to_json(f) for f in inst.flags.flags],
        "A": matrix_to_json(inst.higgs.rows),
    }
    if inst.seed is not None:
        out["seed"] = inst.seed
    if inst.metadata:
        out["metadata"] = inst.metadata
    return out


def instance_from_json(obj: Any, path: str = "") -> InstanceFile:
    if not isinstance(obj, dict):
        raise ParseError(path or "/", "expected an object")
    for key in ("weight", "flags", "A"):
        if key not in obj:
            raise ParseError(path or "/", f"missing field {key!r}")
    weight = weight_from_json(obj["weight"], path + "/weight")
    if not isinstance(obj["flags"], list) or len(obj["flags"]) != weight.s:
        raise ParseError(path + "/flags", f"expected {weight.s} flags")
    flags = FlagSystem(tuple(
        flag_from_json(f, f"{path}/flags/{j}") for j, f in enumerate(obj["flags"])
    ))
    if flags.q != weight.q:
        raise ParseError(path + "/flags", "flag dimension does not match weight q")
    rows = matrix_from_json(obj["A"], path + "/A")
    if len(rows) != weight.s - 2:
        raise ParseError(path + "/A", f"expected {weight.s - 2} rows")
    if rows and len(rows[0]) != weight.q:
        raise ParseError(path + "/A", f"rows must have length {weight.q}")
    higgs = HiggsTuple(weight.q, weight.s, rows)
    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ParseError(path + "/seed", "seed must be an integer")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(path + "/metadata", "metadata must be an object")
    return InstanceFile(weight, flags, higgs, seed, metadata)


def parse_instance_text(text: str) -> InstanceFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", f"not valid JSON: {exc}") from None
    return instance_from_json(obj)


def serialize_instance(inst: InstanceFile) -> str:
    return json.dumps(instance_to_json(inst), indent=2)


# ---------------------------------------------------------------------------
# one-parameter subgroups


def oneps_to_json(lam) -> dict:
    return {"l": lam.l, "m": list(lam.m), "basis": matrix_to_json(lam.basis)}


def oneps_from_json(obj: Any, path: str = ""):
    from .hmgit import OnePS

    if not isinstance(obj, dict):
        raise ParseError(path or "/", "expected an object")
    for key in ("l", "m", "basis"):
        if key not in obj:
            raise ParseError(path or "/", f"missing field {key!r}")
    if not isinstance(obj["l"], int):
        raise ParseError(path + "/l", "l must be an integer")
    if not isinstance(obj["m"], list) or not all(isinstance(x, int) for x in obj["m"]):
        raise ParseError(path + "/m", "m must be an array of integers")
    basis = matrix_from_json(obj["basis"], path + "/basis")
    return OnePS(obj["l"], tuple(obj["m"]), basis)


def parse_oneps_text(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", f"not valid JSON: {exc}") from None
    return oneps_from_json(obj)


# ---------------------------------------------------------------------------
# verdicts and certificates


def _bound_to_json(x: Fraction | None) -> str | None:
    return "-inf" if x is None else format_fraction(x)


def certificate_to_json(cert: Certificate | None) -> dict | None:
    if cert is None:
        return None
    out: dict = {"kind": cert.kind}
    if cert.span is not None:
        out["span"] = subspace_to_json(cert.span)
    if cert.witness is not None:
        if isinstance(cert.witness, ExtensionLine):
            out["witness_line"] = {
                "base": vector_to_json(cert.witness.base),
                "twist": vector_to_json(cert.witness.twist),
                "delta": scalar_to_json(cert.witness.delta),
            }
        else:
            out["witness"] = subspace_to_json(cert.witness)
    if cert.coisotropic is not None:
        out["coisotropic"] = subspace_to_json(cert.coisotropic)
    if cert.pardeg is not None:
        out["pardeg"] = format_fraction(cert.pardeg)
    return out


def verdict_to_json(v: Verdict) -> dict:
    out: dict = {"verdict": v.tag, "exact": v.exact}
    cert = certificate_to_json(v.certificate)
    if cert is not None:
        out["certificate"] = cert
    if v.lower is not None or v.upper is not None:
        out["bounds"] = {"lower": _bound_to_json(v.lower), "upper": _bound_to_json(v.upper)}
    return out


# ---------------------------------------------------------------------------
# batch reports


@dataclass
class ReportRow:
    instance_id: str
    q: int
    s: int
    verdict: str
    certificate_kind: str
    lower: str
    upper: str
    mu: str
    wall_time: float


@dataclass
class Report:
    rows: list[ReportRow]
    counts: dict
    determinacy: dict
    inconsistencies: int
    total_wall_time: float

    def to_json(self) -> dict:
        counts_sum = sum(self.counts.values())
        return {
            "instances": len(self.rows),
            "counts": self.counts,
            "counts_sum": counts_sum,
            "determinacy": self.determinacy,
            "inconsistencies": self.inconsistencies,
            "total_wall_time": self.total_wall_time,
            "rows": [vars(r) for r in self.rows],
        }

    def to_csv(self) -> str:
        header = "instance_id,q,s,verdict,certificate_kind,lower,upper,mu,wall_time"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.instance_id},{r.q},{r.s},{r.verdict},{r.certificate_kind},"
                f"{r.lower},{r.upper},{r.mu},{r.wall_time:.6f}"
            )
        return "\n".join(lines) + "\n"


def build_report(rows: list[ReportRow], inconsistencies: int = 0) -> Report:
    counts: dict = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    total = len(rows)
    undetermined = counts.get("Undetermined", 0)
    determinacy = {
        "determined": total - undetermined,
        "undetermined": undetermined,
    }
    return Report(
        rows=sorted(rows, key=lambda r: r.instance_id),
        counts=counts,
        determinacy=determinacy,
        inconsistencies=inconsistencies,
        total_wall_time=sum(r.wall_time for r in rows),
    )
