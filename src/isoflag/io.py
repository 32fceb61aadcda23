"""JSON serialization for all value types, plus batch reports.

The only wire format is JSON with decimal rational strings ("p/q" or "p");
floats never appear.  Parsing is strict and keeps a JSON-pointer-style path
for error messages.  serialize(parse(x)) is idempotent: it reproduces the
canonical rendering (reduced fractions, canonical subspace bases).

An instance file is read with one rational reader (_Rationals), which
parses each distinct string once into a reduced (numerator, denominator)
pair.  A flag basis goes from those pairs straight to the Gaussian-integer
matrix B' over one denominator d that IsotropicFlag works in, and each
row of A to one Gaussian-integer row over its own denominator
(HiggsTuple.from_integer), with no Fraction or Scalar per entry; only the
weight is built as Fractions from the same pairs.  A one-parameter
subgroup's eigenbasis is read the same way, into the (B', d) that OnePS
holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any

from .errors import ParseError
from .flags import FlagSystem, IsotropicFlag
from .higgs import Certificate, ExtensionLine, HiggsTuple, Verdict
from .linalg import Subspace, Vector
from .scalars import Scalar, format_fraction, parse_rational
from .weights import Weight


# ---------------------------------------------------------------------------
# scalars and vectors


# (numerator, denominator), reduced, denominator positive
_Rational = tuple[int, int]


def _pair_scalar(re: _Rational, im: _Rational) -> Scalar:
    return Scalar(Fraction(*re), Fraction(*im))


class _Rationals:
    """The rational strings of one file, read by parse_rational with each
    distinct string parsed once: the strings of a flag basis repeat (over
    half of them are "0")."""

    __slots__ = ("_seen",)

    def __init__(self):
        self._seen: dict[str, _Rational] = {}

    def __call__(self, text: Any, path: str) -> _Rational:
        pair = self._seen.get(text) if type(text) is str else None
        if pair is None:
            pair = self._seen[text] = parse_rational(text, path)
        return pair

    def entry(self, obj: Any, path: str) -> tuple[_Rational, _Rational]:
        """The (re, im) rationals of one {"re", "im"} object."""
        if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
            raise ParseError(path, "expected an object with 're' and 'im'")
        return self(obj["re"], path + "/re"), self(obj["im"], path + "/im")

    def rows(self, obj: Any, path: str) -> list[list[tuple[_Rational, _Rational]]]:
        """The entries of an array of rows, each row an array of
        {"re", "im"} objects, checked to be a matrix after every entry is
        read.  An entry whose two strings were both read before costs two
        lookups; any other goes through entry."""
        if not isinstance(obj, list):
            raise ParseError(path, "expected an array of rows")
        seen = self._seen
        rows = []
        for i, row in enumerate(obj):
            if not isinstance(row, list):
                raise ParseError(f"{path}/{i}", "expected an array")
            entries = []
            for k, x in enumerate(row):
                if isinstance(x, dict) and len(x) == 2:
                    re, im = x.get("re"), x.get("im")
                    if type(re) is str and type(im) is str:
                        re, im = seen.get(re), seen.get(im)
                        if re is not None and im is not None:
                            entries.append((re, im))
                            continue
                entries.append(self.entry(x, f"{path}/{i}/{k}"))
            rows.append(entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ParseError(path, "ragged matrix")
        return rows


def scalar_to_json(x: Scalar) -> dict:
    return {"re": format_fraction(x.re), "im": format_fraction(x.im)}


def scalar_from_json(obj: Any, path: str) -> Scalar:
    return _pair_scalar(*_Rationals().entry(obj, path))


def vector_to_json(v: Vector) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(obj: Any, path: str) -> Vector:
    if not isinstance(obj, list):
        raise ParseError(path, "expected an array")
    return tuple(scalar_from_json(x, f"{path}/{i}") for i, x in enumerate(obj))


def matrix_to_json(rows) -> list:
    return [vector_to_json(r) for r in rows]


def matrix_from_json(obj: Any, path: str) -> tuple[Vector, ...]:
    return tuple(tuple(_pair_scalar(re, im) for re, im in row)
                 for row in _Rationals().rows(obj, path))


# ---------------------------------------------------------------------------
# weights


def weight_to_json(w: Weight) -> dict:
    return {
        "q": w.q,
        "s": w.s,
        "alpha": [format_fraction(a) for a in w.alpha],
        "beta": [[format_fraction(b) for b in row] for row in w.beta],
    }


def weight_from_json(obj: Any, path: str = "/weight", read: _Rationals | None = None) -> Weight:
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    for key in ("q", "s", "alpha", "beta"):
        if key not in obj:
            raise ParseError(path, f"missing field {key!r}")
    q, s = obj["q"], obj["s"]
    # JSON true/false parse as bool, an int subclass, so integers are checked
    # by exact type here and below
    if type(q) is not int or type(s) is not int:
        raise ParseError(path, "q and s must be integers")
    # the lengths below are read from q and s
    if q < 2:
        raise ParseError(path, "q must be at least 2")
    if s < 3:
        raise ParseError(path, "s must be at least 3")
    alpha = obj["alpha"]
    beta = obj["beta"]
    if not isinstance(alpha, list) or len(alpha) != s:
        raise ParseError(path + "/alpha", f"expected {s} entries")
    if not isinstance(beta, list) or len(beta) != s:
        raise ParseError(path + "/beta", f"expected {s} rows")
    read = read or _Rationals()
    alphas = tuple(Fraction(*read(a, f"{path}/alpha/{j}")) for j, a in enumerate(alpha))
    betas = []
    for j, row in enumerate(beta):
        if not isinstance(row, list) or len(row) != q:
            raise ParseError(f"{path}/beta/{j}", f"expected {q} entries")
        betas.append(tuple(Fraction(*read(b, f"{path}/beta/{j}/{i}"))
                           for i, b in enumerate(row)))
    return Weight(q, s, alphas, tuple(betas))


# ---------------------------------------------------------------------------
# flags, subspaces, instances


def flag_to_json(f: IsotropicFlag) -> list:
    return matrix_to_json(f.basis)


def _lcm_den(entries) -> int:
    """The lcm of the reduced denominators of (re, im) entries."""
    return lcm(*{d for re, im in entries for d in (re[1], im[1])})


def _over(row: list[tuple[_Rational, _Rational]], den: int) -> tuple[list[int], list[int]]:
    """(re, im) with row = (re + i im) / den, den a multiple of every
    denominator in the row."""
    return [n * (den // d) for (n, d), _ in row], [n * (den // d) for _, (n, d) in row]


def _integer_matrix(rows: list[list[tuple[_Rational, _Rational]]]
                    ) -> tuple[list[list[int]], list[list[int]], int]:
    """(B', d) with rows = B' / d: d is the lcm of the entries' reduced
    denominators and B' = num (d / den) entrywise, what
    linalg._gaussian_matrix gives for the same rows as Scalars."""
    den = _lcm_den(entry for row in rows for entry in row)
    over = [_over(row, den) for row in rows]
    return [re for re, _ in over], [im for _, im in over], den


def flag_from_json(obj: Any, path: str, read: _Rationals) -> IsotropicFlag:
    """The flag read straight into its integer form B' / d
    (_integer_matrix)."""
    rows = read.rows(obj, path)
    if not rows or len(rows) != len(rows[0]):
        raise ParseError(path, "flag basis must be a square matrix")
    return IsotropicFlag.from_integer(*_integer_matrix(rows))


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient": s.ambient, "rows": matrix_to_json(s.rows)}


def subspace_from_json(obj: Any, path: str) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "rows" not in obj:
        raise ParseError(path, "expected an object with 'ambient' and 'rows'")
    if type(obj["ambient"]) is not int:
        raise ParseError(path + "/ambient", "ambient must be an integer")
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
    read = _Rationals()
    weight = weight_from_json(obj["weight"], path + "/weight", read)
    if not isinstance(obj["flags"], list) or len(obj["flags"]) != weight.s:
        raise ParseError(path + "/flags", f"expected {weight.s} flags")
    flags = FlagSystem(tuple(
        flag_from_json(f, f"{path}/flags/{j}", read) for j, f in enumerate(obj["flags"])
    ))
    if flags.q != weight.q:
        raise ParseError(path + "/flags", "flag dimension does not match weight q")
    rows = read.rows(obj["A"], path + "/A")
    if len(rows) != weight.s - 2:
        raise ParseError(path + "/A", f"expected {weight.s - 2} rows")
    if rows and len(rows[0]) != weight.q:
        raise ParseError(path + "/A", f"rows must have length {weight.q}")
    # each row over its own denominator, what linalg._gaussian_row gives
    integer_rows = []
    for row in rows:
        den = _lcm_den(row)
        integer_rows.append((*_over(row, den), den))
    higgs = HiggsTuple.from_integer(weight.q, weight.s, integer_rows)
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
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
    """The one-parameter subgroup with its eigenbasis read straight into the
    integer form B' / d (_integer_matrix)."""
    from .hmgit import OnePS

    if not isinstance(obj, dict):
        raise ParseError(path or "/", "expected an object")
    for key in ("l", "m", "basis"):
        if key not in obj:
            raise ParseError(path or "/", f"missing field {key!r}")
    if type(obj["l"]) is not int:
        raise ParseError(path + "/l", "l must be an integer")
    if not isinstance(obj["m"], list) or any(type(x) is not int for x in obj["m"]):
        raise ParseError(path + "/m", "m must be an array of integers")
    rows = _Rationals().rows(obj["basis"], path + "/basis")
    return OnePS.from_integer(obj["l"], tuple(obj["m"]), *_integer_matrix(rows))


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
