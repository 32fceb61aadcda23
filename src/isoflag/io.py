"""JSON serialization for all value types, plus batch reports.

The only wire format is JSON with decimal rational strings ("p/q" or "p");
floats never appear.  Parsing is strict and keeps a JSON-pointer-style path
for error messages.  serialize(parse(x)) is idempotent: it reproduces the
canonical rendering (reduced fractions, canonical subspace bases).

An instance file is read through one table of its rational strings
(_Rationals), which parses each distinct string once into a reduced
(numerator, denominator) pair.  Each matrix is read in a few passes, each a
loop in C over its rows or entries, with no path string built, and then put
over one denominator (_integer): a flag basis, A, a one-parameter
subgroup's eigenbasis and a subspace's rows each become Gaussian-integer
rows over one d, linalg's matrix form, which IsotropicFlag, HiggsTuple and
OnePS hold and Subspace.from_zi_rows eliminates, with no Fraction or Scalar
per entry.  Only the weight is built as Fractions, one per distinct string.
Paths are built only on failure: a matrix or a weight with any fault is
read again entry by entry, and that walk raises the ParseError of the first
fault.

Every matrix is written straight from those integers, each entry x / d as
its reduced fraction (linalg._fraction_text).  An instance file is written
as text by serialize_instance, byte for byte what json.dumps(..., indent=2)
gives, with no dict built per entry and json run only over the seed and
the metadata.  Verdicts (subspaces and extension-line witnesses) and
one-parameter subgroups' eigenbases are built as JSON objects by
_zi_rows_to_json and _zi_vector_to_json, for the CLI to dump.  So neither
reading an instance nor writing one or a verdict builds a Scalar; only the
readers that return Scalars (scalar_from_json and vector_from_json) build
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import floordiv, itemgetter, mul
from typing import Any

from .errors import ParseError
from .flags import FlagSystem, IsotropicFlag
from .higgs import Certificate, ExtensionLine, HiggsTuple, Verdict
from .linalg import Subspace, Vector, ZiRow, _fraction_text
from .scalars import Scalar, format_fraction, parse_rational
from .weights import Weight


# ---------------------------------------------------------------------------
# scalars and vectors


# (numerator, denominator), reduced, denominator positive
_Rational = tuple[int, int]
# a matrix read as (rows, cols, rationals): the rationals are the re part of
# each entry in row order, then the im part of each
_Matrix = tuple[int, int, list[_Rational]]

_RE, _IM = itemgetter("re"), itemgetter("im")


class _Rationals(dict):
    """The rational strings of one file, as a table from each string to its
    reduced (numerator, denominator).  An unseen string is parsed by
    parse_rational in __missing__, so each distinct string is parsed once
    and every later read is a plain lookup: the strings of a flag basis
    repeat (over half of them are "0").

    rows reads a matrix with no path string built.  On any fault it reads
    it again with _checked_rows, which raises the ParseError of the first
    fault, at its path, in the order the faults have always been reported.
    A numeral past int()'s digit limit is one of those faults
    (parse_rational)."""

    __slots__ = ()

    def __missing__(self, text: Any) -> _Rational:
        self[text] = pair = parse_rational(text)
        return pair

    def rational(self, text: Any, path: str) -> _Rational:
        """One rational string, or parse_rational's ParseError at path."""
        pair = self.get(text) if type(text) is str else None
        if pair is None:
            pair = self[text] = parse_rational(text, path)
        return pair

    def entry(self, obj: Any, path: str) -> tuple[_Rational, _Rational]:
        """The (re, im) rationals of one {"re", "im"} object."""
        if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
            raise ParseError(path, "expected an object with 're' and 'im'")
        return self.rational(obj["re"], path + "/re"), self.rational(obj["im"], path + "/im")

    def rows(self, obj: Any, path: str) -> _Matrix:
        """An array of rows of one length, each row an array of {"re", "im"}
        objects.  Each pass is a loop in C over the rows or the entries:
        the rows are lists of one length, the entries dicts of two keys,
        itemgetter raises on a missing key, and the table raises on a bad
        or non-string rational.  Any fault, or an empty matrix, sends the
        matrix to _checked_rows."""
        try:
            if type(obj) is list and obj:
                cols = len(obj[0])
                if set(map(len, obj)) == {cols} and set(map(type, obj)) == {list}:
                    entries = list(chain.from_iterable(obj))
                    if set(map(type, entries)) == {dict} and set(map(len, entries)) == {2}:
                        texts = [*map(_RE, entries), *map(_IM, entries)]
                        return len(obj), cols, list(map(self.__getitem__, texts))
        except (TypeError, KeyError, ParseError):
            pass
        return self._checked_rows(obj, path)

    def _checked_rows(self, obj: Any, path: str) -> _Matrix:
        """rows, read entry by entry with the path of each: the first fault
        raises, and the matrix is checked not to be ragged only after every
        entry is read."""
        if not isinstance(obj, list):
            raise ParseError(path, "expected an array of rows")
        res, ims = [], []
        for i, row in enumerate(obj):
            if not isinstance(row, list):
                raise ParseError(f"{path}/{i}", "expected an array")
            for k, x in enumerate(row):
                re, im = self.entry(x, f"{path}/{i}/{k}")
                res.append(re)
                ims.append(im)
        if obj and any(len(row) != len(obj[0]) for row in obj):
            raise ParseError(path, "ragged matrix")
        return len(obj), len(obj[0]) if obj else 0, res + ims


def _integer(rows: int, cols: int, pairs: list[_Rational]) -> tuple[list[ZiRow], int]:
    """(B', d) with the matrix = B' / d, B' as Gaussian-integer rows: d is
    the lcm of the entries' reduced denominators, the least common
    denominator, and B' = num (d / den) entrywise."""
    if not pairs:
        return [([], []) for _ in range(rows)], 1
    nums, dens = zip(*pairs)
    den = lcm(*set(dens))
    ints = list(map(mul, nums, map(floordiv, repeat(den), dens)))
    return [(ints[i * cols:(i + 1) * cols], ints[(rows + i) * cols:(rows + i + 1) * cols])
            for i in range(rows)], den


def scalar_from_json(obj: Any, path: str) -> Scalar:
    re, im = _Rationals().entry(obj, path)
    return Scalar(Fraction(*re), Fraction(*im))


def vector_from_json(obj: Any, path: str) -> Vector:
    if not isinstance(obj, list):
        raise ParseError(path, "expected an array")
    return tuple(scalar_from_json(x, f"{path}/{i}") for i, x in enumerate(obj))


def _zi_vector_to_json(row: ZiRow, den: int) -> list:
    """The Gaussian-integer row (re, im) over den, each entry (re + i im) / den
    as {"re", "im"} reduced fraction strings, with no Fraction or Scalar
    built."""
    return [{"re": _fraction_text(x, den), "im": _fraction_text(y, den)} for x, y in zip(*row)]


def _zi_rows_to_json(rows, den: int) -> list:
    """Gaussian-integer rows (re, im) over one denominator, row by row."""
    return [_zi_vector_to_json(row, den) for row in rows]


# ---------------------------------------------------------------------------
# weights


def weight_from_json(obj: Any, path: str = "/weight", read: _Rationals | None = None) -> Weight:
    """The weight, with each distinct rational string made a Fraction once.
    The entries are read with no path string first; when any of them is
    not a parsed rational string, or a row of beta is not an array of q,
    they are read again one by one with their paths, and the first fault
    raises."""
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
    if read is None:
        read = _Rationals()
    fractions = None
    try:
        if set(map(type, beta)) == {list} and set(map(len, beta)) == {q}:
            fractions = {text: Fraction(*read[text]) for text in set(alpha).union(*beta)}
    except (TypeError, ParseError):
        pass
    if fractions is not None:
        get = fractions.__getitem__
        return Weight(q, s, tuple(map(get, alpha)), tuple(tuple(map(get, row)) for row in beta))
    alphas = tuple(Fraction(*read.rational(a, f"{path}/alpha/{j}")) for j, a in enumerate(alpha))
    betas = []
    for j, row in enumerate(beta):
        if not isinstance(row, list) or len(row) != q:
            raise ParseError(f"{path}/beta/{j}", f"expected {q} entries")
        betas.append(tuple(Fraction(*read.rational(b, f"{path}/beta/{j}/{i}"))
                           for i, b in enumerate(row)))
    return Weight(q, s, alphas, tuple(betas))


# ---------------------------------------------------------------------------
# flags, subspaces, instances


def flag_from_json(obj: Any, path: str, read: _Rationals) -> IsotropicFlag:
    """The flag read straight into its integer rows over d (_integer)."""
    rows, cols, pairs = read.rows(obj, path)
    if not rows or rows != cols:
        raise ParseError(path, "flag basis must be a square matrix")
    return IsotropicFlag(*_integer(rows, cols, pairs))


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient": s.ambient, "rows": _zi_rows_to_json(s.zi_rows, s.den)}


def subspace_from_json(obj: Any, path: str) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "rows" not in obj:
        raise ParseError(path, "expected an object with 'ambient' and 'rows'")
    if type(obj["ambient"]) is not int or obj["ambient"] < 1:
        raise ParseError(path + "/ambient", "ambient must be a positive integer")
    rows, cols, pairs = _Rationals().rows(obj["rows"], path + "/rows")
    if rows and cols != obj["ambient"]:
        raise ParseError(path + "/rows", f"rows must have length {obj['ambient']}")
    return Subspace.from_zi_rows(_integer(rows, cols, pairs)[0], obj["ambient"])


@dataclass(frozen=True)
class InstanceFile:
    weight: Weight
    flags: FlagSystem
    higgs: HiggsTuple
    seed: int | None = None
    metadata: dict = field(default_factory=dict)


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
    flags = []
    for j, f in enumerate(obj["flags"]):
        flags.append(flag_from_json(f, f"{path}/flags/{j}", read))
        if flags[-1].q != weight.q:
            raise ParseError(f"{path}/flags/{j}", "flag dimension does not match weight q")
    rows, cols, pairs = read.rows(obj["A"], path + "/A")
    if rows != weight.s - 2:
        raise ParseError(path + "/A", f"expected {weight.s - 2} rows")
    if rows and cols != weight.q:
        raise ParseError(path + "/A", f"rows must have length {weight.q}")
    higgs = HiggsTuple(weight.q, weight.s, *_integer(rows, cols, pairs))
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
        raise ParseError(path + "/seed", "seed must be an integer")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(path + "/metadata", "metadata must be an object")
    return InstanceFile(weight, FlagSystem(tuple(flags)), higgs, seed, metadata)


def parse_instance_text(text: str) -> InstanceFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("/", f"not valid JSON: {exc}") from None
    return instance_from_json(obj)


def _array_text(items: list[str], indent: str) -> str:
    """json.dumps(..., indent=2)'s text of a nonempty array whose items are
    rendered already, the array opening on a line indented by indent.  Every
    array of an instance is nonempty: s >= 3 and q >= 2 (HiggsTuple,
    IsotropicFlag)."""
    inner = "\n" + indent + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{indent}]"


def _zi_rows_text(rows, den: int, indent: str) -> str:
    """_zi_rows_to_json(rows, den) as json.dumps(..., indent=2) renders it
    at indent, written straight from the integers: one _fraction_text per
    part and no dict per entry."""
    row_indent = indent + "  "
    entry_indent = row_indent + "  "
    key = "\n" + entry_indent + "  "
    entry = f'{{{key}"re": "%s",{key}"im": "%s"\n{entry_indent}}}'
    return _array_text([_array_text([entry % (_fraction_text(x, den), _fraction_text(y, den))
                                     for x, y in zip(*row)], row_indent) for row in rows],
                       indent)


def serialize_instance(inst: InstanceFile) -> str:
    """The instance file: the text json.dumps(obj, indent=2) gives for the
    object {"weight", "flags", "A"[, "seed"][, "metadata"]}, written straight
    from the stored numbers.  The weight's entries are format_fraction
    strings, and the flag bases and A are their Gaussian-integer rows over
    one denominator, entry by entry (_zi_rows_text).  Only the seed and the
    metadata, which may hold any JSON value, go through json.dumps; the
    metadata is rendered at the top level and indented by two spaces, which
    is the text json gives for it nested one level deep (every newline in
    that text is json's own: it escapes those inside strings)."""
    w = inst.weight
    alpha = _array_text([f'"{format_fraction(a)}"' for a in w.alpha], "    ")
    beta = _array_text([_array_text([f'"{format_fraction(b)}"' for b in row], "      ")
                        for row in w.beta], "    ")
    fields = [
        f'"weight": {{\n    "q": {w.q},\n    "s": {w.s},\n'
        f'    "alpha": {alpha},\n    "beta": {beta}\n  }}',
        '"flags": ' + _array_text([_zi_rows_text(f.zi_rows, f.den, "    ")
                                   for f in inst.flags.flags], "  "),
        '"A": ' + _zi_rows_text(inst.higgs.zi_rows, inst.higgs.den, "  "),
    ]
    if inst.seed is not None:
        fields.append('"seed": ' + json.dumps(inst.seed))
    if inst.metadata:
        fields.append('"metadata": ' + json.dumps(inst.metadata, indent=2).replace("\n", "\n  "))
    return "{\n  " + ",\n  ".join(fields) + "\n}"


# ---------------------------------------------------------------------------
# one-parameter subgroups


def oneps_to_json(lam) -> dict:
    return {"l": lam.l, "m": list(lam.m),
            "basis": _zi_rows_to_json(lam.zi_rows, lam.den)}


def oneps_from_json(obj: Any, path: str = ""):
    """The one-parameter subgroup with its eigenbasis read straight into
    integer rows over d (_integer)."""
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
    basis = _integer(*_Rationals().rows(obj["basis"], path + "/basis"))
    return OnePS(obj["l"], tuple(obj["m"]), *basis)


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
                "base": _zi_vector_to_json(*cert.witness.base),
                "twist": _zi_vector_to_json(*cert.witness.twist),
                "delta": _zi_vector_to_json(*cert.witness.delta)[0],
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
    total_wall_time: float
    errors: int  # files that were bad input and have no row

    def to_json(self) -> dict:
        counts_sum = sum(self.counts.values())
        return {
            "instances": len(self.rows),
            "errors": self.errors,
            "counts": self.counts,
            "counts_sum": counts_sum,
            "determinacy": self.determinacy,
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


def build_report(rows: list[ReportRow], errors: int) -> Report:
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
        total_wall_time=sum(r.wall_time for r in rows),
        errors=errors,
    )
