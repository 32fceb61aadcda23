"""The instance reader against a reference copy of its checked walk.

io reads a valid matrix with a walk that builds no path string and, on any
fault, walks again with the checked walk to raise the first fault.  The
reference below is that checked walk as the reader had it before the fast
walk existed: each entry read through a path, rationals parsed one by one
(_RATIONAL's regular expression), each matrix put over the lcm of its
denominators afterwards.  Seeded mutations of two instance files must give
the same (path, message) through both, and valid files the same integer
forms.
"""

import copy
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

import isoflag.io as io_mod
from isoflag.errors import InputError, ParseError
from isoflag.io import InstanceFile, instance_from_json, parse_instance_text
from isoflag.randgen import mixed_mode, random_instance
from isoflag.scalars import parse_rational

from helpers import instance_to_json

# ---------------------------------------------------------------------------
# the reference reader

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def reference_rational(text, path=""):
    if not isinstance(text, str):
        raise ParseError(path, f"expected a rational string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(path, f"malformed rational {text!r}")
    num, den = match.groups()
    try:
        if den is None:
            return int(num), 1
        n, d = int(num), int(den)
    except ValueError:  # past int()'s digit limit
        raise ParseError(path, f"numeral too long (over {sys.get_int_max_str_digits()} "
                               "digits)") from None
    if d == 0:
        raise ParseError(path, "zero denominator")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def _entry(obj, path):
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ParseError(path, "expected an object with 're' and 'im'")
    return reference_rational(obj["re"], path + "/re"), reference_rational(obj["im"], path + "/im")


def _rows(obj, path):
    if not isinstance(obj, list):
        raise ParseError(path, "expected an array of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"{path}/{i}", "expected an array")
        rows.append([_entry(x, f"{path}/{i}/{k}") for k, x in enumerate(row)])
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(path, "ragged matrix")
    return rows


def _over(rows):
    den = lcm(*(d for row in rows for re, im in row for d in (re[1], im[1])))
    return [([n * (den // d) for (n, d), _ in row], [n * (den // d) for _, (n, d) in row])
            for row in rows], den


def _weight(obj, path):
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    for key in ("q", "s", "alpha", "beta"):
        if key not in obj:
            raise ParseError(path, f"missing field {key!r}")
    q, s = obj["q"], obj["s"]
    if type(q) is not int or type(s) is not int:
        raise ParseError(path, "q and s must be integers")
    if q < 2:
        raise ParseError(path, "q must be at least 2")
    if s < 3:
        raise ParseError(path, "s must be at least 3")
    alpha, beta = obj["alpha"], obj["beta"]
    if not isinstance(alpha, list) or len(alpha) != s:
        raise ParseError(path + "/alpha", f"expected {s} entries")
    if not isinstance(beta, list) or len(beta) != s:
        raise ParseError(path + "/beta", f"expected {s} rows")
    alphas = tuple(Fraction(*reference_rational(a, f"{path}/alpha/{j}"))
                   for j, a in enumerate(alpha))
    betas = []
    for j, row in enumerate(beta):
        if not isinstance(row, list) or len(row) != q:
            raise ParseError(f"{path}/beta/{j}", f"expected {q} entries")
        betas.append(tuple(Fraction(*reference_rational(b, f"{path}/beta/{j}/{i}"))
                           for i, b in enumerate(row)))
    return q, s, alphas, tuple(betas)


def reference_instance(obj) -> dict:
    """The integer forms an instance file is read into, or the reference
    walk's error."""
    if not isinstance(obj, dict):
        raise ParseError("/", "expected an object")
    for key in ("weight", "flags", "A"):
        if key not in obj:
            raise ParseError("/", f"missing field {key!r}")
    q, s, alphas, betas = _weight(obj["weight"], "/weight")
    if not isinstance(obj["flags"], list) or len(obj["flags"]) != s:
        raise ParseError("/flags", f"expected {s} flags")
    flags = []
    for j, f in enumerate(obj["flags"]):
        rows = _rows(f, f"/flags/{j}")
        if not rows or len(rows) != len(rows[0]):
            raise ParseError(f"/flags/{j}", "flag basis must be a square matrix")
        if len(rows) != q:
            raise ParseError(f"/flags/{j}", "flag dimension does not match weight q")
        flags.append(_over(rows))
    rows = _rows(obj["A"], "/A")
    if len(rows) != s - 2:
        raise ParseError("/A", f"expected {s - 2} rows")
    if rows and len(rows[0]) != q:
        raise ParseError("/A", f"rows must have length {q}")
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
        raise ParseError("/seed", "seed must be an integer")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("/metadata", "metadata must be an object")
    return {"weight": (q, s, alphas, betas), "flags": flags, "A": _over(rows),
            "seed": seed, "metadata": metadata}


def _read(obj) -> dict:
    inst = instance_from_json(obj)
    w = inst.weight
    flags = [(flag.zi_rows, flag.den) for flag in inst.flags.flags]
    return {"weight": (w.q, w.s, w.alpha, w.beta), "flags": flags,
            "A": ([(list(re), list(im)) for re, im in inst.higgs.zi_rows], inst.higgs.den),
            "seed": inst.seed, "metadata": inst.metadata}


def outcome(reader, obj):
    try:
        return reader(obj)
    except ParseError as exc:
        return ("ParseError", exc.path, exc.message)
    except InputError as exc:
        return ("InputError", str(exc))


# ---------------------------------------------------------------------------
# mutations

MALFORMED = ["1_000", "٣", " 1", "1 ", "", "+", "1/", "/2", "1//2", "1.5",
             "--1", "1/2/3", "x/3", "²"]
BAD_RATIONALS = [*MALFORMED, "1/0", "-3/+0", 3, 0, True, False, None, ["0"], 1.5, {"re": "0"}]
BAD_ROWS = ["abc", "", {"re": "0", "im": "0"}, 7, None]
BAD_ENTRIES = ["0", 3, None, True, ["0", "0"], []]


def _sites(obj):
    """(kind, container, key) for every place a fault can go: the
    rationals, entries, rows and matrices still in place after any earlier
    fault."""
    sites = []
    w = obj["weight"]
    sites.extend(("rational", w["alpha"], j) for j in range(len(w["alpha"])))
    for j, row in enumerate(w["beta"]):
        sites.append(("row", w["beta"], j))
        if isinstance(row, list):
            sites.extend(("rational", row, i) for i in range(len(row)))
    matrices = [(obj["flags"], j) for j in range(len(obj["flags"]))] + [(obj, "A")]
    for container, key in matrices:
        sites.append(("matrix", container, key))
        if not isinstance(container[key], list):
            continue
        for i, row in enumerate(container[key]):
            sites.append(("row", container[key], i))
            if not isinstance(row, list):
                continue
            for k, entry in enumerate(row):
                sites.append(("entry", row, k))
                if isinstance(entry, dict):
                    sites.extend(("rational", entry, part) for part in ("re", "im") if part in entry)
    return sites


def _mutate(obj, rng) -> None:
    kind, container, key = rng.choice(_sites(obj))
    if kind == "rational":
        container[key] = rng.choice(BAD_RATIONALS)
    elif kind == "entry":
        entry = container[key]
        choice = rng.randrange(4) if isinstance(entry, dict) else 3
        if choice == 0:
            entry["x"] = "0"
        elif choice == 1:
            entry.pop(rng.choice(["re", "im"]))
        elif choice == 2:
            container[key] = {"re": entry.get("re", "0")}
        else:
            container[key] = rng.choice(BAD_ENTRIES)
    elif kind == "row":
        row = container[key]
        choice = rng.randrange(3) if isinstance(row, list) else 0
        if choice == 0:
            container[key] = rng.choice(BAD_ROWS)
        elif choice == 1 and row:
            row.pop()
        else:
            row.append(copy.deepcopy(row[0]) if row else "0")
    else:
        container[key] = rng.choice(["x", {"re": "0", "im": "0"}, 3, [], [[]]])


def _bases():
    """test_io.quad_instance()'s q4 s4 file and a q8 s8 one."""
    quad = random_instance(4, 4, 3)
    q8 = random_instance(8, 8, 1)
    return [instance_to_json(InstanceFile(w, fs, a, seed=3)) for a, fs, w in (quad, q8)]


# ---------------------------------------------------------------------------
# tests


class TestAgainstReference:
    @pytest.mark.parametrize("base", [0, 1], ids=["q4s4", "q8s8"])
    @pytest.mark.parametrize("faults", [1, 2])
    def test_mutations(self, base, faults):
        """Each seeded mutation fails with the reference's (path, message),
        or, when it leaves the file valid, reads to the same forms."""
        obj = _bases()[base]
        kinds = Counter()
        for seed in range(150):
            rng = random.Random(1000 * base + 100 * faults + seed)
            bad = copy.deepcopy(obj)
            for _ in range(faults):
                _mutate(bad, rng)
            # the decoded JSON a file holds, as the CLI reads it
            bad = json.loads(json.dumps(bad))
            expected = outcome(reference_instance, bad)
            assert outcome(_read, bad) == expected, seed
            kinds[expected[0] if isinstance(expected, tuple) else "valid"] += 1
        assert kinds["ParseError"] > 100

    def test_reported_paths_cover_each_layer(self):
        """The mutations reach faults in the weight, the flags and A."""
        paths = set()
        for base, obj in enumerate(_bases()):
            for seed in range(150):
                rng = random.Random(base * 7919 + seed)
                bad = copy.deepcopy(obj)
                _mutate(bad, rng)
                result = outcome(reference_instance, bad)
                if result[0] == "ParseError":
                    paths.add(result[1].split("/")[1])
        assert {"weight", "flags", "A"} <= paths

    def test_valid_files(self):
        for q in range(2, 9):
            for s in range(3, 7):
                for seed in range(3):
                    a, fs, w = random_instance(q, s, seed, mixed_mode(seed))
                    obj = json.loads(json.dumps(instance_to_json(InstanceFile(w, fs, a, seed=seed))))
                    assert _read(obj) == reference_instance(obj), (q, s, seed)

    def test_containers_that_are_not_json(self):
        """A tuple row and a dict subclass entry are held to the checked
        walk's rules: the row is not an array, and the entry is a dict."""
        obj = _bases()[0]
        obj["flags"][1][2] = tuple(obj["flags"][1][2])
        assert outcome(_read, obj) == ("ParseError", "/flags/1/2", "expected an array")
        obj = _bases()[0]

        class Entry(dict):
            pass

        obj["flags"][1][2][3] = Entry(obj["flags"][1][2][3])
        assert outcome(_read, obj) == reference_instance(obj)

    def test_digit_limit_after_an_earlier_fault(self):
        """A numerator past int()'s digit limit (a ParseError on Python >=
        3.11) later in the walk than a malformed rational does not hide
        it: the first walk reads every re part before any im part."""
        obj = _bases()[0]
        obj["flags"][1][0][0]["im"] = "x"
        obj["flags"][1][0][1]["re"] = "1" * 5000
        assert outcome(_read, obj) == outcome(reference_instance, obj) == \
            ("ParseError", "/flags/1/0/0/im", "malformed rational 'x'")
        obj = _bases()[0]
        obj["weight"]["alpha"][0] = "x"
        obj["weight"]["beta"][0][0] = "1" * 5000
        assert outcome(_read, obj) == ("ParseError", "/weight/alpha/0", "malformed rational 'x'")

    @pytest.mark.parametrize("text", [
        "/flags/1/0/0: expected an object with 're' and 'im'",
        "/flags/1/2: expected an array",
    ])
    def test_installed_script_faults(self, text):
        """The two faults the CI step writes: a third key in a flag entry
        and a string in place of a flag row."""
        obj = _bases()[0]
        if "object" in text:
            obj["flags"][1][0][0]["x"] = "0"
        else:
            obj["flags"][1][2] = "0"
        with pytest.raises(ParseError) as err:
            parse_instance_text(json.dumps(obj))
        assert f"{err.value.path}: {err.value.message}" == text


class TestParseCount:
    @pytest.mark.parametrize("base", [0, 1], ids=["q4s4", "q8s8"])
    def test_each_distinct_string_parsed_once(self, base, monkeypatch):
        obj = _bases()[base]
        calls = Counter()

        def counting(text, path=""):
            calls[text] += 1
            return parse_rational(text, path)

        monkeypatch.setattr(io_mod, "parse_rational", counting)
        parse_instance_text(json.dumps(obj))
        w = obj["weight"]
        strings = {*w["alpha"], *(b for row in w["beta"] for b in row)}
        for matrix in (*obj["flags"], obj["A"]):
            strings.update(x[key] for row in matrix for x in row for key in ("re", "im"))
        assert set(calls) == strings
        assert set(calls.values()) == {1}


def _parsed(text):
    """parse_rational's value or error, and the reference's."""
    out = []
    for reader in (parse_rational, reference_rational):
        try:
            out.append(reader(text, "/p"))
        except ParseError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


class TestRationalGrammar:
    def test_matches_regular_expression(self):
        """parse_rational reads int() first, but accepts, values and
        rejects exactly as _RATIONAL's regular expression does: every
        string of up to four characters over an alphabet that holds each
        character class the grammar names or excludes, and numbers past
        int()'s digit limit (a ParseError from both on Python >= 3.11)."""
        alphabet = ["0", "7", "+", "-", "/", " ", "_", "\u0663", "a"]
        strings = [""]
        for _ in range(4):
            strings = list(dict.fromkeys([s + c for s in strings for c in alphabet] + strings))
        strings += ["1" * 5000, "1/" + "2" * 5000, "-6/-4", "0/-5", "007/014"]
        for text in strings:
            new, reference = _parsed(text)
            assert new == reference, repr(text)
