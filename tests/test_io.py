import io
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from isoflag.cli import main
from isoflag.errors import InputError, InternalConsistencyError, ParseError
from isoflag.flags import FlagSystem
from isoflag.higgs import decide_stability, isotropic_radicals
from isoflag.hmgit import consistency_check
from isoflag.io import (
    InstanceFile,
    instance_from_json,
    oneps_from_json,
    oneps_to_json,
    parse_instance_text,
    serialize_instance,
    subspace_from_json,
    subspace_to_json,
    verdict_to_json,
    weight_from_json,
)
from isoflag.linalg import BilinearForm, Subspace, isotropy_classify
from isoflag.randgen import mixed_mode, random_flag_system, random_instance, random_weight
from isoflag.scalars import Scalar, parse_fraction, parse_rational
from isoflag.weights import Weight

from helpers import (flag_from_rows, flag_to_json, higgs_from_rows, hyperbolic_basis,
                     instance_to_json, matrix_to_json, oneps_from_rows, random_scalar, sc,
                     standard_basis, weight_to_json)
from test_pinned_outputs import CROSSCHECK_POOLS, MODES

W_Q2 = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)


MALFORMED = ["1_000", "\u0663", "\uff11\uff12", " 1 / 2 ", " 1", "1 ", "1\n", "",
             "+", "1/", "/2", "1//2", "1.5", "1e3", "0x10", "--1", "1/2/3"]


def vec(*entries):
    return tuple(sc(x) for x in entries)


def quad_instance() -> dict:
    """A q = 4, s = 4 instance as JSON: flag 1's row 2 and A's row 1 have a
    fourth entry."""
    a, fs, w = random_instance(4, 4, 3)
    return instance_to_json(InstanceFile(w, fs, a, seed=3))


def make_instance(rows) -> InstanceFile:
    return InstanceFile(W_Q2, FlagSystem.standard(2, 4),
                        higgs_from_rows(2, 4, rows), seed=0)


class TestRoundTrip:
    def test_weight(self):
        obj = weight_to_json(W_Q2)
        assert obj["alpha"][0] == "1/8"
        assert weight_from_json(obj) == W_Q2

    def test_instances_random(self):
        for trial in range(120):
            q = trial % 3 + 2
            a, fs, w = random_instance(q, 4 + trial % 3, trial, mode=mixed_mode(trial))
            inst = InstanceFile(w, fs, a, seed=trial)
            text = serialize_instance(inst)
            back = parse_instance_text(text)
            assert back.weight == inst.weight
            assert back.higgs == inst.higgs
            assert all((f1.zi_rows, f1.den) == (f2.zi_rows, f2.den)
                       for f1, f2 in zip(back.flags.flags, inst.flags.flags))
            # canonical form is a fixed point of parse/serialize
            assert serialize_instance(back) == text

    def test_oneps(self):
        lam = oneps_from_rows(2, (1, 0, -1), standard_basis(3))
        assert oneps_from_json(oneps_to_json(lam)) == lam

    def test_a_over_mixed_denominators(self):
        """A is held over one denominator, 42 here, and written from it: each
        entry still prints as its own reduced fraction, so a file whose rows
        of A have denominators 2, 3 and 7 is a fixed point of
        serialize(parse)."""
        a, fs, w = random_instance(4, 5, 2)
        obj = instance_to_json(InstanceFile(w, fs, a))

        def row(*entries):
            return [{"re": re, "im": im} for re, im in entries]

        obj["A"] = [row(("1/2", "0"), ("0", "-3/2"), ("5", "0"), ("-1/2", "1/2")),
                    row(("2/3", "0"), ("-1", "1/3"), ("0", "0"), ("0", "4/3")),
                    row(("0", "6/7"), ("-1/7", "0"), ("3", "-2"), ("9/7", "1/7"))]
        text = json.dumps(obj, indent=2)
        back = parse_instance_text(text)
        assert back.higgs.den == 42
        assert serialize_instance(back) == text

    def test_subspaces_of_the_crosscheck_pool(self):
        """T, the harvest's radicals and the certificate subspaces of every
        crosscheck pool instance read back from their JSON as themselves."""
        kinds = set()
        for q, s, mixed, size in CROSSCHECK_POOLS:
            form = BilinearForm(q)
            for seed in range(size):
                a, fs, w = random_instance(q, s, seed, mixed_mode(seed) if mixed else "generic")
                t_sub = a.span_perp()
                subs = [t_sub, *isotropic_radicals(t_sub, isotropy_classify(t_sub, form)[1],
                                                   fs, 1)]
                cert = decide_stability(a, fs, w).certificate
                if cert is not None:
                    kinds.add(cert.kind)
                    subs += [sub for sub in (cert.span, cert.witness, cert.coisotropic)
                             if isinstance(sub, Subspace)]
                for sub in subs:
                    assert subspace_from_json(subspace_to_json(sub), "/s") == sub, (q, s, seed)
        assert kinds == {"isotropic_span", "positive_coisotropic"}

    def test_subspace_reader_matches_from_vectors(self):
        """The reader eliminates Gaussian-integer rows and Subspace.from_vectors
        Scalar rows; both give the same subspace on rows that are not a
        canonical basis: zero, repeated and dependent rows, mixed
        denominators and purely imaginary entries."""
        rng = random.Random(61)
        for q in range(1, 7):
            for _ in range(6):
                rows = [tuple(random_scalar(rng, 7) for _ in range(q))
                        for _ in range(rng.randint(1, q))]
                rows.append(tuple(Scalar(0, x.im) for x in rows[0]))
                rows.append(tuple(Scalar(0, F(rng.randint(-5, 5), 7)) for _ in range(q)))
                c = random_scalar(rng, 3)
                rows.append(tuple(c * x + y for x, y in zip(rows[0], rows[-1])))
                rows += [rows[1], tuple(sc(0) for _ in range(q))]
                rng.shuffle(rows)
                sub = subspace_from_json({"ambient": q, "rows": matrix_to_json(rows)}, "/s")
                assert sub == Subspace.from_vectors(rows, q), (q, rows)


class TestParseErrors:
    @pytest.mark.parametrize("error", [
        ParseError("/flags/1", "flag dimension does not match weight q"),
        InputError("matrix is singular"),
        InternalConsistencyError("inexact fraction-free division"),
    ])
    def test_error_survives_pickling(self, error):
        # a batch worker process sends its error back pickled
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error) and str(back) == str(error)
        if isinstance(error, ParseError):
            assert (back.path, back.message) == (error.path, error.message)

    def test_zero_denominator(self):
        obj = instance_to_json(make_instance((vec(1, 0), vec(0, 1))))
        obj["weight"]["alpha"][0] = "1/0"
        with pytest.raises(ParseError) as err:
            instance_from_json(obj)
        assert "alpha/0" in str(err.value)

    def test_missing_field(self):
        with pytest.raises(ParseError) as err:
            parse_instance_text(json.dumps({"weight": weight_to_json(W_Q2)}))
        assert "flags" in str(err.value)

    def test_wrong_row_count(self):
        obj = instance_to_json(make_instance((vec(1, 0), vec(0, 1))))
        obj["A"] = obj["A"][:1]
        with pytest.raises(ParseError) as err:
            instance_from_json(obj)
        assert "/A" in str(err.value)

    def test_malformed_rational(self):
        obj = instance_to_json(make_instance((vec(1, 0), vec(0, 1))))
        obj["weight"]["beta"][2][1] = "x/3"
        with pytest.raises(ParseError) as err:
            instance_from_json(obj)
        assert "beta/2/1" in str(err.value)

    @pytest.mark.parametrize("field,value,message", [("s", 1, "s must be at least 3"),
                                                     ("s", 2, "s must be at least 3"),
                                                     ("q", 1, "q must be at least 2")])
    def test_shape_below_minimum(self, tmp_path, capsys, field, value, message):
        # rejected at /weight before q or s sizes any array (s = 1 once
        # failed as "/A: expected -1 rows")
        obj = instance_to_json(make_instance((vec(1, 0), vec(0, 1))))
        obj["weight"][field] = value
        with pytest.raises(ParseError, match=message) as err:
            instance_from_json(obj)
        assert err.value.path == "/weight"
        path = tmp_path / "x.instance.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for command in ("decide", "validate"):
            assert main([command, str(path)]) == 65
            assert f"/weight: {message}" in capsys.readouterr().err


    def _rejected(self, obj, tmp_path, capsys, pointer, message):
        """obj fails to parse, as a library call and as `decide`, at pointer
        with message."""
        with pytest.raises(ParseError) as err:
            parse_instance_text(json.dumps(obj))
        assert (err.value.path, err.value.message) == (pointer, message)
        path = tmp_path / "x.instance.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["decide", str(path)]) == 65
        assert f"{path}:{pointer}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        *((t, f"malformed rational {t!r}") for t in MALFORMED),
        ("1/0", "zero denominator"), ("-3/+0", "zero denominator"),
        (3, "expected a rational string, got int"),
        (None, "expected a rational string, got NoneType"),
        (["0"], "expected a rational string, got list")])
    @pytest.mark.parametrize("where", [("flags", 1, 2, 3, "im"), ("A", 1, 2, "re")])
    def test_entry_rejected(self, tmp_path, capsys, text, message, where):
        obj = quad_instance()
        entry = obj
        for key in where[:-1]:
            entry = entry[key]
        entry[where[-1]] = text
        pointer = "".join(f"/{key}" for key in where)
        self._rejected(obj, tmp_path, capsys, pointer, message)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.11")
    @pytest.mark.parametrize("where", [("A", 0, 0, "re"), ("flags", 1, 2, 3, "im"),
                                       ("weight", "beta", 0, 0), ("weight", "alpha", 2)])
    def test_numeral_past_digit_limit(self, tmp_path, capsys, where):
        """A numeral int() will not read is bad input at its pointer (exit
        65), not an internal error."""
        obj = quad_instance()
        entry = obj
        for key in where[:-1]:
            entry = entry[key]
        entry[where[-1]] = "-" + "7" * 5000
        pointer = "".join(f"/{key}" for key in where)
        message = f"numeral too long (over {sys.get_int_max_str_digits()} digits)"
        self._rejected(obj, tmp_path, capsys, pointer, message)

    @pytest.mark.parametrize("spoil,pointer,message", [
        (lambda f: f[2].__setitem__(3, "0"), "/flags/1/2/3",
         "expected an object with 're' and 'im'"),
        (lambda f: f[2][3].__setitem__("x", "0"), "/flags/1/2/3",
         "expected an object with 're' and 'im'"),
        (lambda f: f[2][3].pop("re"), "/flags/1/2/3", "expected an object with 're' and 'im'"),
        (lambda f: f.__setitem__(2, {"re": "0"}), "/flags/1/2", "expected an array"),
        (lambda f: f[2].pop(), "/flags/1", "ragged matrix"),
        (lambda f: f.pop(), "/flags/1", "flag basis must be a square matrix"),
        (lambda f: [row.pop() for row in f], "/flags/1", "flag basis must be a square matrix"),
        (lambda f: f.clear(), "/flags/1", "flag basis must be a square matrix"),
        # a bad entry in a later row is reported before the raggedness above it
        (lambda f: (f[0].pop(), f[3][1].__setitem__("re", "x")), "/flags/1/3/1/re",
         "malformed rational 'x'"),
        (lambda f: (f[0].pop(), f[3][1].__setitem__("im", "1/0")), "/flags/1/3/1/im",
         "zero denominator"),
    ])
    def test_flag_shape_rejected(self, tmp_path, capsys, spoil, pointer, message):
        obj = quad_instance()
        spoil(obj["flags"][1])
        self._rejected(obj, tmp_path, capsys, pointer, message)

    @pytest.mark.parametrize("obj,pointer,message", [
        # ambient -2 once built Subspace(ambient=-2)
        ({"ambient": -2, "rows": []}, "/span/ambient", "ambient must be a positive integer"),
        ({"ambient": 0, "rows": []}, "/span/ambient", "ambient must be a positive integer"),
        ({"ambient": True, "rows": []}, "/span/ambient", "ambient must be a positive integer"),
        # a short or long row once raised a bare InputError from from_vectors
        ({"ambient": 3, "rows": [[{"re": "1", "im": "0"}] * 2]}, "/span/rows",
         "rows must have length 3"),
        ({"ambient": 1, "rows": [[{"re": "1", "im": "0"}] * 2] * 2}, "/span/rows",
         "rows must have length 1"),
        # a fault in the rows raises at its own pointer, as in a flag
        ({"rows": []}, "/span", "expected an object with 'ambient' and 'rows'"),
        ([], "/span", "expected an object with 'ambient' and 'rows'"),
        ({"ambient": False, "rows": []}, "/span/ambient", "ambient must be a positive integer"),
        ({"ambient": 3, "rows": [[]]}, "/span/rows", "rows must have length 3"),
        ({"ambient": 2, "rows": {}}, "/span/rows", "expected an array of rows"),
        ({"ambient": 2, "rows": [[{"re": "1", "im": "0"}] * 2, [{"re": "1", "im": "0"}]]},
         "/span/rows", "ragged matrix"),
        ({"ambient": 2, "rows": [[{"re": "1", "im": "0"}, "0"]]}, "/span/rows/0/1",
         "expected an object with 're' and 'im'"),
        ({"ambient": 2, "rows": [[{"re": "1", "im": "0"}] * 2, [{"re": "1", "im": "x"}] * 2]},
         "/span/rows/1/0/im", "malformed rational 'x'"),
        ({"ambient": 1, "rows": [[{"re": "1/0", "im": "0"}]]}, "/span/rows/0/0/re",
         "zero denominator"),
    ])
    def test_subspace_rejected(self, obj, pointer, message):
        with pytest.raises(ParseError) as err:
            subspace_from_json(obj, "/span")
        assert (err.value.path, err.value.message) == (pointer, message)

    @pytest.mark.parametrize("sizes,pointer", [({1: 3}, "/flags/1"), ({2: 5}, "/flags/2"),
                                               ({j: 3 for j in range(4)}, "/flags/0")])
    def test_flag_size_rejected(self, tmp_path, capsys, sizes, pointer):
        """A flag whose size is not the weight's q is bad input at its own
        pointer, the first such flag's when there are several, and batch
        names the file."""
        obj = quad_instance()
        for j, size in sizes.items():
            obj["flags"][j] = [[{"re": str(int(i == k)), "im": "0"} for k in range(size)]
                               for i in range(size)]
        message = "flag dimension does not match weight q"
        self._rejected(obj, tmp_path, capsys, pointer, message)
        directory = tmp_path / "batch"
        directory.mkdir()
        (directory / "bad-size.instance.json").write_text(json.dumps(obj), encoding="utf-8")
        assert main(["batch", str(directory)]) == 65
        assert f"bad-size.instance.json:{pointer}: {message}" in capsys.readouterr().err

    def test_flag_not_an_array(self, tmp_path, capsys):
        obj = quad_instance()
        obj["flags"][1] = {"re": "0", "im": "0"}
        self._rejected(obj, tmp_path, capsys, "/flags/1", "expected an array of rows")


class TestParsedFlags:
    """A flag read from a file is held as the integer basis a generated flag
    is drawn in."""

    MODES = ("generic", "low_rank", "isotropic_span", "shared_flag")

    def test_parsed_matches_generated(self):
        for q in range(2, 9):
            for s in range(3, 7):
                for k, mode in enumerate(self.MODES):
                    seed = 10 * q + s + k
                    a, fs, w = random_instance(q, s, seed, mode)
                    text = serialize_instance(InstanceFile(w, fs, a, seed=seed))
                    back = parse_instance_text(text)
                    for parsed, made in zip(back.flags.flags, fs.flags):
                        assert ((parsed.zi_rows, parsed.den, parsed.hyperbolic)
                                == (made.zi_rows, made.den, made.hyperbolic)), \
                            (q, s, mode)
                        # parsing builds no echelon
                        assert parsed._last is made._last is None
                    assert back.higgs == a and hash(back.higgs) == hash(a), (q, s, mode)
                    assert serialize_instance(back) == text, (q, s, mode)

    def test_decide_builds_no_flag_scalars(self, monkeypatch):
        a, fs, w = random_instance(8, 8, 1)
        text = serialize_instance(InstanceFile(w, fs, a))

        built = []
        scalar_init = Scalar.__init__

        def counting_init(self, re=0, im=0):
            built.append(1)
            scalar_init(self, re, im)

        monkeypatch.setattr(Scalar, "__init__", counting_init)
        inst = parse_instance_text(text)
        # no Scalar per entry of A or of a flag
        assert built == []
        monkeypatch.setattr(Scalar, "__init__", scalar_init)
        verdict = decide_stability(inst.higgs, inst.flags, inst.weight)
        monkeypatch.undo()
        assert verdict_to_json(verdict) == verdict_to_json(decide_stability(a, fs, w))


class TestInstanceWriter:
    """serialize_instance writes its text straight from the stored numbers;
    json.dumps(instance_to_json(inst), indent=2), the instance built as a
    JSON object in tests/helpers.py, is the reference it equals byte for
    byte."""

    # the metadata goes through json: nested values, a float, a null, empty
    # containers, an escaped newline and non-ASCII text stay as json writes them
    NESTED = {"mode": "generic", "runs": [1, 2.5, None, {}, [], {"kl\u00e4rt": "\u00e9\n"}],
              "ok": True, "note": "tab\there"}

    def test_matches_json_on_the_grid(self):
        for q in range(2, 9):
            for k, mode in enumerate(MODES):
                for s in (3, q + 1):
                    a, fs, w = random_instance(q, s, 5 * q + k, mode)
                    for seed in (None, 0, -3):
                        for metadata in ({}, {"mode": mode}, self.NESTED):
                            inst = InstanceFile(w, fs, a, seed=seed, metadata=metadata)
                            text = serialize_instance(inst)
                            assert text == json.dumps(instance_to_json(inst), indent=2), \
                                (q, s, mode, seed, metadata)
                            assert serialize_instance(parse_instance_text(text)) == text


class TestIntegerWriters:
    """Flags, A, eigenbases and subspaces are written straight from their
    Gaussian integers; the same values as Scalar rows, written by the
    Scalar writer in tests/helpers.py, are the reference."""

    @staticmethod
    def _rows(rng, nrows, q):
        """Scalar rows with zero, negative and non-integer parts, and one
        zero row."""
        rows = [tuple(random_scalar(rng, 7) if rng.random() < 0.6 else sc(0) for _ in range(q))
                for _ in range(nrows)]
        rows[rng.randrange(nrows)] = tuple(sc(0) for _ in range(q))
        return rows

    def test_match_scalar_writer(self):
        rng = random.Random(57)
        texts = set()
        for q in range(2, 9):
            for trial in range(4):
                s = rng.randint(3, 6)
                basis = self._rows(rng, q, q)
                flag_json = flag_to_json(flag_from_rows(basis))
                assert flag_json == matrix_to_json(basis), (q, trial)
                a_rows = self._rows(rng, s - 2, q)
                inst = InstanceFile(random_weight(q, s, trial), random_flag_system(q, s, trial),
                                    higgs_from_rows(q, s, a_rows))
                a_json = json.loads(serialize_instance(inst))["A"]
                assert a_json == matrix_to_json(a_rows), (q, trial)
                eigen = hyperbolic_basis(BilinearForm(q), 10 * q + trial)
                lam = oneps_from_rows(0, (0,) * q, eigen)
                assert oneps_to_json(lam)["basis"] == matrix_to_json(eigen), (q, trial)
                sub = Subspace.from_vectors(a_rows, q)
                assert subspace_to_json(sub) == {"ambient": q, "rows": matrix_to_json(sub.rows)}
                texts.update(x[part] for row in flag_json + a_json for x in row
                             for part in ("re", "im"))
        assert "0" in texts
        assert any(t.startswith("-") for t in texts) and any("/" in t for t in texts)


class TestStrictNumbers:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_rational_rejected(self, text):
        with pytest.raises(ParseError) as err:
            parse_fraction(text, "/x")
        assert err.value.path == "/x"

    @pytest.mark.parametrize("text,value", [("0", F(0)), ("-3/4", F(-3, 4)),
                                            ("+3/-4", F(-3, 4)), ("007", F(7)),
                                            ("6/4", F(3, 2)), ("-6/-4", F(3, 2)),
                                            ("0/-5", F(0))])
    def test_rational_accepted(self, text, value):
        assert parse_fraction(text) == value
        assert parse_rational(text) == (value.numerator, value.denominator)

    @pytest.mark.parametrize("text", ["1_000", "\u0663", "\uff11\uff12", " 1 / 2 "])
    def test_rational_rejected_by_cli(self, tmp_path, capsys, text):
        obj = instance_to_json(make_instance((vec(1, 0), vec(0, 1))))
        obj["weight"]["alpha"][1] = text
        path = tmp_path / "x.instance.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["decide", str(path)]) == 65
        assert "/weight/alpha/1: malformed rational" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["q", "s"])
    def test_bool_shape_rejected(self, tmp_path, capsys, field):
        obj = instance_to_json(make_instance((vec(1, 0), vec(0, 1))))
        obj["weight"][field] = True
        with pytest.raises(ParseError, match="q and s must be integers"):
            instance_from_json(obj)
        path = tmp_path / "x.instance.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["decide", str(path)]) == 65

    def test_bool_seed_rejected(self, tmp_path, capsys):
        obj = instance_to_json(make_instance((vec(1, 0), vec(0, 1))))
        obj["seed"] = True
        with pytest.raises(ParseError, match="seed must be an integer"):
            instance_from_json(obj)
        path = tmp_path / "x.instance.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["decide", str(path)]) == 65

    @pytest.mark.parametrize("field", ["l", "m"])
    def test_bool_oneps_rejected(self, tmp_path, unstable_file, capsys, field):
        obj = oneps_to_json(oneps_from_rows(1, (1, -1), standard_basis(2)))
        if field == "l":
            obj["l"] = True
        else:
            obj["m"][0] = True
        with pytest.raises(ParseError, match=f"{field} must be"):
            oneps_from_json(obj)
        path = tmp_path / "lam.oneps.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["hm", str(unstable_file), "--oneps", str(path)]) == 65


class TestVerdictJson:
    def test_stable(self):
        inst = make_instance((vec(1, 0), vec(0, 1)))
        verdict = decide_stability(inst.higgs, inst.flags, inst.weight)
        out = verdict_to_json(verdict)
        assert out["verdict"] == "Stable"

    def test_unstable_certificate(self):
        inst = make_instance((vec(1, 0), vec(1, 0)))
        verdict = decide_stability(inst.higgs, inst.flags, inst.weight)
        out = verdict_to_json(verdict)
        assert out["verdict"] == "Unstable"
        assert out["certificate"]["kind"] == "isotropic_span"


@pytest.fixture
def stable_file(tmp_path):
    inst = make_instance((vec(1, 0), vec(0, 1)))
    path = tmp_path / "stable.instance.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return path


@pytest.fixture
def unstable_file(tmp_path):
    inst = make_instance((vec(1, 0), vec(1, 0)))
    path = tmp_path / "unstable.instance.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return path


class TestCli:
    def test_decide_exit_codes(self, stable_file, unstable_file, capsys):
        assert main(["decide", str(stable_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Stable"
        assert main(["decide", str(unstable_file)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["certificate"]["kind"] == "isotropic_span"

    def test_validate(self, stable_file, capsys):
        assert main(["validate", str(stable_file)]) == 0
        assert json.loads(capsys.readouterr().out)["valid"]

    def test_regions(self, stable_file, capsys):
        assert main(["regions", str(stable_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["in_W"] and out["j_interval"]["contained_integer"] == -1
        assert out["toledo"] == "-1/2"

    def test_usage_error(self, capsys):
        assert main(["decide"]) == 64

    def test_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.instance.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["decide", str(bad)]) == 65

    def test_batch_data_error_names_the_file(self, tmp_path, stable_file, capsys):
        bad = tmp_path / "broken.instance.json"
        bad.write_text("{", encoding="utf-8")
        for jobs in ("1", "2"):
            # the pool re-raises the worker's error, which must unpickle
            assert main(["batch", str(tmp_path), "--jobs", jobs]) == 65, jobs
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {bad}:/: not valid JSON"), jobs

    def test_batch_reports_the_good_files(self, tmp_path, stable_file, capsys):
        # a malformed file (a ParseError) and a weight outside the region (an
        # InputError, raised by the decision) each give one stderr line and
        # no row, and the good file's row is still reported
        (tmp_path / "broken.instance.json").write_text("{", encoding="utf-8")
        obj = json.loads(stable_file.read_text(encoding="utf-8"))
        obj["weight"]["beta"][0][0] = "1/2"
        beta_half = tmp_path / "beta-half.instance.json"
        beta_half.write_text(json.dumps(obj), encoding="utf-8")
        for jobs in ("1", "2"):
            assert main(["batch", str(tmp_path), "--jobs", jobs]) == 65, jobs
            captured = capsys.readouterr()
            out = json.loads(captured.out)
            assert (out["instances"], out["errors"], out["counts"]) == (1, 2, {"Stable": 1})
            assert [r["instance_id"] for r in out["rows"]] == ["stable.instance"]
            lines = captured.err.splitlines()
            assert len(lines) == 2, jobs
            assert lines[0].startswith(f"data error: {beta_half}: "), jobs
            assert lines[1].startswith(f"data error: {tmp_path / 'broken.instance.json'}:/: "
                                       "not valid JSON"), jobs

    def test_oneps_data_error_names_the_file(self, tmp_path, unstable_file, capsys):
        bad = tmp_path / "bad.oneps.json"
        bad.write_text(json.dumps({"l": 1}), encoding="utf-8")
        assert main(["hm", str(unstable_file), "--oneps", str(bad)]) == 65
        assert capsys.readouterr().err.startswith(f"data error: {bad}:/: missing field")

    def test_gen_then_decide(self, tmp_path, capsys):
        assert main(["gen", "--q", "3", "--s", "5", "--seed", "9"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "gen.instance.json"
        path.write_text(text, encoding="utf-8")
        assert main(["decide", str(path)]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--q", "-5", "--s", "5", "--region", "Wprime"], "--q must be at least 2, got -5"),
        (["--q", "1", "--s", "5"], "--q must be at least 2, got 1"),
        (["--q", "2", "--s", "2"], "--s must be at least 3, got 2"),
        (["--q", "3", "--s", "4"], "--s must be at least --q + 2 = 5, got 4"),
    ])
    def test_gen_bad_shape_is_usage_error(self, capsys, argv, message):
        # rejected before anything is generated: no data file is involved
        assert main(["gen"] + argv) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_hm_audit(self, tmp_path, unstable_file, capsys):
        lam = oneps_from_rows(1, (1, -1), standard_basis(2))
        oneps_path = tmp_path / "lam.oneps.json"
        oneps_path.write_text(json.dumps(oneps_to_json(lam)), encoding="utf-8")
        assert main(["hm", str(unstable_file), "--oneps", str(oneps_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mu"] == -48
        assert out["summands"]

    @pytest.mark.parametrize("l", [1, 2])
    def test_hm_invalid_weight_is_data_error(self, tmp_path, capsys, l):
        # alpha above 1/2; l = 2 puts the rows outside V_l, so hm_base is
        # +inf before any degree is computed, and the weight must still be
        # rejected
        w = Weight.make(2, 4, [F(3, 4)] + [F(1, 8)] * 3, [(F(1, 16), F(-1, 16))] * 4)
        inst = InstanceFile(w, FlagSystem.standard(2, 4),
                            higgs_from_rows(2, 4, (vec(1, 0), vec(1, 0))), seed=0)
        path = tmp_path / "bad-weight.instance.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        oneps_path = tmp_path / "lam.oneps.json"
        lam = oneps_from_rows(l, (1, -1), standard_basis(2))
        oneps_path.write_text(json.dumps(oneps_to_json(lam)), encoding="utf-8")
        assert main(["hm", str(path), "--oneps", str(oneps_path)]) == 65
        assert "invalid weight: alpha[1] not in [0, 1/2]" in capsys.readouterr().err

    def test_hm_missing_oneps_is_data_error(self, tmp_path, unstable_file, capsys):
        missing = tmp_path / "missing.oneps.json"
        assert main(["hm", str(unstable_file), "--oneps", str(missing)]) == 65
        assert capsys.readouterr().err.startswith("data error:")

    def test_internal_error_exit_code(self, stable_file, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalConsistencyError("simulated self-check failure")

        monkeypatch.setattr("isoflag.cli.decide_stability", broken)
        assert main(["decide", str(stable_file)]) == 70
        err = capsys.readouterr().err
        assert err == "internal error: simulated self-check failure\n"

    def test_crash_is_internal_error(self, stable_file, capsys, monkeypatch):
        # an uncaught exception would exit 1, which is decide's
        # StrictlySemistable code
        def crashing(*args, **kwargs):
            return 1 // 0

        monkeypatch.setattr("isoflag.cli.decide_stability", crashing)
        assert main(["decide", str(stable_file)]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert captured.err.splitlines()[-1] == \
            "internal error: ZeroDivisionError: integer division or modulo by zero"

    def test_closed_stdout_is_io_error(self, stable_file, capsys, monkeypatch):
        # a reader that went away is neither a verdict (1) nor a bug (70)
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["crosscheck", str(stable_file)]) == 74
        assert capsys.readouterr().err == "io error: standard output was closed\n"

    def test_closed_stdout_pipe_exits_quietly(self, stable_file):
        # the pipe's read end is closed before the process starts, so every
        # write fails; the interpreter's own flush at exit must stay quiet
        # (stdout block-buffered, as it is by default for a pipe)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "isoflag.cli", "crosscheck", str(stable_file)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 74
        assert proc.stderr == "io error: standard output was closed\n"

    def test_batch_workers_capped_by_files(self, tmp_path, capsys, monkeypatch):
        # the fork start method forks every worker at the first submit, so
        # the pool must not be asked for more workers than there are files;
        # a recording stand-in keeps this test from starting any process
        for trial in range(2):
            a, fs, w = random_instance(2, 4, trial)
            (tmp_path / f"c{trial}.instance.json").write_text(
                serialize_instance(InstanceFile(w, fs, a)), encoding="utf-8")
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # batch imports the pool class from its module when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        assert main(["batch", str(tmp_path), "--jobs", "500"]) == 0
        assert requested == [2]
        assert json.loads(capsys.readouterr().out)["instances"] == 2

    def test_batch_destabilizer_rejection_is_internal(self, unstable_file, capsys,
                                                      monkeypatch):
        # a certificate decide_stability has just produced fits its shape,
        # so a rejection is a bug and must not become an empty mu column
        def rejecting(*args, **kwargs):
            raise InputError("simulated rejection")

        monkeypatch.setattr("isoflag.hmgit.destabilizing_oneps", rejecting)
        assert main(["batch", str(unstable_file.parent), "--jobs", "1"]) == 70
        assert capsys.readouterr().err.startswith("internal error:")

    def test_crosscheck(self, tmp_path, stable_file, unstable_file, capsys):
        assert main(["crosscheck", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["instances"] == 2 and out["inconsistencies"] == 0

    def test_crosscheck_inconsistency_is_internal(self, tmp_path, stable_file, unstable_file,
                                                  capsys, monkeypatch):
        # an inconsistency is a disagreement between two of isoflag's own
        # routes: the report is printed as usual, and the exit is a bug's
        real = consistency_check

        def inconsistent(*args, **kwargs):
            res = real(*args, **kwargs)
            res["consistent"] = False
            return res

        monkeypatch.setattr("isoflag.cli.consistency_check", inconsistent)
        for target, count in ((stable_file, 1), (tmp_path, 2)):
            assert main(["crosscheck", str(target)]) == 70, target
            captured = capsys.readouterr()
            out = json.loads(captured.out)
            assert (out["instances"], out["inconsistencies"]) == (count, count), target
            assert [r["consistent"] for r in out["results"]] == [False] * count
            assert captured.err == ""

    def test_batch_counts_and_determinism(self, tmp_path, capsys):
        for trial in range(6):
            a, fs, w = random_instance(2, 4, trial, mode=mixed_mode(trial))
            inst = InstanceFile(w, fs, a, seed=trial)
            (tmp_path / f"i{trial}.instance.json").write_text(
                serialize_instance(inst), encoding="utf-8")
        assert main(["batch", str(tmp_path)]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert serial["instances"] == 6
        # batch runs no Hilbert-Mumford check: only crosscheck counts
        # inconsistencies
        assert "inconsistencies" not in serial
        assert sum(serial["counts"].values()) == 6
        csv_path = tmp_path / "out.csv"
        assert main(["batch", str(tmp_path), "--jobs", "2", "--csv", str(csv_path)]) == 0
        parallel = json.loads(capsys.readouterr().out)
        keep = ("instance_id", "q", "s", "verdict", "certificate_kind", "lower", "upper", "mu")
        strip = lambda rows: [{k: r[k] for k in keep} for r in rows]
        assert strip(parallel["rows"]) == strip(serial["rows"])
        assert csv_path.read_text(encoding="utf-8").startswith("instance_id,")

    def test_empty_batch(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["instances"] == 0 and out["counts"] == {}

    @pytest.mark.parametrize("target", ["a-directory", "missing-dir/out.csv"])
    def test_unwritable_csv_is_io_error(self, stable_file, target, capsys):
        # a --csv path that cannot be written is an I/O fault, not a bug:
        # exit 74 with one line on stderr and no traceback
        csv_path = stable_file.parent / target
        if target == "a-directory":
            csv_path.mkdir()
        assert main(["batch", str(stable_file.parent), "--csv", str(csv_path)]) == 74
        err = capsys.readouterr().err
        assert err.startswith(f"io error: cannot write {csv_path}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, stable_file, jobs, capsys):
        assert main(["batch", str(stable_file.parent), "--jobs", jobs]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --jobs must be at least 1")

    def test_cli_import_leaves_out_the_process_pool(self):
        # only a batch with --jobs > 1 imports concurrent.futures.process
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, isoflag.cli; "
             "print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_console_script_entry(self, stable_file):
        proc = subprocess.run(
            [sys.executable, "-m", "isoflag.cli", "decide", str(stable_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "Stable"
