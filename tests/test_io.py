import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from isoflag.cli import main
from isoflag.errors import InternalConsistencyError, ParseError
from isoflag.flags import FlagSystem
from isoflag.higgs import HiggsTuple, decide_stability
from isoflag.hmgit import OnePS
from isoflag.io import (
    InstanceFile,
    instance_from_json,
    instance_to_json,
    oneps_from_json,
    oneps_to_json,
    parse_instance_text,
    serialize_instance,
    verdict_to_json,
    weight_from_json,
    weight_to_json,
)
from isoflag.linalg import standard_basis
from isoflag.randgen import mixed_mode, random_instance
from isoflag.scalars import sc
from isoflag.weights import Weight

W_Q2 = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)


def vec(*entries):
    return tuple(sc(x) for x in entries)


def make_instance(rows) -> InstanceFile:
    return InstanceFile(W_Q2, FlagSystem.standard(2, 4),
                        HiggsTuple(2, 4, rows), seed=0)


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
            assert all(f1.basis == f2.basis
                       for f1, f2 in zip(back.flags.flags, inst.flags.flags))
            # canonical form is a fixed point of parse/serialize
            assert serialize_instance(back) == text

    def test_oneps(self):
        lam = OnePS(2, (1, 0, -1), tuple(standard_basis(3)))
        assert oneps_from_json(oneps_to_json(lam)) == lam


class TestParseErrors:
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

    def test_gen_then_decide(self, tmp_path, capsys):
        assert main(["gen", "--q", "3", "--s", "5", "--seed", "9"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "gen.instance.json"
        path.write_text(text, encoding="utf-8")
        assert main(["decide", str(path)]) == 0

    def test_hm_audit(self, tmp_path, unstable_file, capsys):
        lam = OnePS(1, (1, -1), tuple(standard_basis(2)))
        oneps_path = tmp_path / "lam.oneps.json"
        oneps_path.write_text(json.dumps(oneps_to_json(lam)), encoding="utf-8")
        assert main(["hm", str(unstable_file), "--oneps", str(oneps_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mu"] == -48
        assert out["summands"]

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

    def test_crosscheck(self, tmp_path, stable_file, unstable_file, capsys):
        assert main(["crosscheck", str(tmp_path), "--bound", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["instances"] == 2 and out["inconsistencies"] == 0

    def test_batch_counts_and_determinism(self, tmp_path, capsys):
        for trial in range(6):
            a, fs, w = random_instance(2, 4, trial, mode=mixed_mode(trial))
            inst = InstanceFile(w, fs, a, seed=trial)
            (tmp_path / f"i{trial}.instance.json").write_text(
                serialize_instance(inst), encoding="utf-8")
        assert main(["batch", str(tmp_path)]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert serial["instances"] == 6
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

    def test_jobs_env_override(self, tmp_path, capsys, monkeypatch):
        for trial in range(3):
            a, fs, w = random_instance(2, 4, trial)
            inst = InstanceFile(w, fs, a)
            (tmp_path / f"e{trial}.instance.json").write_text(
                serialize_instance(inst), encoding="utf-8")
        monkeypatch.setenv("ISOFLAG_JOBS", "2")
        assert main(["batch", str(tmp_path), "--jobs", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["instances"] == 3

    def test_jobs_env_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ISOFLAG_JOBS", "two")
        assert main(["batch", str(tmp_path)]) == 64
        assert capsys.readouterr().err.startswith("usage error:")

    def test_console_script_entry(self, stable_file):
        proc = subprocess.run(
            [sys.executable, "-m", "isoflag.cli", "decide", str(stable_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "Stable"
