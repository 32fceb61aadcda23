"""The benchmark gate's contract with the package.

perfbench/gate.py re-verifies every Unstable certificate of a timed call by
reading it back from decide's JSON with its own reader,
_certificate_from_json.  That reader is the only caller of ExtensionLine's
Scalar constructor and of io.scalar_from_json and vector_from_json, so a
change to any of them would show first as a failing gate.  Here gate.py is
loaded with perfbench/ only read, and every certificate it rebuilds must
equal the one the decision made.
"""

import importlib.util
import json
from pathlib import Path

from isoflag.higgs import Certificate, ExtensionLine, decide_stability, line_oracle
from isoflag.io import (InstanceFile, certificate_to_json, parse_instance_text,
                        serialize_instance, verdict_to_json)
from isoflag.randgen import random_instance

from test_pinned_outputs import _instances

GATE = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"


def _gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parsed(q, s, seed, mode):
    """The instance as decide reads it: serialized, then parsed."""
    a, fs, w = random_instance(q, s, seed, mode)
    inst = parse_instance_text(serialize_instance(InstanceFile(w, fs, a)))
    return inst.higgs, inst.flags, inst.weight


def test_unstable_certificates_of_the_pinned_pools_rebuild_equal():
    gate = _gate()
    kinds = []
    for case in _instances():
        verdict = decide_stability(*_parsed(*case))
        if verdict.tag != "Unstable":
            continue
        obj = json.loads(json.dumps(verdict_to_json(verdict)))["certificate"]
        assert gate._certificate_from_json(obj) == verdict.certificate, case
        kinds.append(verdict.certificate.kind)
    # both kinds, on every Unstable instance of the pools
    assert len(kinds) == 10 and set(kinds) == {"isotropic_span", "positive_coisotropic"}


def test_witness_line_rebuilds_equal():
    # the narrow instance q5 s5 seed 0 has its best isotropic lines over an
    # extension only; the gate reads such a line through ExtensionLine's
    # Scalar constructor and io's Scalar readers
    gate = _gate()
    a, fs, w = _parsed(5, 5, 0, "generic")
    oracle = line_oracle(a.span_perp(), fs, w)
    assert isinstance(oracle.witness, ExtensionLine)
    cert = Certificate("positive_coisotropic", witness=oracle.witness, pardeg=oracle.value)
    obj = json.loads(json.dumps(certificate_to_json(cert)))
    assert "witness_line" in obj
    assert gate._certificate_from_json(obj) == cert
