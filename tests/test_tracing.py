"""The benchmark tracer's contract with the package.

perfbench/tracing.py wraps package functions by name, so a renamed or removed
name fails its install.  Here the tracer is installed and uninstalled around
one narrow decision and one crosscheck, with perfbench/ only read.
"""

import importlib.util
from pathlib import Path

import isoflag.cli  # noqa: F401  (the tracer patches every isoflag module)
from isoflag import linalg
from isoflag.higgs import decide_stability
from isoflag.hmgit import consistency_check
from isoflag.io import InstanceFile, parse_instance_text, serialize_instance
from isoflag.randgen import random_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_elimination_layers_fire_and_uninstall_restores():
    tracing = _tracing()
    a, fs, w = random_instance(5, 5, 0)
    inst = parse_instance_text(serialize_instance(InstanceFile(w, fs, a)))
    # an Unstable instance, whose one-parameter subgroup is built on the
    # Gaussian integers of its certificate on the Hilbert-Mumford side
    a, fs, w = random_instance(4, 4, 9, "shared_flag")
    unstable = parse_instance_text(serialize_instance(InstanceFile(w, fs, a)))
    before = (linalg.rref, linalg.Subspace.__dict__["from_vectors"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.rref is not before[0]
        decide_stability(inst.higgs, inst.flags, inst.weight)
        decided = tracer.fired()
        consistency_check(unstable.higgs, unstable.flags, unstable.weight)
        checked = tracer.fired()
        # a kernel of Scalar rows is built from Scalar vectors
        linalg.kernel_basis(list(unstable.higgs.span().rows), unstable.weight.q)
    finally:
        tracer.uninstall()
    # a parsed instance's rows reach rref as Gaussian integers, so neither
    # the decision nor the crosscheck builds a subspace from Scalar vectors
    assert "linalg.rref" in decided and "linalg.Subspace.from_vectors" not in checked
    assert {"linalg.rref", "linalg.Subspace.from_vectors"} <= tracer.fired()
    assert (linalg.rref, linalg.Subspace.__dict__["from_vectors"]) == before
