"""CLI outputs pinned by digest on the benchmark's instance pools.

Each entry of ``pinned_outputs.json`` is the sha256 of one CLI call's exit
code and stdout, keyed by command and instance.  ``decide FILE --seed n``
runs on the generic q = s in 5..8 and s = 4, q in {6, 8} pools, and
``crosscheck FILE`` on the s = 4 pool and the mixed-mode q in {3, 4} pools.
A refactor that claims to leave outputs alone must leave every digest alone.

An exact Stable verdict does not depend on the flags, so those digests can
miss a change in how instances are generated.  The instance files are
therefore pinned too: the canonical sha256 (sorted keys, compact separators)
of every pool instance, serialized as the benchmark writes it, must equal the
``sha256`` recorded for it in ``perfbench/reference.json``, which is only
read here.

The instances come from ``random_instance`` with the shapes, pool sizes and
modes listed below.  To record the digests of the current tree:

    PYTHONPATH=src python tests/test_pinned_outputs.py > tests/pinned_outputs.json

The pools above cover the degenerate modes only at q 3 and 4, so one
sha256 (``RANDOM_INSTANCE_GRID_SHA256``) also pins ``serialize_instance`` of
``random_instance`` in every mode for q in 2..8 and s in {3, q + 1}.

``gen`` builds its instance through another path (``random_weight``,
``random_flag_system`` and ``generate_stable_instance``), so its exit code
and stdout are pinned the same way, in ``gen_outputs.json``, for q in 2..8,
s in {q + 2, q + 3}, seeds 0..2 and both regions.  To record them:

    PYTHONPATH=src python tests/test_pinned_outputs.py gen > tests/gen_outputs.json

No pool has q >= 9 or generic rows at s = 3, so ``GENERIC_GRID_SHA256``
pins ``decide_stability``'s verdict JSON on generic ``random_instance`` at
q6-q10 s4, q7 s3, q8 s3 and q8 s5, seeds 0..11.

A verdict is a property of the instance, not of how it is written down.
So decide and crosscheck must print the same bytes when each flag is given
by another adapted basis of the same flag (helpers.rebased_flag) or the
rows A by another basis of their span (helpers.recombined_rows), on every
pool instance and, for decide, on ROADMAP's census grid.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from isoflag.cli import main
from isoflag.flags import FlagSystem
from isoflag.higgs import decide_stability
from isoflag.io import InstanceFile, serialize_instance, verdict_to_json
from isoflag.randgen import mixed_mode, random_instance

from helpers import rebased_flag, recombined_rows

FIXTURE = Path(__file__).resolve().parent / "pinned_outputs.json"
GEN_FIXTURE = Path(__file__).resolve().parent / "gen_outputs.json"
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# sha256 over serialize_instance(random_instance(q, s, 5 q + k, MODES[k]))
# for q in 2..8, each mode k in turn and s in {3, q + 1}, in that order
RANDOM_INSTANCE_GRID_SHA256 = "e946a5f9aae83656e79e4a31c417caee26d169f9b7fa5d91b807d7a08fb8a4eb"
MODES = ("generic", "low_rank", "isotropic_span", "shared_flag")

# ROADMAP's census grid: random_instance(q, s, seed, mixed_mode(seed)) for
# seeds 0..11 at these shapes
CENSUS_SHAPES = ((4, 4), (4, 5), (4, 6), (5, 4), (5, 5), (6, 4), (6, 5), (6, 6), (7, 4), (8, 4))

# per shape (q, s), sha256 over json.dumps(verdict_to_json(decide_stability(
# *random_instance(q, s, seed))), indent=2) + "\n" for seeds 0..11 in turn:
# generic rows where T = span(A)^perp holds an isotropic plane, at q up to
# 10, beyond the benchmark pools
GENERIC_GRID_SHA256 = {
    (6, 4): "e7c46dea2eb02a86c26dd47a16a1ed2d198e9165a0e69d10e4600c5eac6a4f96",
    (7, 4): "8892e0e8dab3f3c08779bfcc07e44a9a437f8b3f9e1574d0e29cca78bfc7160c",
    (8, 4): "1e51b3e61c90057bb262be9c51b423a02435399cf795fcc37fed4937ece0ddca",
    (9, 4): "a5dd8b23a0bc53fc15d7baf7a295c3a5af7c3de630ed15462921cb786f02ec4f",
    (10, 4): "ecf9e935f25086335d3fadf5812eaf6d098df94c0a1fa3f41291d79f01f9bb90",
    (7, 3): "3696a5187c57a06d07670151a5eeec958de2a88e4dc6957534f896dc9edca294",
    (8, 3): "05c95ef4750db2018fad0e7169a7d32fb5f711812aa5ec6d420d520fd264772f",
    (8, 5): "7d0a3f575a4eb23b80f7b809bc05fd19ee5eb960bba35868d541d4e874b68ecc",
}

# (q, s, mixed-mode schedule, pool size) per shape
DECIDE_POOLS = ((5, 5, False, 8), (6, 6, False, 8), (7, 7, False, 8), (8, 8, False, 8),
                (6, 4, False, 3), (8, 4, False, 1))
CROSSCHECK_POOLS = ((6, 4, False, 3), (8, 4, False, 1)) + tuple(
    (q, s, True, 10) for q, s in ((3, 4), (3, 5), (4, 4), (4, 5), (4, 6)))


def _calls() -> list[tuple[str, int, int, int, str]]:
    """(command, q, s, seed, mode) for every pinned call."""
    out = []
    for command, pools in (("decide", DECIDE_POOLS), ("crosscheck", CROSSCHECK_POOLS)):
        for q, s, mixed, pool in pools:
            for seed in range(pool):
                out.append((command, q, s, seed, mixed_mode(seed) if mixed else "generic"))
    return out


def _instances() -> list[tuple[int, int, int, str]]:
    """(q, s, seed, mode) for every instance of every pool above."""
    return [(q, s, seed, mixed_mode(seed) if mixed else "generic")
            for q, s, mixed, pool in dict.fromkeys(DECIDE_POOLS + CROSSCHECK_POOLS)
            for seed in range(pool)]


def _instance_key(q: int, s: int, seed: int, mode: str) -> str:
    return f"q{q}s{s}-{mode}-{seed}"


def _key(command: str, q: int, s: int, seed: int, mode: str) -> str:
    return f"{command} {_instance_key(q, s, seed, mode)}"


def _gen_argvs() -> list[list[str]]:
    """The argv of every pinned gen call."""
    return [["gen", "--q", str(q), "--s", str(s), "--seed", str(seed), "--region", region]
            for q in range(2, 9) for s in (q + 2, q + 3) for seed in range(3)
            for region in ("W", "Wprime")]


def _run(argv: list[str]) -> str:
    """sha256 of '<exit code>\\n<stdout>' for one CLI call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    return hashlib.sha256(f"{rc}\n{out.getvalue()}".encode()).hexdigest()


@cache
def _bench_reference() -> dict:
    return json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))


def _instance_text(q: int, s: int, seed: int, mode: str, move=None) -> str:
    """The instance file as the benchmark writes it, or, with a move, the
    instance move(a, fs, w, Random(seed)) gives in its place."""
    a, fs, w = random_instance(q, s, seed, mode)
    if move is not None:
        a, fs, w = move(a, fs, w, random.Random(seed))
    return serialize_instance(InstanceFile(w, fs, a, seed=seed, metadata={"mode": mode}))


def _digest(directory: Path, command: str, q: int, s: int, seed: int, mode: str,
            text: str | None = None) -> str:
    """sha256 of '<exit code>\\n<stdout>' for one call on a freshly written
    instance file, the benchmark's unless its text is given (crosscheck
    prints the file's stem, so the name is fixed)."""
    path = directory / f"{_instance_key(q, s, seed, mode)}.instance.json"
    path.write_text(text or _instance_text(q, s, seed, mode), encoding="utf-8")
    return _run([command, str(path)] + (["--seed", str(seed)] if command == "decide" else []))


@pytest.mark.parametrize("call", _calls(), ids=lambda c: _key(*c).replace(" ", "-"))
def test_output_pinned(call, tmp_path):
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert _digest(tmp_path, *call) == pinned[_key(*call)]


def _rebased_flags(a, fs, w, rng):
    return a, FlagSystem(tuple(rebased_flag(flag, rng) for flag in fs.flags)), w


@pytest.mark.parametrize("move", [_rebased_flags, recombined_rows],
                         ids=["rebased-flags", "recombined-rows"])
def test_output_invariant_under_presentation(move, tmp_path):
    # the same instance presented otherwise: each flag by another adapted
    # basis of the same flag, or the rows A by another basis of their span.
    # decide and crosscheck on every pool instance, and decide on the
    # census grid, whose Unstable verdicts print witnesses found in leaves
    # other than T, must print the same bytes with the same exit code
    census = [(q, s, seed, mixed_mode(seed)) for q, s in CENSUS_SHAPES for seed in range(12)]
    cases = ([(i, ("decide", "crosscheck")) for i in _instances()]
             + [(i, ("decide",)) for i in census])
    moved = 0
    for instance, commands in cases:
        text, moved_text = _instance_text(*instance), _instance_text(*instance, move)
        moved += moved_text != text
        for command in commands:
            assert _digest(tmp_path, command, *instance, moved_text) == \
                _digest(tmp_path, command, *instance, text), _key(command, *instance)
    assert moved >= len(cases) - 4


@pytest.mark.parametrize("shape", sorted(GENERIC_GRID_SHA256), ids=lambda qs: "q%ds%d" % qs)
def test_generic_grid_verdicts_pinned(shape):
    digest = hashlib.sha256()
    for seed in range(12):
        verdict = decide_stability(*random_instance(*shape, seed))
        digest.update((json.dumps(verdict_to_json(verdict), indent=2) + "\n").encode())
    assert digest.hexdigest() == GENERIC_GRID_SHA256[shape]


def test_fixture_covers_every_call():
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(_key(*c) for c in _calls())
    assert len(pinned) == 36 + 54


@pytest.mark.parametrize("instance", _instances(), ids=lambda i: _instance_key(*i))
def test_instance_file_pinned(instance):
    canon = json.dumps(json.loads(_instance_text(*instance)), sort_keys=True,
                       separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == \
        _bench_reference()[_instance_key(*instance)]["sha256"]


def test_instance_pools_are_the_benchmark_pools():
    assert sorted(_bench_reference()) == sorted(_instance_key(*i) for i in _instances())


def test_random_instance_grid_pinned():
    digest = hashlib.sha256()
    for q in range(2, 9):
        for k, mode in enumerate(MODES):
            for s in (3, q + 1):
                a, fs, w = random_instance(q, s, 5 * q + k, mode)
                digest.update(serialize_instance(InstanceFile(w, fs, a)).encode())
    assert digest.hexdigest() == RANDOM_INSTANCE_GRID_SHA256


def test_gen_output_pinned():
    pinned = json.loads(GEN_FIXTURE.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(" ".join(argv) for argv in _gen_argvs())
    assert len(pinned) == 7 * 2 * 3 * 2
    assert {" ".join(argv): _run(argv) for argv in _gen_argvs()} == pinned


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] == ["gen"]:
        digests = {" ".join(argv): _run(argv) for argv in _gen_argvs()}
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digests = {_key(*c): _digest(Path(tmp), *c) for c in _calls()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
