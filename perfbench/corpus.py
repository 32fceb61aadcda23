"""Workload definitions, corpus generation and the timed set-up.

Every workload draws its instances from a fixed pool of instance seeds per
shape class, so that each instance the benchmark can ever run has a reference
verdict recorded in ``reference.json``.  The benchmark seed only chooses
which pool members form the corpus; the instances themselves come from
``isoflag.randgen.random_instance`` and are written to disk with
``isoflag.io.serialize_instance``, so every timed call parses its own file.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / "_work"


@dataclass(frozen=True)
class ShapeClass:
    """Instances random_instance(q, s, seed, mode) for seed in range(pool),
    ``take`` of which go into each corpus."""

    q: int
    s: int
    mixed: bool         # mode from randgen.mixed_mode(seed), else "generic"
    pool: int
    take: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "decide" or "crosscheck"
    classes: tuple[ShapeClass, ...]


# Why these classes, and why these weights, is written up in README.md.
WORKLOADS = {
    "narrow": Workload("narrow", "decide", (
        ShapeClass(5, 5, False, pool=8, take=2),
        ShapeClass(6, 6, False, pool=8, take=2),
        ShapeClass(7, 7, False, pool=8, take=4),
        ShapeClass(8, 8, False, pool=8, take=4),
    )),
    "wide": Workload("wide", "decide", (
        ShapeClass(6, 4, False, pool=3, take=3),
        ShapeClass(8, 4, False, pool=1, take=1),
    )),
    "crosscheck": Workload("crosscheck", "crosscheck", tuple(
        ShapeClass(q, s, True, pool=10, take=10)
        for q, s in ((3, 4), (3, 5), (4, 4), (4, 5), (4, 6))
    )),
}


@dataclass(frozen=True)
class Item:
    """One corpus instance: its shape, generation seed and file."""

    q: int
    s: int
    seed: int
    mode: str
    path: Path

    @property
    def key(self) -> str:
        return instance_key(self.q, self.s, self.mode, self.seed)


def instance_key(q: int, s: int, mode: str, seed: int) -> str:
    return f"q{q}s{s}-{mode}-{seed}"


def mode_for(cls: ShapeClass, seed: int) -> str:
    if not cls.mixed:
        return "generic"
    from isoflag.randgen import mixed_mode

    return mixed_mode(seed)


def pool_specs(workload: Workload) -> list[tuple[ShapeClass, int]]:
    """Every (class, seed) the workload can draw from."""
    return [(cls, seed) for cls in workload.classes for seed in range(cls.pool)]


def choose(workload: Workload, bench_seed: int) -> list[tuple[ShapeClass, int]]:
    """The corpus for a benchmark seed, classes interleaved round-robin so
    that the subsets a run deals it into each mix the shapes."""
    rng = random.Random(f"{workload.name}:{bench_seed}")
    per_class = [[(cls, seed) for seed in sorted(rng.sample(range(cls.pool), cls.take))]
                 for cls in workload.classes]
    out = []
    for k in range(max(len(c) for c in per_class)):
        out.extend(c[k] for c in per_class if k < len(c))
    return out


def canonical_digest(text: str) -> str:
    """sha256 of the instance JSON with sorted keys and no whitespace, so the
    digest names the instance, not its formatting."""
    obj = json.loads(text)
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def import_isoflag():
    """Import the package from this checkout's src/ and return its cli."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    return importlib.import_module("isoflag.cli")


def write_corpus(chosen, directory: Path) -> list[tuple[Item, str]]:
    """Generate, serialize and write every chosen instance."""
    from isoflag.io import InstanceFile, serialize_instance
    from isoflag.randgen import random_instance

    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for cls, seed in chosen:
        mode = mode_for(cls, seed)
        a, fs, w = random_instance(cls.q, cls.s, seed, mode)
        text = serialize_instance(InstanceFile(w, fs, a, seed=seed,
                                               metadata={"mode": mode}))
        item = Item(cls.q, cls.s, seed, mode,
                    directory / f"{instance_key(cls.q, cls.s, mode, seed)}.instance.json")
        item.path.write_text(text, encoding="utf-8")
        out.append((item, text))
    return out


def timed_setup(workload: Workload, bench_seed: int, directory: Path):
    """The set-up a user pays before the first decision, in a process that
    has not imported isoflag yet: importing it, generating the corpus with
    randgen and serializing it to files.  Returns (items, texts, (start,
    end) of the set-up)."""
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    import_isoflag()
    written = write_corpus(choose(workload, bench_seed), directory)
    end = time.perf_counter()
    return [it for it, _ in written], [t for _, t in written], (start, end)


def corpus_digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(canonical_digest(t).encode())
    return h.hexdigest()


def properties(items: list[Item]) -> dict:
    """Input properties the decision's cost depends on: the dimension of
    T = span(A)^perp, whether it holds an isotropic plane (nu >= 2), and the
    generation mode."""
    from isoflag.io import parse_instance_text
    from isoflag.linalg import BilinearForm, max_isotropic_dimension, orthocomplement

    dims: dict[str, int] = {}
    modes: dict[str, int] = {}
    nu_ge_2 = 0
    for it in items:
        inst = parse_instance_text(it.path.read_text(encoding="utf-8"))
        form = BilinearForm(inst.weight.q)
        t_sub = orthocomplement(inst.higgs.span(), form)
        nu = max_isotropic_dimension(t_sub, form) if t_sub.dim else 0
        dims[str(t_sub.dim)] = dims.get(str(t_sub.dim), 0) + 1
        modes[it.mode] = modes.get(it.mode, 0) + 1
        nu_ge_2 += nu >= 2
    return {
        "nu_ge_2_share": nu_ge_2 / len(items),
        "dim_T": dict(sorted(dims.items())),
        "modes": dict(sorted(modes.items())),
    }
