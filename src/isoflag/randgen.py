"""Seeded random generation of weights, flags, subspaces and instances.

Randomness is used only to produce test data and search/witness variety;
every function takes an explicit seed and is deterministic for it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InputError, InternalConsistencyError
from .flags import FlagSystem, random_flag
from .higgs import HiggsTuple
from .linalg import BilinearForm, Subspace, Vector, hyperbolic_basis, orthocomplement
from .scalars import Scalar
from .weights import Weight, region_membership, require_valid


def random_scalar(rng: random.Random, span: int = 4, complex_parts: bool = True) -> Scalar:
    re = Fraction(rng.randint(-span, span), rng.randint(1, span))
    im = Fraction(rng.randint(-span, span), rng.randint(1, span)) if complex_parts else Fraction(0)
    return Scalar(re, im)


def random_vector(rng: random.Random, q: int, span: int = 4) -> Vector:
    return tuple(random_scalar(rng, span) for _ in range(q))


def random_weight(q: int, s: int, seed: int, region: str = "W") -> Weight:
    """A weight in the admissible region; region="Wprime" additionally makes
    every puncture's beta strictly decreasing."""
    rng = random.Random(seed)
    h = q // 2
    raws: list[list[int]] = []
    margins: list[int] = []
    for _ in range(s):
        if region == "Wprime":
            vals = sorted(rng.sample(range(1, h + 4), h), reverse=True)
        else:
            vals = sorted((rng.randint(0, h + 2) for _ in range(h)), reverse=True)
        raws.append(vals)
        margins.append(rng.randint(1, 3))
    total_units = sum(2 * sum(r) + m for r, m in zip(raws, margins))
    unit = Fraction(1, 2 * total_units + rng.choice([1, 2, 3]))
    alpha, beta = [], []
    for r, m in zip(raws, margins):
        top = [unit * v for v in r]
        row = top + ([Fraction(0)] if q % 2 else []) + [-v for v in reversed(top)]
        beta.append(tuple(row))
        alpha.append(sum(top, Fraction(0)) + unit * m)
    w = Weight(q, s, tuple(alpha), tuple(beta))
    require_valid(w)
    membership = region_membership(w)
    if not membership.in_w or (region == "Wprime" and not membership.in_w_prime):
        raise InternalConsistencyError("sampled weight missed the target region")
    return w


def random_isotropic_subspace(q: int, dim: int, seed: int) -> Subspace:
    """span of the first dim vectors of a random hyperbolic basis."""
    if dim > q // 2:
        raise InputError("isotropic dimension cannot exceed q/2")
    basis = hyperbolic_basis(BilinearForm(q), seed)
    return Subspace.from_vectors(list(basis[:dim]), q)


def random_flag_system(q: int, s: int, seed: int, shared: bool = False) -> FlagSystem:
    if shared:
        flag = random_flag(q, seed + 1)
        return FlagSystem(tuple(flag for _ in range(s)))
    return FlagSystem(tuple(random_flag(q, seed * 1009 + j + 1) for j in range(s)))


INSTANCE_MODES = ("generic", "low_rank", "isotropic_span", "shared_flag")


def random_instance(q: int, s: int, seed: int, mode: str = "generic",
                    region: str = "W") -> tuple[HiggsTuple, FlagSystem, Weight]:
    """An instance with its flags and weight.  Modes:

    generic        dense random rows (almost always spanning or near-spanning)
    low_rank       all rows proportional to one random row
    isotropic_span rows confined to a random isotropic line
    shared_flag    all flags equal and rows orthogonal to its first piece,
                   which then has positive parabolic degree
    """
    rng = random.Random(seed ^ 0x5EED)
    w = random_weight(q, s, seed * 31 + 7, region=region)
    fs = random_flag_system(q, s, seed * 17 + 3, shared=(mode == "shared_flag"))
    nrows = s - 2
    if mode == "generic":
        rows = [random_vector(rng, q) for _ in range(nrows)]
    elif mode == "low_rank":
        base = random_vector(rng, q)
        rows = []
        for _ in range(nrows):
            c = random_scalar(rng, 3)
            rows.append(tuple(c * x for x in base))
    elif mode == "isotropic_span":
        gen = random_isotropic_subspace(q, 1, seed * 13 + 5).rows[0]
        rows = []
        for _ in range(nrows):
            c = random_scalar(rng, 3)
            rows.append(tuple(c * x for x in gen))
    elif mode == "shared_flag":
        w_line = fs.flags[0].piece(1)
        perp = orthocomplement(w_line, BilinearForm(q))
        rows = []
        for _ in range(nrows):
            coeffs = [random_scalar(rng, 3) for _ in range(perp.dim)]
            vec = tuple(Scalar(0) for _ in range(q))
            for c, b in zip(coeffs, perp.rows):
                vec = tuple(v + c * x for v, x in zip(vec, b))
            rows.append(vec)
    else:
        raise InputError(f"unknown instance mode {mode!r}")
    return HiggsTuple(q, s, tuple(rows)), fs, w


def mixed_mode(seed: int) -> str:
    """Mode schedule used by batch sampling: mostly generic with a tail of
    degenerate shapes so both failure branches occur."""
    r = seed % 10
    if r < 7:
        return "generic"
    if r == 7:
        return "low_rank"
    if r == 8:
        return "isotropic_span"
    return "shared_flag"
