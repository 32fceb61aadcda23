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
from .linalg import (
    BilinearForm,
    Subspace,
    ZiRow,
    _zi_hyperbolic,
    _zi_row_times,
    common_den,
    orthocomplement,
    random_gaussian,
    random_special_isometry,
)
from .weights import Weight, region_membership, require_valid


def _combinations(rng: random.Random, nrows: int, rows: list[ZiRow], den: int
                  ) -> tuple[list[ZiRow], int]:
    """nrows combinations sum_k c_k rows_k / den of Gaussian-integer rows over
    den, as (rows', den'): one coefficient c_k = random_gaussian(rng, 3)
    drawn per row, in order, for each combination in turn."""
    coeffs, c_den = common_den([[random_gaussian(rng, 3) for _ in rows] for _ in range(nrows)])
    return [_zi_row_times(c, rows) for c in coeffs], c_den * den


def random_weight(q: int, s: int, seed: int, region: str = "W") -> Weight:
    """A weight in the admissible region; region="Wprime" additionally makes
    every puncture's beta strictly decreasing."""
    if region not in ("W", "Wprime"):
        raise InputError(f"unknown region {region!r}")
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
    """span of the first dim vectors of a random hyperbolic basis, the rows
    of random_special_isometry(q, seed)."""
    if dim > q // 2:
        raise InputError("isotropic dimension cannot exceed q/2")
    rows, den = random_special_isometry(q, seed)
    if not _zi_hyperbolic(rows, den):
        raise InternalConsistencyError("generated basis is not hyperbolic")
    return Subspace.from_zi_rows(rows[:dim], q)


def random_flag_system(q: int, s: int, seed: int, shared: bool = False) -> FlagSystem:
    if shared:
        flag = random_flag(q, seed + 1)
        return FlagSystem(tuple(flag for _ in range(s)))
    return FlagSystem(tuple(random_flag(q, seed * 1009 + j + 1) for j in range(s)))


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
        a = common_den([[random_gaussian(rng) for _ in range(q)] for _ in range(nrows)])
    elif mode == "low_rank":
        a = _combinations(rng, nrows, *common_den([[random_gaussian(rng) for _ in range(q)]]))
    elif mode == "isotropic_span":
        line = random_isotropic_subspace(q, 1, seed * 13 + 5)
        a = _combinations(rng, nrows, line.zi_rows, line.den)
    elif mode == "shared_flag":
        perp = orthocomplement(fs.flags[0].piece(1), BilinearForm(q))
        a = _combinations(rng, nrows, perp.zi_rows, perp.den)
    else:
        raise InputError(f"unknown instance mode {mode!r}")
    return HiggsTuple(q, s, *a), fs, w


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
