"""Scalar forms of isoflag's integer-held types, and code only the tests run.

IsotropicFlag, HiggsTuple and OnePS each take their Gaussian-integer form
only.  The tests write many of them as Scalar rows: the builders here put
such rows over their least common denominator, the form the package holds
(linalg._gaussian_row and _gaussian_matrix), and the views read the Scalar
rows back.  The isometry actions on flags and the Grassmannian weight
identity are used by the tests alone, so they live here too.
"""

from __future__ import annotations

from isoflag.errors import InputError, InternalConsistencyError
from isoflag.flags import FlagSystem, IsotropicFlag
from isoflag.higgs import HiggsTuple
from isoflag.hmgit import OnePS
from isoflag.io import vector_to_json
from isoflag.linalg import (
    Subspace,
    Vector,
    _gaussian_matrix,
    _gaussian_row,
    _scalar_row,
    mat_mul,
    meet_join,
)

# ---------------------------------------------------------------------------
# Scalar rows in, Scalar rows out


def flag_from_rows(basis) -> IsotropicFlag:
    """The flag with the adapted basis given as Scalar rows."""
    return IsotropicFlag(*_gaussian_matrix(list(basis)))


def flag_basis(f: IsotropicFlag) -> tuple[Vector, ...]:
    return tuple(_scalar_row(row, f.den) for row in zip(f.basis_re, f.basis_im))


def higgs_from_rows(q: int, s: int, rows) -> HiggsTuple:
    """The row tuple of the Scalar rows given."""
    return HiggsTuple(q, s, [_gaussian_row(row) for row in rows])


def higgs_rows(a: HiggsTuple) -> tuple[Vector, ...]:
    return tuple(_scalar_row((re, im), den) for re, im, den in a.integer_rows)


def oneps_from_rows(l: int, m: tuple[int, ...], basis) -> OnePS:
    """The one-parameter subgroup with the eigenbasis given as Scalar rows."""
    return OnePS(l, m, *_gaussian_matrix(list(basis)))


def oneps_basis(lam: OnePS) -> tuple[Vector, ...]:
    return tuple(_scalar_row(row, lam.den) for row in zip(lam.basis_re, lam.basis_im))


def matrix_to_json(rows) -> list:
    """Scalar rows as the instance format writes them: the reference the
    package's integer writers are compared with."""
    return [vector_to_json(row) for row in rows]


# ---------------------------------------------------------------------------
# isometries acting on flags


def transform_flag(f: IsotropicFlag, m: list[Vector]) -> IsotropicFlag:
    """The flag with basis w_i @ m (m must be a J-isometry)."""
    return flag_from_rows(mat_mul(list(flag_basis(f)), m))


def transform_flags(fs: FlagSystem, m: list[Vector]) -> FlagSystem:
    return FlagSystem(tuple(transform_flag(f, m) for f in fs.flags))


# ---------------------------------------------------------------------------
# the Grassmannian weight, by two formulas


def hm_grassmannian(lam: OnePS, f: Subspace, i: int, m: int) -> int:
    """Weight of the 2m-twisted Pluecker line bundle at an i-plane F, computed
    two ways and cross-checked:

        (2m/p) sum_n [ i dim(U_n) - p dim(U_n ^ F) ]
        2m [ -i m_p + sum_{k<p} dim(F ^ U_{m_k}) (m_{k+1} - m_k) ]

    The factor acted on is chosen by F's ambient dimension (the q-dimensional
    factor, or the rank-one factor on C^2 with weights (l, -l)).
    """
    if f.dim != i:
        raise InputError("subspace dimension does not match i")
    p = f.ambient
    if p == lam.q:
        weights = lam.m
        piece = lam.v_piece
    elif p == 2:
        weights = (abs(lam.l), -abs(lam.l))
        piece = lam.u_piece
    else:
        raise InputError("subspace ambient matches neither factor")

    lo, hi = weights[-1], weights[0]
    total = 0
    for n in range(lo, hi + 1):
        un = piece(n)
        meet, _ = meet_join(un, f)
        total += i * un.dim - p * meet.dim
    mu1, rest = divmod(2 * m * total, p)
    if rest:
        raise InternalConsistencyError("grassmannian weight is not an integer")

    acc = -i * weights[-1]
    for k in range(p - 1):
        un = piece(weights[k])
        meet, _ = meet_join(f, un)
        acc += meet.dim * (weights[k + 1] - weights[k])
    mu2 = 2 * m * acc

    if mu1 != mu2:
        raise InternalConsistencyError(
            f"grassmannian weight formulas disagree: {mu1} vs {mu2}")
    return mu1
