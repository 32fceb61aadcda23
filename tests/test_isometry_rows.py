"""Isometries that act on rows, checked against the matrix products they stand for.

``random_special_isometry`` applies each move (an Eichler transvection, a
hyperbolic pair scaling or a coordinate swap) straight to the Gaussian-integer
rows it transforms.  The reference below builds each move as its p x p Scalar
matrix and multiplies the matrices in order; ``helpers.scalar_special_isometry``
makes the same moves on Scalar rows.  All three must agree exactly, draw for
draw, so that every generated flag is the same either way.

``complete_to_hyperbolic`` reads a hyperbolic basis off an isotropic
subspace's reduced rows; its Gram matrix, the product B J B^t, must be J.
"""

from __future__ import annotations

import random

import pytest

from isoflag.errors import InternalConsistencyError
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    isotropy_classify,
    orthocomplement,
    random_special_isometry,
)
from isoflag.scalars import ONE, ZERO

from helpers import (HALF, completion_rows, eichler_rows, gaussian_matrix, hyperbolic_basis, mat_mul,
                     pair, random_scalar, sc, scalar_special_isometry, standard_basis, vadd, vscale)


# ---------------------------------------------------------------------------
# the reference: every move as a matrix, composed by mat_mul


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def eichler_matrix(e, z, form):
    """x -> x + Q(x,e) z - Q(x,z) e - (1/2) Q(z,z) Q(x,e) e."""
    half_qzz = HALF * pair(form, z, z)
    rows = []
    for x in standard_basis(form.p):
        qxe = pair(form, x, e)
        out = vadd(x, vscale(qxe, z))
        rows.append(vsub(out, vscale(pair(form, x, z) + half_qzz * qxe, e)))
    return rows


def pair_scaling(p, a, t):
    rows = standard_basis(p)
    rows[a] = vscale(t, rows[a])
    rows[p - 1 - a] = vscale(ONE / t, rows[p - 1 - a])
    return rows


def pair_permutation(p, a, b):
    perm = list(range(p))
    perm[a], perm[b] = perm[b], perm[a]
    perm[p - 1 - a], perm[p - 1 - b] = perm[p - 1 - b], perm[p - 1 - a]
    basis = standard_basis(p)
    return [basis[perm[i]] for i in range(p)]


def double_flip(p, a, b):
    perm = list(range(p))
    perm[a], perm[p - 1 - a] = perm[p - 1 - a], perm[a]
    if b != a:
        perm[b], perm[p - 1 - b] = perm[p - 1 - b], perm[b]
    basis = standard_basis(p)
    return [basis[perm[i]] for i in range(p)]


def matrix_special_isometry(p, seed):
    form = BilinearForm(p)
    m = standard_basis(p)
    if seed == 0 or p == 1:
        return m
    rng = random.Random(seed)
    npairs = p // 2
    for _ in range(8):
        kind = rng.randrange(4)
        if kind == 0 and npairs >= 1:
            a = rng.randrange(npairs)
            z = [random_scalar(rng, 3) for _ in range(p)]
            z[p - 1 - a] = ZERO
            g = eichler_matrix(standard_basis(p)[a], tuple(z), form)
        elif kind == 1 and npairs >= 1:
            t = random_scalar(rng, 3)
            while t.is_zero():
                t = random_scalar(rng, 3)
            g = pair_scaling(p, rng.randrange(npairs), t)
        elif kind == 2 and npairs >= 2:
            a, b = rng.sample(range(npairs), 2)
            g = pair_permutation(p, a, b)
        elif npairs >= 1:
            g = double_flip(p, rng.randrange(npairs), rng.randrange(npairs))
        else:
            continue
        m = mat_mul(m, g)
    return m


# ---------------------------------------------------------------------------


def _chains():
    """(q, chain) for q in 2..9 and every top dimension 1..q//2 (q//2 leaves
    an empty middle block for even q), with 1-3 nested isotropic members in
    general position inside the top member.  The completion reads the top
    member; the test ids name every member's dimension."""
    rng = random.Random(13)
    out = []
    for q in range(2, 10):
        for k in range(1, q // 2 + 1):
            for trial in range(3):
                basis = hyperbolic_basis(BilinearForm(q), rng.randint(1, 10 ** 6))
                mixes = [[random_scalar(rng, 3) for _ in range(k)] for _ in range(k)]
                top = mat_mul(mixes, list(basis[:k]))
                if Subspace.from_vectors(top, q).dim < k:
                    top = list(basis[:k])
                cuts = sorted(rng.sample(range(1, k + 1), min(k, trial + 1)))
                out.append((q, [Subspace.from_vectors(top[:c], q) for c in cuts]))
    return out


CHAINS = _chains()


@pytest.mark.parametrize("p", range(1, 10))
def test_random_special_isometry_matches_matrix_product(p):
    for seed in range(60):
        assert random_special_isometry(p, seed) == \
            gaussian_matrix(matrix_special_isometry(p, seed)), (p, seed)


@pytest.mark.parametrize("p", range(1, 11))
def test_random_special_isometry_matches_scalar_rows(p):
    # the wider sweep, against the same moves made on Scalar rows: the
    # Gaussian integers over their least denominator, draw for draw,
    # determinant -1 flips included
    for seed in range(400):
        assert random_special_isometry(p, seed) == \
            gaussian_matrix(scalar_special_isometry(p, seed)), (p, seed)


def test_chains_cover_empty_middle_and_every_length():
    assert {len(chain) for _, chain in CHAINS} == {1, 2, 3}
    assert any(2 * chain[-1].dim == q for q, chain in CHAINS)


@pytest.mark.parametrize("q,chain", CHAINS,
                         ids=[f"q{q}-dims{'-'.join(str(c.dim) for c in chain)}-{i}"
                              for i, (q, chain) in enumerate(CHAINS)])
def test_completion_matches_matrix_product(q, chain):
    # the completion of the top member W: its Gram matrix B J B^t is J, its
    # first k rows are W's canonical rows, its first q - k rows span W^perp
    # and its last k rows are the standard partners e_{q-1-c}, c a pivot
    form = BilinearForm(q)
    w = chain[-1]
    k = w.dim
    assert isotropy_classify(w, form)[0]
    basis = list(completion_rows(w))
    std = standard_basis(q)
    assert mat_mul(basis, [tuple(b[q - 1 - j] for b in basis) for j in range(q)]) == std[::-1]
    assert basis[:k] == list(w.rows)
    assert Subspace.from_vectors(basis[:q - k], q) == orthocomplement(w, form)
    assert basis[q - k:] == [std[q - 1 - c] for c in reversed(w.pivots)]


def test_row_moves_match_their_matrices():
    rng = random.Random(5)
    for p in range(2, 8):
        form = BilinearForm(p)
        rows = [tuple(random_scalar(rng) for _ in range(p)) for _ in range(p + 1)]
        for a in range(p // 2):
            z = [random_scalar(rng, 3) for _ in range(p)]
            z[p - 1 - a] = ZERO
            e = standard_basis(p)[a]
            assert eichler_rows(rows, a, tuple(z)) == \
                mat_mul(rows, eichler_matrix(e, tuple(z), form))


class TestGuardsAreInternal:
    """The reference Eichler move is built by code, never from input, so a
    violated precondition is a bug (exit 70), not bad input (exit 65)."""

    def test_eichler_needs_isotropic_e(self):
        # p = 3, a = 1: e_1 is the middle vector, Q(e_1, e_1) = 1
        with pytest.raises(InternalConsistencyError, match="isotropic"):
            eichler_rows(standard_basis(3), 1, (sc(1), ZERO, ZERO))

    def test_eichler_needs_z_orthogonal_to_e(self):
        # Q(e_0, z) = z[3] for p = 4
        with pytest.raises(InternalConsistencyError, match="orthogonal"):
            eichler_rows(standard_basis(4), 0, (ZERO, sc(1), ZERO, sc(2)))
