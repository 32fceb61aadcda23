"""Isometries that act on rows, checked against the matrix products they stand for.

``random_special_isometry`` and ``complete_to_hyperbolic`` apply each move
(an Eichler transvection, a reflection, a hyperbolic pair scaling or a
coordinate swap) straight to the rows it transforms.  The reference below
builds each move as its p x p matrix and multiplies the matrices in order.
The two must agree exactly, draw for draw, so that every generated flag and
every one-parameter subgroup's eigenbasis is the same either way.  The
reference solves for hyperbolic partners over the generators of a Subspace
(generator_partner), where _partner_for reads the system off coordinates.
"""

from __future__ import annotations

import random

import pytest

from isoflag.errors import InternalConsistencyError
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    _partner_for,
    complete_to_hyperbolic,
    eichler_rows,
    hyperbolic_basis,
    invert_matrix,
    isotropy_classify,
    mat_mul,
    random_scalar,
    random_special_isometry,
    reflect_rows,
    solve_linear,
    standard_basis,
    vadd,
    vscale,
    vsub,
)
from isoflag.scalars import HALF, ONE, ZERO, sc


# ---------------------------------------------------------------------------
# the reference: every move as a matrix, composed by mat_mul


def reflection_matrix(v, form):
    """The reflection x -> x - (2 Q(x,v)/Q(v,v)) v."""
    qvv = form.pair(v, v)
    return [vsub(e, vscale((sc(2) * form.pair(e, v)) / qvv, v))
            for e in standard_basis(form.p)]


def eichler_matrix(e, z, form):
    """x -> x + Q(x,e) z - Q(x,z) e - (1/2) Q(z,z) Q(x,e) e."""
    half_qzz = HALF * form.pair(z, z)
    rows = []
    for x in standard_basis(form.p):
        qxe = form.pair(x, e)
        out = vadd(x, vscale(qxe, z))
        rows.append(vsub(out, vscale(form.pair(x, z) + half_qzz * qxe, e)))
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


def generator_partner(x, constraints, form, within):
    """An isotropic y in `within` with Q(x, y) = 1 and Q(c, y) = 0 for each
    constraint c, solved over the generators of the Subspace `within`: one
    pairing per constraint and generator, and y accumulated as the
    combination of the generators.  The reference for _partner_for, which
    reads the same system off a coordinate window."""
    gens = list(within.rows)
    rows = [tuple(form.pair(x, g) for g in gens)]
    rhs = [ONE]
    for c in constraints:
        if not form.pair(c, x).is_zero():
            raise InternalConsistencyError("partner constraint not orthogonal to x")
        rows.append(tuple(form.pair(c, g) for g in gens))
        rhs.append(ZERO)
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise InternalConsistencyError("hyperbolic partner system is unsolvable")
    y = (ZERO,) * form.p
    for coef, g in zip(sol, gens):
        y = vadd(y, vscale(coef, g))
    return vsub(y, vscale(HALF * form.pair(y, y), x))


def window(p, lo):
    """span(e_lo, ..., e_{p-1-lo})."""
    return Subspace.from_vectors(standard_basis(p)[lo:p - lo], p)


def matrix_map_isotropic(x, target, form, within):
    """The matrix of <= 2 reflections sending the isotropic x to target."""
    if x == target:
        return standard_basis(form.p)
    if not form.pair(x, target).is_zero():
        return reflection_matrix(vsub(x, target), form)
    px = generator_partner(x, [], form, within)
    if not form.pair(target, px).is_zero():
        z = px
    else:
        pt = generator_partner(target, [], form, within)
        a = ONE if not (ONE + form.pair(x, pt)).is_zero() else sc(2)
        z = vsub(vadd(vscale(a, px), pt), vscale(a * form.pair(px, pt), target))
    return mat_mul(reflection_matrix(vsub(x, z), form), reflection_matrix(vsub(z, target), form))


def matrix_completion(chain, form):
    """complete_to_hyperbolic with the isometry accumulated as a matrix and
    the middle block the standard middle vectors times its inverse."""
    p = form.p
    xs = []
    carried = Subspace.zero(p)
    for piece in chain:
        for row in piece.rows:
            if not carried.contains(row):
                xs.append(row)
                carried = Subspace.from_vectors(list(carried.rows) + [row], p)
    k = len(xs)
    ys = []
    for a in range(k):
        ys.append(generator_partner(xs[a], [x for i, x in enumerate(xs) if i != a] + ys, form,
                                    Subspace.full(p)))
    middles = []
    if 2 * k < p:
        acc = standard_basis(p)
        std = standard_basis(p)
        for a in range(k):
            cx, cy = mat_mul([xs[a], ys[a]], acc)
            g = matrix_map_isotropic(cx, std[a], form, window(p, a))
            acc = mat_mul(acc, g)
            cy, = mat_mul([cy], g)
            acc = mat_mul(acc, eichler_matrix(std[a], vsub(std[p - 1 - a], cy), form))
        middles = mat_mul(std[k:p - k], invert_matrix(acc))
    return tuple(xs + middles + list(reversed(ys)))


# ---------------------------------------------------------------------------


def _chains():
    """(q, chain) for q in 2..9 and every top dimension 1..q//2 (q//2 leaves
    an empty middle block for even q), with 1-3 members in general position
    inside the top member."""
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
        assert random_special_isometry(p, seed) == matrix_special_isometry(p, seed), (p, seed)


def test_chains_cover_empty_middle_and_every_length():
    assert {len(chain) for _, chain in CHAINS} == {1, 2, 3}
    assert any(2 * chain[-1].dim == q for q, chain in CHAINS)


@pytest.mark.parametrize("q,chain", CHAINS,
                         ids=[f"q{q}-dims{'-'.join(str(c.dim) for c in chain)}-{i}"
                              for i, (q, chain) in enumerate(CHAINS)])
def test_completion_matches_matrix_product(q, chain):
    form = BilinearForm(q)
    assert all(isotropy_classify(piece, form)[0] for piece in chain)
    assert complete_to_hyperbolic(chain, form) == matrix_completion(chain, form)


@pytest.mark.parametrize("p", range(2, 10))
def test_partner_matches_generator_partner(p):
    # every window lo..p-1-lo, 0 to (width - 1) constraints made orthogonal
    # to x; for odd p the narrowest window is the middle coordinate alone
    form = BilinearForm(p)
    rng = random.Random(p)
    for lo in range((p + 1) // 2):
        for count in range(p - 2 * lo):
            for _ in range(3):
                x = tuple(random_scalar(rng) for _ in range(p))
                pivot = next(j for j in range(p) if x[p - 1 - j])
                constraints = []
                for _ in range(count):
                    c = [random_scalar(rng) for _ in range(p)]
                    c[pivot] -= form.pair(tuple(c), x) / x[p - 1 - pivot]
                    constraints.append(tuple(c))
                assert _partner_for(x, constraints, form, lo) == \
                    generator_partner(x, constraints, form, window(p, lo)), (p, lo, count)


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
        v = tuple(random_scalar(rng) for _ in range(p))
        if not form.pair(v, v).is_zero():
            assert reflect_rows(rows, v, form) == mat_mul(rows, reflection_matrix(v, form))


class TestGuardsAreInternal:
    """Only internal code builds Eichler maps and reflections, so a violated
    precondition is a bug (exit 70), not bad input (exit 65)."""

    def test_eichler_needs_isotropic_e(self):
        # p = 3, a = 1: e_1 is the middle vector, Q(e_1, e_1) = 1
        with pytest.raises(InternalConsistencyError, match="isotropic"):
            eichler_rows(standard_basis(3), 1, (sc(1), ZERO, ZERO))

    def test_eichler_needs_z_orthogonal_to_e(self):
        # Q(e_0, z) = z[3] for p = 4
        with pytest.raises(InternalConsistencyError, match="orthogonal"):
            eichler_rows(standard_basis(4), 0, (ZERO, sc(1), ZERO, sc(2)))

    def test_reflection_needs_anisotropic_vector(self):
        form = BilinearForm(4)
        with pytest.raises(InternalConsistencyError, match="isotropic"):
            reflect_rows(standard_basis(4), (sc(1), ZERO, sc(1), ZERO), form)
