"""Exact linear algebra over the Gaussian rationals with the split symmetric form.

Vectors are tuples of Scalar, used as row vectors throughout; a linear map
acts by right multiplication v -> v @ M.  The bilinear form is always the
antidiagonal split form J_p with Q(e_i, e_j) = 1 iff i + j = p + 1 (1-indexed),
so multiplying a row vector by J is coordinate reversal.

Subspaces are stored with a canonical reduced-row-echelon basis, which makes
equality syntactic and subspaces hashable (useful in lattice searches).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalConsistencyError
from .scalars import HALF, ONE, ZERO, Scalar, sc

Vector = tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# vector / matrix helpers


def vzero(n: int) -> Vector:
    return tuple(ZERO for _ in range(n))


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))

def vsub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vscale(c: Scalar, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def vdot(x: Vector, y: Vector) -> Scalar:
    """Standard (non-conjugated) dot product."""
    acc = ZERO
    for a, b in zip(x, y):
        acc = acc + a * b
    return acc


def is_zero_vector(x: Vector) -> bool:
    return all(a.is_zero() for a in x)


def standard_basis(n: int) -> list[Vector]:
    return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]


def mat_mul(a: list[Vector], b: list[Vector]) -> list[Vector]:
    """Rows of a times matrix b (rows of b)."""
    ncols = len(b[0])
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for coef, brow in zip(row, b):
            if coef.is_zero():
                continue
            for j, entry in enumerate(brow):
                acc[j] = acc[j] + coef * entry
        out.append(tuple(acc))
    return out


def apply_matrix(v: Vector, m: list[Vector]) -> Vector:
    return mat_mul([v], m)[0]


def rref(rows: list[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise InputError("ragged matrix")
    work = [list(r) for r in rows]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, len(work)):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        inv = ONE / work[row][col]
        work[row] = [inv * x for x in work[row]]
        for r in range(len(work)):
            if r != row and not work[r][col].is_zero():
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return [tuple(r) for r in work[:row]], pivots


def kernel_basis(rows: list[Vector], ncols: int) -> list[Vector]:
    """Basis of {x : M x^t = 0}, from the reduced echelon form of M."""
    red, pivots = rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in zip(red, pivots):
            vec[pc] = -r[fc]
        basis.append(tuple(vec))
    return basis


def invert_matrix(m: list[Vector]) -> list[Vector]:
    n = len(m)
    aug = [list(row) + [ONE if j == i else ZERO for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref([tuple(r) for r in aug])
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return [tuple(row[n:]) for row in red]


def solve_linear(rows: list[Vector], rhs: list[Scalar]) -> Vector | None:
    """One particular solution x of (rows) x^t = rhs, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [tuple(list(r) + [b]) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for r, pc in zip(red, pivots):
        if pc == ncols:  # 0 = 1 row
            return None
    x = [ZERO] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# the split bilinear form


@dataclass(frozen=True)
class BilinearForm:
    """The antidiagonal split symmetric form J_p on Q(i)^p."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise InputError("form dimension must be positive")

    def pair(self, x: Vector, y: Vector) -> Scalar:
        if len(x) != self.p or len(y) != self.p:
            raise InputError("vector length does not match form dimension")
        acc = ZERO
        for i in range(self.p):
            acc = acc + x[i] * y[self.p - 1 - i]
        return acc

    def gram(self, vectors: list[Vector]) -> list[list[Scalar]]:
        return [[self.pair(v, w) for w in vectors] for v in vectors]

    def is_standard_gram(self, vectors: list[Vector]) -> bool:
        """True iff the Gram matrix of the vectors equals J_p itself."""
        n = len(vectors)
        g = self.gram(vectors)
        for i in range(n):
            for j in range(n):
                want = ONE if i + j == n - 1 else ZERO
                if g[i][j] != want:
                    return False
        return True


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q(i)^p with a canonical reduced-row-echelon basis.

    Equal subspaces have identical stored bases, so == and hash are cheap.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: tuple[Vector, ...]):
        self.ambient = ambient
        self.rows = rows

    @classmethod
    def from_vectors(cls, vectors: list[Vector], ambient: int) -> "Subspace":
        for v in vectors:
            if len(v) != ambient:
                raise InputError("vector length does not match ambient dimension")
        red, _ = rref(list(vectors))
        return cls(ambient, tuple(red))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple(standard_basis(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient:
            raise InputError("vector length does not match ambient dimension")
        work = list(v)
        for row in self.rows:
            lead = next(i for i, x in enumerate(row) if not x.is_zero())
            if not work[lead].is_zero():
                c = work[lead]
                work = [x - c * y for x, y in zip(work, row)]
        return all(x.is_zero() for x in work)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def transform(self, m: list[Vector]) -> "Subspace":
        """Image under v -> v @ m."""
        if not self.rows:
            return Subspace.zero(len(m[0]))
        return Subspace.from_vectors(mat_mul(list(self.rows), m), len(m[0]))


def rank_kernel(rows: list[Vector]) -> tuple[int, Subspace]:
    """Rank of the matrix and its right kernel {x : M x^t = 0}."""
    if not rows:
        raise InputError("empty matrix has no well-defined column count")
    ncols = len(rows[0])
    red, pivots = rref(list(rows))
    kernel = Subspace.from_vectors(kernel_basis(list(rows), ncols), ncols)
    return len(red), kernel


def annihilator(s: Subspace) -> Subspace:
    """{x : standard-dot(y, x) = 0 for all y in s}."""
    if s.dim == 0:
        return Subspace.full(s.ambient)
    return Subspace.from_vectors(kernel_basis(list(s.rows), s.ambient), s.ambient)


def meet_join(u: Subspace, v: Subspace) -> tuple[Subspace, Subspace]:
    """Intersection and sum of two subspaces of the same ambient space."""
    if u.ambient != v.ambient:
        raise InputError("ambient dimensions differ")
    join = Subspace.from_vectors(list(u.rows) + list(v.rows), u.ambient)
    ann_rows = list(annihilator(u).rows) + list(annihilator(v).rows)
    if not ann_rows:
        meet = Subspace.full(u.ambient)
    else:
        meet = Subspace.from_vectors(kernel_basis(ann_rows, u.ambient), u.ambient)
    return meet, join


def orthocomplement(y: Subspace, form: BilinearForm) -> Subspace:
    """Q-orthocomplement.  Since J is coordinate reversal, Y^perp is the
    standard annihilator of the reversed basis rows."""
    if y.ambient != form.p:
        raise InputError("ambient dimension does not match form")
    if y.dim == 0:
        return Subspace.full(form.p)
    reversed_rows = [tuple(reversed(r)) for r in y.rows]
    return Subspace.from_vectors(kernel_basis(reversed_rows, form.p), form.p)


def isotropy_classify(y: Subspace, form: BilinearForm) -> tuple[bool, Subspace, int]:
    """(is_isotropic, radical, rank of the restricted form).

    radical = Y meet Y^perp; the restricted rank is dim Y - dim radical, and
    Y is isotropic exactly when that rank is zero.
    """
    perp = orthocomplement(y, form)
    radical, _ = meet_join(y, perp)
    restricted_rank = y.dim - radical.dim
    return restricted_rank == 0, radical, restricted_rank


def max_isotropic_dimension(y: Subspace, form: BilinearForm) -> int:
    """Largest dimension of an isotropic subspace of Y over the algebraic
    closure: dim(radical) + floor(rank/2)."""
    _, radical, rank = isotropy_classify(y, form)
    return radical.dim + rank // 2


# ---------------------------------------------------------------------------
# isometries: reflections, Eichler transvections, random elements


def reflection_matrix(v: Vector, form: BilinearForm) -> list[Vector]:
    """The reflection x -> x - (2 Q(x,v)/Q(v,v)) v.  Determinant -1."""
    qvv = form.pair(v, v)
    if qvv.is_zero():
        raise InputError("cannot reflect in an isotropic vector")
    rows = []
    for e in standard_basis(form.p):
        c = (sc(2) * form.pair(e, v)) / qvv
        rows.append(vsub(e, vscale(c, v)))
    return rows


def eichler_matrix(e: Vector, z: Vector, form: BilinearForm) -> list[Vector]:
    """The Eichler transvection for an isotropic e and z orthogonal to e:

        x -> x + Q(x,e) z - Q(x,z) e - (1/2) Q(z,z) Q(x,e) e

    It is an isometry of determinant 1 fixing e and everything orthogonal to
    both e and z.
    """
    if not form.pair(e, e).is_zero():
        raise InputError("Eichler vector e must be isotropic")
    if not form.pair(e, z).is_zero():
        raise InputError("Eichler vector z must be orthogonal to e")
    half_qzz = HALF * form.pair(z, z)
    rows = []
    for x in standard_basis(form.p):
        qxe = form.pair(x, e)
        qxz = form.pair(x, z)
        out = vadd(x, vscale(qxe, z))
        out = vsub(out, vscale(qxz + half_qzz * qxe, e))
        rows.append(out)
    return rows


def _pair_scaling(p: int, a: int, t: Scalar) -> list[Vector]:
    """e_a -> t e_a, partner -> t^{-1} partner (0-indexed pair a, p-1-a)."""
    rows = standard_basis(p)
    rows[a] = vscale(t, rows[a])
    rows[p - 1 - a] = vscale(ONE / t, rows[p - 1 - a])
    return rows


def _pair_permutation(p: int, a: int, b: int) -> list[Vector]:
    """Swap hyperbolic pairs a and b (two transpositions, determinant +1)."""
    perm = list(range(p))
    perm[a], perm[b] = perm[b], perm[a]
    perm[p - 1 - a], perm[p - 1 - b] = perm[p - 1 - b], perm[p - 1 - a]
    basis = standard_basis(p)
    return [basis[perm[i]] for i in range(p)]


def _double_flip(p: int, a: int, b: int) -> list[Vector]:
    """Swap e_a with its partner and e_b with its partner (determinant +1)."""
    perm = list(range(p))
    perm[a], perm[p - 1 - a] = perm[p - 1 - a], perm[a]
    if b != a:
        perm[b], perm[p - 1 - b] = perm[p - 1 - b], perm[b]
    basis = standard_basis(p)
    return [basis[perm[i]] for i in range(p)]


def _random_scalar(rng: random.Random, span: int = 3) -> Scalar:
    return sc(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
    )


def random_special_isometry(p: int, seed: int, moves: int = 8) -> list[Vector]:
    """A pseudo-random element of SO(J_p) over Q(i), determinant 1.

    Built from Eichler transvections, hyperbolic pair scalings, pair
    permutations and double pair flips, all of determinant 1.  seed 0 gives
    the identity by convention.
    """
    form = BilinearForm(p)
    m = standard_basis(p)
    if seed == 0 or p == 1:
        return m
    rng = random.Random(seed)
    npairs = p // 2
    for _ in range(moves):
        kind = rng.randrange(4)
        if kind == 0 and npairs >= 1:
            a = rng.randrange(npairs)
            e = standard_basis(p)[a]
            z = [_random_scalar(rng) for _ in range(p)]
            z[p - 1 - a] = ZERO  # keeps z orthogonal to e
            g = eichler_matrix(e, tuple(z), form)
        elif kind == 1 and npairs >= 1:
            t = _random_scalar(rng)
            while t.is_zero():
                t = _random_scalar(rng)
            g = _pair_scaling(p, rng.randrange(npairs), t)
        elif kind == 2 and npairs >= 2:
            a, b = rng.sample(range(npairs), 2)
            g = _pair_permutation(p, a, b)
        elif npairs >= 1:
            a = rng.randrange(npairs)
            b = rng.randrange(npairs)
            g = _double_flip(p, a, b)
        else:
            continue
        m = mat_mul(m, g)
    return m


def hyperbolic_basis(form: BilinearForm, seed: int) -> tuple[Vector, ...]:
    """An ordered basis (w_1, ..., w_p) with Gram matrix exactly J_p.

    Seed 0 returns the standard basis; other seeds apply a random special
    isometry to it.  Deterministic for a fixed seed.
    """
    m = random_special_isometry(form.p, seed)
    basis = tuple(m[i] for i in range(form.p))
    if not form.is_standard_gram(list(basis)):
        raise InternalConsistencyError("generated basis is not hyperbolic")
    return basis


# ---------------------------------------------------------------------------
# hyperbolic completion (constructive Witt extension)


def _partner_for(x: Vector, orthogonal_to: list[Vector], form: BilinearForm,
                 within: Subspace | None = None) -> Vector:
    """An isotropic y with Q(x, y) = 1 and Q(c, y) = 0 for each constraint c.

    Every constraint must itself be Q-orthogonal to x so that the final
    isotropization step y -> y - (Q(y,y)/2) x cannot disturb it.
    """
    p = form.p
    if within is None:
        within = Subspace.full(p)
    gens = list(within.rows)
    # unknown y = sum coeff_k gens[k]; one row of conditions per constraint
    rows = [tuple(form.pair(x, g) for g in gens)]
    rhs = [ONE]
    for c in orthogonal_to:
        if not form.pair(c, x).is_zero():
            raise InternalConsistencyError("partner constraint not orthogonal to x")
        rows.append(tuple(form.pair(c, g) for g in gens))
        rhs.append(ZERO)
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise InternalConsistencyError("hyperbolic partner system is unsolvable")
    y = vzero(p)
    for coef, g in zip(sol, gens):
        y = vadd(y, vscale(coef, g))
    y = vsub(y, vscale(HALF * form.pair(y, y), x))
    return y


def _map_isotropic_exact(x: Vector, target: Vector, form: BilinearForm,
                         within: Subspace) -> list[Vector]:
    """An isometry (product of <= 2 reflections, vectors inside `within`)
    sending the isotropic vector x exactly to the isotropic vector target."""
    if x == target:
        return standard_basis(form.p)
    if not form.pair(x, target).is_zero():
        # Q(x-t, x-t) = -2 Q(x,t) != 0 and the reflection swaps x and t.
        return reflection_matrix(vsub(x, target), form)
    # Q(x, target) = 0: route through an auxiliary isotropic z with
    # Q(x, z) != 0 != Q(target, z).
    px = _partner_for(x, [], form, within)
    if not form.pair(target, px).is_zero():
        z = px
    else:
        pt = _partner_for(target, [], form, within)
        # z = a px + pt - a Q(px,pt) target is isotropic, pairs to 1 with
        # target, and pairs to a + Q(x,pt) with x; pick a making that nonzero.
        a = ONE if not (ONE + form.pair(x, pt)).is_zero() else sc(2)
        z = vadd(vscale(a, px), pt)
        z = vsub(z, vscale(a * form.pair(px, pt), target))
        if not form.pair(z, z).is_zero() or form.pair(x, z).is_zero() \
                or form.pair(target, z).is_zero():
            raise InternalConsistencyError("failed to build auxiliary isotropic vector")
    m1 = reflection_matrix(vsub(x, z), form)
    if apply_matrix(x, m1) != z:
        raise InternalConsistencyError("first reflection missed its target")
    m2 = reflection_matrix(vsub(z, target), form)
    return mat_mul(m1, m2)


def complete_to_hyperbolic(chain: list[Subspace], form: BilinearForm) -> tuple[Vector, ...]:
    """A full hyperbolic basis (Gram = J_p) adapted to a nested isotropic chain.

    chain is a list of isotropic subspaces I_1 <= I_2 <= ... <= I_r; the
    returned basis (w_1, ..., w_p) satisfies span(w_1..w_{dim I_j}) = I_j,
    the last dim(I_r) vectors are the hyperbolic partners in reverse order,
    and the middle block is hyperbolic.  The middle block is produced by a
    constructive Witt extension: the placed pairs are moved onto standard
    coordinate pairs by reflections and Eichler maps, and the standard middle
    basis is pulled back.
    """
    p = form.p
    for a, b in zip(chain, chain[1:]):
        if not b.contains_subspace(a):
            raise InputError("chain is not nested")
    for piece in chain:
        iso, _, _ = isotropy_classify(piece, form)
        if not iso:
            raise InputError("chain member is not isotropic")

    # ordered basis of the top chain member, adapted to the chain
    xs: list[Vector] = []
    carried = Subspace.zero(p)
    for piece in chain:
        for row in piece.rows:
            if not carried.contains(row):
                xs.append(row)
                carried = Subspace.from_vectors(list(carried.rows) + [row], p)
    k = len(xs)
    if 2 * k > p:
        raise InputError("isotropic chain too large for the ambient form")

    ys: list[Vector] = []
    for a in range(k):
        constraints = [x for i, x in enumerate(xs) if i != a] + ys
        ys.append(_partner_for(xs[a], constraints, form))

    middles: list[Vector] = []
    if 2 * k < p:
        # accumulate an isometry moving (x_a, y_a) onto (e_a, e_{p+1-a})
        acc = standard_basis(p)
        std = standard_basis(p)
        for a in range(k):
            cx = apply_matrix(xs[a], acc)
            cy = apply_matrix(ys[a], acc)
            block = Subspace.from_vectors(std[a:p - a], p)
            g = _map_isotropic_exact(cx, std[a], form, block)
            acc = mat_mul(acc, g)
            cy = apply_matrix(cy, g)
            # Eichler map fixing e_a and sending cy to the partner e_{p-1-a}
            diff = vsub(std[p - 1 - a], cy)
            g2 = eichler_matrix(std[a], diff, form)
            acc = mat_mul(acc, g2)
            if apply_matrix(cy, g2) != std[p - 1 - a]:
                raise InternalConsistencyError("Eichler placement failed")
        inv = invert_matrix(acc)
        for t in range(k, p - k):
            middles.append(apply_matrix(std[t], inv))

    basis = tuple(xs + middles + list(reversed(ys)))
    if not form.is_standard_gram(list(basis)):
        raise InternalConsistencyError("hyperbolic completion produced a bad Gram matrix")
    return basis
