"""Exact linear algebra over the Gaussian rationals with the split symmetric form.

Vectors are tuples of Scalar, used as row vectors throughout; a linear map
acts by right multiplication v -> v @ M.  The bilinear form is always the
antidiagonal split form J_p with Q(e_i, e_j) = 1 iff i + j = p + 1 (1-indexed),
so multiplying a row vector by J is coordinate reversal.

Subspaces are stored with a canonical reduced-row-echelon basis, which makes
equality syntactic and subspaces hashable.  Membership, kernels and the
hyperbolic completion of an isotropic subspace are read off those rows with
no further elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputError, InternalConsistencyError
from .scalars import HALF, ONE, ZERO, Scalar

Vector = tuple[Scalar, ...]
# A Gaussian-integer row as (real parts, imaginary parts).
ZiRow = tuple[list[int], list[int]]


# ---------------------------------------------------------------------------
# vector / matrix helpers


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vscale(c: Scalar, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def is_zero_vector(x: Vector) -> bool:
    return all(a.is_zero() for a in x)


def standard_basis(n: int) -> list[Vector]:
    return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]


def _gaussian_row(row: Vector) -> tuple[list[int], list[int], int]:
    """(re, im, den) with row = (re + i im) / den, re and im integer lists and
    den the lcm of the row's denominators."""
    den = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
    return ([x.re.numerator * (den // x.re.denominator) for x in row],
            [x.im.numerator * (den // x.im.denominator) for x in row], den)


def _scalar(re: int, im: int, den: int) -> Scalar:
    """(re + i im) / den."""
    if not (re or im):
        return ZERO
    return Scalar(Fraction(re, den), Fraction(im, den))


def _zi_vector(row: ZiRow) -> Vector:
    """The Gaussian-integer row (re, im) as a Vector."""
    return tuple(_scalar(x, y, 1) for x, y in zip(*row))


def _gaussian_matrix(rows: list[Vector]) -> tuple[list[list[int]], list[list[int]], int]:
    """(re, im, den) with rows = (re + i im) / den over one shared
    denominator, den the lcm of every entry's denominators."""
    den = lcm(*(x.re.denominator for row in rows for x in row),
              *(x.im.denominator for row in rows for x in row))
    return ([[x.re.numerator * (den // x.re.denominator) for x in row] for row in rows],
            [[x.im.numerator * (den // x.im.denominator) for x in row] for row in rows], den)


def _zi_row_times(a_re: list[int], a_im: list[int], b_re: list[list[int]],
                  b_im: list[list[int]]) -> tuple[list[int], list[int]]:
    """The Gaussian-integer row a = a_re + i a_im times the Gaussian-integer
    matrix b = b_re + i b_im (rows of b), as (re, im) integer lists."""
    ncols = len(b_re[0])
    acc_re = [0] * ncols
    acc_im = [0] * ncols
    for c, d, x_re, x_im in zip(a_re, a_im, b_re, b_im):
        if not (c or d):
            continue
        for j in range(ncols):
            x, y = x_re[j], x_im[j]
            acc_re[j] += c * x - d * y
            acc_im[j] += c * y + d * x
    return acc_re, acc_im


def mat_mul(a: list[Vector], b: list[Vector]) -> list[Vector]:
    """Rows of a times matrix b (rows of b).

    Each row of a is put over its own denominator and all of b over one
    shared denominator, so the products accumulate in Gaussian integers and
    one Fraction is built per output component.
    """
    b_re, b_im, b_den = _gaussian_matrix(b)
    out = []
    for row in a:
        a_re, a_im, den = _gaussian_row(row)
        acc_re, acc_im = _zi_row_times(a_re, a_im, b_re, b_im)
        den *= b_den
        out.append(tuple(_scalar(x, y, den) for x, y in zip(acc_re, acc_im)))
    return out


def _zi_eliminate(work: list[ZiRow], *, reduced: bool = False) -> tuple[list[ZiRow], list[int]]:
    """Fraction-free elimination (Bareiss 1968) of Gaussian-integer rows
    (re, im), in place.  Returns (the nonzero rows, their pivot columns); the
    rows are in echelon order, each is zero left of its pivot (so in the
    pivot columns of the rows above it), and none is divided by its pivot.
    This forward pass is all a flag echelon needs: its ends, and its spans
    below each end, depend only on the pivots being distinct (IsotropicFlag,
    item 2).  reduced=True, for rref and isotropy_classify, also clears each
    pivot column in the rows above (Gauss-Jordan); every pivot then ends
    equal to the last one.

    Every row being cleared is replaced by (p row - c pivot_row) / p_prev,
    where p is the new pivot, c the row's entry in the pivot column and
    p_prev the previous pivot (1 at the start).  By Sylvester's identity
    each entry is then a minor of the input matrix, so the division is
    exact; the rows below the pivot get the same update in both passes.  A
    row above is zero in the new pivot's column at its own pivot, so that
    pivot becomes p p_prev / p_prev = p.  Each step scales rows by nonzero
    elements of Z[i] and adds multiples of one row to another, so the row
    span and the pivot columns are those of elimination over Q(i).
    """
    if not work:
        return [], []
    ncols = len(work[0][0])
    nrows = len(work)
    pivots: list[int] = []
    prev_re, prev_im, prev_norm = 1, 0, 1
    row = 0
    for col in range(ncols):
        for pivot_row in range(row, nrows):
            if work[pivot_row][0][col] or work[pivot_row][1][col]:
                break
        else:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        p_re, p_im = work[row]
        a, b = p_re[col], p_im[col]
        for r in range(0 if reduced else row + 1, nrows):
            if r == row:
                continue
            x_re, x_im = work[r]
            c, d = x_re[col], x_im[col]
            new_re = []
            new_im = []
            for x, y, u, v in zip(x_re, x_im, p_re, p_im):
                # t = (a + bi)(x + yi) - (c + di)(u + vi); t / p_prev is
                # t conj(p_prev) / |p_prev|^2
                t_re = a * x - b * y - c * u + d * v
                t_im = a * y + b * x - c * v - d * u
                q_re, rem_re = divmod(t_re * prev_re + t_im * prev_im, prev_norm)
                q_im, rem_im = divmod(t_im * prev_re - t_re * prev_im, prev_norm)
                if rem_re or rem_im:
                    raise InternalConsistencyError("inexact fraction-free division")
                new_re.append(q_re)
                new_im.append(q_im)
            work[r] = (new_re, new_im)
        pivots.append(col)
        prev_re, prev_im, prev_norm = a, b, a * a + b * b
        row += 1
        if row == nrows:
            break
    return work[:row], pivots


def rref(rows: list[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Each row is scaled to clear its denominators and the Gaussian-integer
    rows are eliminated by _zi_eliminate; rows are divided by their own
    pivots only at the end.  The reduced echelon form is unique, so it is the
    one that elimination over Q(i) gives.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise InputError("ragged matrix")
    work, pivots = _zi_eliminate([_gaussian_row(r)[:2] for r in rows], reduced=True)
    red = []
    for (x_re, x_im), col in zip(work, pivots):
        a, b = x_re[col], x_im[col]
        norm = a * a + b * b
        # x / (a + bi) = x (a - bi) / norm
        red.append(tuple(_scalar(x * a + y * b, y * a - x * b, norm)
                         for x, y in zip(x_re, x_im)))
    return red, pivots


def kernel_basis(rows: list[Vector], ncols: int) -> list[Vector]:
    """Basis of {x : M x^t = 0}, from the reduced echelon form of M."""
    return _reduced_kernel(rref(rows)[0], ncols)


def _pivot_columns(red: tuple[Vector, ...] | list[Vector]) -> list[int]:
    """The pivot column of each row of a reduced echelon basis."""
    return [next(i for i, x in enumerate(row) if x) for row in red]


def _reduced_kernel(red: tuple[Vector, ...] | list[Vector], ncols: int) -> list[Vector]:
    """Basis of {x : M x^t = 0} for M in reduced echelon form, read off the
    rows with no elimination: one vector per free column f, 1 at f and
    -row[f] at each row's pivot column."""
    pivots = _pivot_columns(red)
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

    def gram(self, vectors: list[Vector]) -> list[Vector]:
        """Q(v, w) for every pair: since J reverses coordinates, one product
        of the vectors with the transpose of their reversals."""
        if any(len(v) != self.p for v in vectors):
            raise InputError("vector length does not match form dimension")
        return mat_mul(vectors, [tuple(w[self.p - 1 - i] for w in vectors)
                                 for i in range(self.p)])

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

    Equal subspaces have identical stored bases, so == is syntactic.  A
    Subspace is immutable: its hash is computed on first use and kept.
    Because the basis is reduced, membership needs no elimination (see
    _spans).
    """

    __slots__ = ("ambient", "rows", "_hash")

    def __init__(self, ambient: int, rows: tuple[Vector, ...]):
        self.ambient = ambient
        self.rows = rows
        self._hash: int | None = None

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
        return self._spans([v])

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise InputError("ambient dimensions differ")
        return self._spans(list(other.rows))

    def _spans(self, vectors: list[Vector]) -> bool:
        """Whether every vector lies in the subspace.  Each basis row is 1 at
        its pivot column and every other row is 0 there, so v lies in the
        span exactly when v = sum_k v[pivot_k] row_k: one product checks all
        the vectors."""
        if not self.rows:
            return all(is_zero_vector(v) for v in vectors)
        pivots = _pivot_columns(self.rows)
        coeffs = [tuple(v[c] for c in pivots) for v in vectors]
        return mat_mul(coeffs, list(self.rows)) == [tuple(v) for v in vectors]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ambient, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def transform(self, m: list[Vector]) -> "Subspace":
        """Image under v -> v @ m."""
        if not self.rows:
            return Subspace.zero(len(m[0]))
        return Subspace.from_vectors(mat_mul(list(self.rows), m), len(m[0]))


def meet_join(u: Subspace, v: Subspace) -> tuple[Subspace, Subspace]:
    """Intersection and sum of two subspaces of the same ambient space, with
    the meet taken from the annihilator of v.

    Lemma.  Let v have reduced rows.  Its kernel vectors N (one per free
    column f: 1 at f, -row[f] at each row's pivot column) are read off the
    rows with no elimination, and x lies in v exactly when x.n = 0 for every
    n in N.  So with U the rows of u,

        u meet v = {a U : a (U N^t) = 0},

    one kernel_basis of the dim u x (p - dim v) matrix U N^t (of its
    transpose N U^t, whose kernel is that left kernel), then one
    from_vectors for the meet's canonical basis.

    The join follows from dim(u join v) = dim u + dim v - dim(u meet v): it
    is v when the meet is u, u when the meet is v, the full space when the
    count reaches p, and otherwise one elimination of the stacked rows.
    """
    if u.ambient != v.ambient:
        raise InputError("ambient dimensions differ")
    p = u.ambient
    if not u.rows or not v.rows:
        return Subspace.zero(p), (u if u.rows else v)
    if v.dim == p:
        return u, v
    normals = _reduced_kernel(v.rows, p)
    columns = [tuple(r[j] for r in u.rows) for j in range(p)]
    coeffs = kernel_basis(mat_mul(normals, columns), u.dim)
    if len(coeffs) == u.dim:
        return u, v
    if len(coeffs) == v.dim:
        return v, u
    meet = Subspace.from_vectors(mat_mul(coeffs, list(u.rows)), p) if coeffs else Subspace.zero(p)
    if u.dim + v.dim - meet.dim == p:
        return meet, Subspace.full(p)
    return meet, Subspace.from_vectors(list(u.rows) + list(v.rows), p)


def orthocomplement(y: Subspace, form: BilinearForm) -> Subspace:
    """Q-orthocomplement.  Since J is coordinate reversal, x lies in Y^perp
    exactly when reversed(x) is in the kernel of Y's reduced rows, which is
    read off those rows with no elimination.  Each kernel vector is 1 at its
    free column and nonzero elsewhere only at pivot columns to its left, so
    the kernel basis reversed, vector by vector and in order, is already
    Y^perp's reduced echelon basis."""
    if y.ambient != form.p:
        raise InputError("ambient dimension does not match form")
    kernel = _reduced_kernel(y.rows, form.p)
    return Subspace(form.p, tuple(tuple(reversed(v)) for v in reversed(kernel)))


def _zi_gram(rows: list[ZiRow]) -> list[ZiRow]:
    """The Gram matrix G = R J R^t of Gaussian-integer rows R, as rows
    (re, im): J reverses coordinates, so G[k][l] is r_k times r_l reversed."""
    rev_re = [list(col) for col in zip(*(re[::-1] for re, _ in rows))]
    rev_im = [list(col) for col in zip(*(im[::-1] for _, im in rows))]
    return [_zi_row_times(re, im, rev_re, rev_im) for re, im in rows]


def isotropy_classify(y: Subspace, form: BilinearForm) -> tuple[bool, Subspace, int]:
    """(is_isotropic, radical, rank of the restricted form), from the integer
    Gram matrix G = R J R^t of Y's rows R, each cleared of denominators.

    Lemma.  x = aR lies in the radical exactly when Q(x, r_l) =
    sum_k a_k G[k][l] = 0 for every row r_l, so the radical is
    {aR : aG = 0} and the restricted rank is rank G; Y is isotropic exactly
    when G = 0, and then the radical is Y itself.  When G has full rank the
    radical is zero.  Otherwise G is symmetric, so one reduced _zi_eliminate
    of its rows gives that kernel: every pivot ends equal to one d, and for
    each free column f the vector with d at f and -row[f] at each row's
    pivot column is a Z[i] kernel vector.  Only the radical's canonical
    basis is built from Fractions.
    """
    if y.ambient != form.p:
        raise InputError("ambient dimension does not match form")
    rows = [_gaussian_row(row)[:2] for row in y.rows]
    return _isotropy_from_gram(y, rows, _zi_gram(rows))


def _isotropy_from_gram(y: Subspace, rows: list[ZiRow],
                        gram: list[ZiRow]) -> tuple[bool, Subspace, int]:
    """isotropy_classify of y, given y's rows cleared of denominators and
    their Gram matrix, which is left as it was."""
    echelon, pivots = _zi_eliminate(list(gram), reduced=True)
    rank = len(pivots)
    if rank == 0:
        return True, y, 0
    if rank == y.dim:
        return False, Subspace.zero(y.ambient), rank
    d_re, d_im = echelon[0][0][pivots[0]], echelon[0][1][pivots[0]]
    r_re, r_im = zip(*rows)
    kernel = []
    for f in sorted(set(range(y.dim)) - set(pivots)):
        a_re, a_im = [0] * y.dim, [0] * y.dim
        a_re[f], a_im[f] = d_re, d_im
        for (x_re, x_im), c in zip(echelon, pivots):
            a_re[c], a_im[c] = -x_re[f], -x_im[f]
        kernel.append(_zi_vector(_zi_row_times(a_re, a_im, r_re, r_im)))
    return False, Subspace.from_vectors(kernel, y.ambient), rank


def max_isotropic_dimension(y: Subspace, form: BilinearForm) -> int:
    """Largest dimension of an isotropic subspace of Y over the algebraic
    closure: dim(radical) + floor(rank/2)."""
    _, radical, rank = isotropy_classify(y, form)
    return radical.dim + rank // 2


# ---------------------------------------------------------------------------
# isometries act on rows: Eichler transvections, random elements


def eichler_rows(rows: list[Vector], a: int, z: Vector) -> list[Vector]:
    """Each row under the Eichler transvection for the isotropic e = e_a and
    z orthogonal to e:

        x -> x + Q(x,e) z - Q(x,z) e - (1/2) Q(z,z) Q(x,e) e

    It is an isometry of determinant 1 fixing e and everything orthogonal to
    both e and z.  Since Q(x, e_a) = x[p-1-a], each row gains x[p-1-a] z'
    with z' = z - (1/2) Q(z,z) e_a, and loses Q(x,z) at coordinate a.
    """
    p = len(z)
    form = BilinearForm(p)
    if 2 * a == p - 1:
        raise InternalConsistencyError("Eichler vector e_a must be isotropic")
    if not z[p - 1 - a].is_zero():
        raise InternalConsistencyError("Eichler vector z must be orthogonal to e_a")
    shifted = list(z)
    shifted[a] = z[a] - HALF * form.pair(z, z)
    out = []
    for x in rows:
        c = x[p - 1 - a]
        y = list(vadd(x, vscale(c, shifted))) if c else list(x)
        y[a] = y[a] - form.pair(x, z)
        out.append(tuple(y))
    return out


def random_scalar(rng: random.Random, span: int = 4) -> Scalar:
    """re + im*i with re and im drawn as a/b, |a| <= span, 1 <= b <= span."""
    re = Fraction(rng.randint(-span, span), rng.randint(1, span))
    im = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return Scalar(re, im)


def random_special_isometry(p: int, seed: int) -> list[Vector]:
    """A pseudo-random isometry of J_p over Q(i), as the rows of its matrix
    (the images of the standard basis vectors).  seed 0 gives the identity
    by convention.

    Eight moves drawn from Random(seed) act in turn on the rows of the
    identity: Eichler transvections; hyperbolic pair scalings (coordinate a
    times t, its partner p-1-a times t^{-1}); swaps of two hyperbolic pairs
    (coordinates a <-> b and p-1-a <-> p-1-b); and flips of coordinates
    a <-> p-1-a and b <-> p-1-b.  A flip with a = b swaps one pair only and
    has determinant -1, so the result lies in O(J_p) but not always in
    SO(J_p).
    """
    rows = standard_basis(p)
    if seed == 0 or p == 1:
        return rows
    rng = random.Random(seed)
    npairs = p // 2
    for _ in range(8):
        kind = rng.randrange(4)
        if kind == 0:
            a = rng.randrange(npairs)
            z = [random_scalar(rng, 3) for _ in range(p)]
            z[p - 1 - a] = ZERO  # keeps z orthogonal to e_a
            rows = eichler_rows(rows, a, tuple(z))
        elif kind == 1:
            t = random_scalar(rng, 3)
            while t.is_zero():
                t = random_scalar(rng, 3)
            a = rng.randrange(npairs)
            factor = {a: t, p - 1 - a: ONE / t}
            rows = [tuple(factor[j] * x if j in factor else x for j, x in enumerate(row))
                    for row in rows]
        else:
            # coordinate swaps: perm is an involution, so row @ P = row[perm]
            perm = list(range(p))
            if kind == 2 and npairs >= 2:
                a, b = rng.sample(range(npairs), 2)
                perm[a], perm[b] = b, a
                perm[p - 1 - a], perm[p - 1 - b] = p - 1 - b, p - 1 - a
            else:
                a = rng.randrange(npairs)
                b = rng.randrange(npairs)
                for c in {a, b}:
                    perm[c], perm[p - 1 - c] = p - 1 - c, c
            rows = [tuple(row[j] for j in perm) for row in rows]
    return rows


def hyperbolic_basis(form: BilinearForm, seed: int) -> tuple[Vector, ...]:
    """An ordered basis (w_1, ..., w_p) with Gram matrix exactly J_p.

    The rows of random_special_isometry(p, seed), i.e. the images of the
    standard basis under a random isometry; seed 0 gives the standard basis.
    Deterministic for a fixed seed.
    """
    basis = tuple(random_special_isometry(form.p, seed))
    if not form.is_standard_gram(list(basis)):
        raise InternalConsistencyError("generated basis is not hyperbolic")
    return basis


# ---------------------------------------------------------------------------
# hyperbolic completion (closed form on reduced rows)


def complete_to_hyperbolic(w: Subspace) -> tuple[Vector, ...]:
    """A full hyperbolic basis (Gram = J_q) whose first k vectors are the
    canonical rows of the isotropic W (k = dim W) and whose first q - k
    vectors span W^perp, read off the rows with no elimination.

    Lemma.  Let W be isotropic, with reduced rows x_1..x_k and pivot columns
    c_1 < ... < c_k, so x_a[c_b] = delta_ab.
    (i) No c_a + c_b equals q - 1, including a = b.  Otherwise the only term
        of Q(x_a, x_b) = sum_j x_a[j] x_b[q-1-j] that can be nonzero is
        x_a[c_a] x_b[c_b] = 1 (x_a vanishes below c_a, x_b below c_b), so W
        would not be isotropic.
    (ii) Let M be the remaining coordinates, in ascending order; M is closed
        under m -> q-1-m.  Then
        (x_1..x_k, (e_m - sum_a x_a[q-1-m] e_{q-1-c_a})_{m in M},
         e_{q-1-c_k}, ..., e_{q-1-c_1})
        has Gram matrix exactly J: Q(x_a, e_{q-1-c_b}) = x_a[c_b], the
        correction makes each middle vector orthogonal to every x_a, and by
        (i) the partners pair with nothing but the x_a.
    The partners are standard vectors, and k = 0 gives the standard basis.

    A non-isotropic W (a bug in the caller, who checks W) fails the final
    Gram check: the top-left k x k block of J is zero.
    """
    q = w.ambient
    xs = list(w.rows)
    pivots = _pivot_columns(xs)
    partners = [q - 1 - c for c in pivots]
    taken = set(pivots).union(partners)
    std = standard_basis(q)
    middles = []
    for m in range(q):
        if m not in taken:
            u = list(std[m])
            for x, r in zip(xs, partners):
                u[r] = -x[q - 1 - m]
            middles.append(tuple(u))
    basis = tuple(xs + middles + [std[r] for r in reversed(partners)])
    if not BilinearForm(q).is_standard_gram(list(basis)):
        raise InternalConsistencyError("hyperbolic completion produced a bad Gram matrix")
    return basis
