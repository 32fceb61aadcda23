"""Exact linear algebra over the Gaussian rationals with the split symmetric form.

Vectors are row vectors throughout; a linear map acts by right
multiplication v -> v @ M.  The bilinear form is always the antidiagonal
split form J_p with Q(e_i, e_j) = 1 iff i + j = p + 1 (1-indexed), so
multiplying a row vector by J is coordinate reversal.

A vector is a Gaussian-integer row (re, im) (ZiRow) with an integer
denominator kept beside it, as (row, den), and a matrix is a list of such
rows over one denominator, as (rows, den): subspaces, echelons, flag bases,
eigenbases, isometries and the row tuple A alike.  _least puts a matrix
over its least denominator.  The pairing Q(x, y) of two rows is computed
in one place (_zi_pair), except in the sparse hyperbolicity check
(_zi_hyperbolic).  Subspaces are held in their canonical form over the
Gaussian integers Z[i] (Subspace, rref), built by the one fraction-free
elimination (_zi_eliminate), which flags run with their own readers.  Instance generation draws straight into the
matrix form: common_den puts a matrix of drawn Gaussian rationals over one
denominator as (rows, den), and random_special_isometry makes its random
isometry on Gaussian-integer rows over their least common denominator, the
rows of a generated flag.  Scalar vectors (Vector) are what
Subspace.from_vectors, contains, kernel_basis and invert_matrix take: each
becomes a Gaussian-integer (row, den) there, through _gaussian_row.  A
subspace's Scalar rows are built only when read.
Membership, kernels, orthocomplements and radicals are read off the stored
integers, and the hyperbolic completion of an isotropic subspace off its
rows, as Gaussian integers, with no further elimination.

Whether a Gram block is invertible is asked over F_p first, p = _P, a prime
with p = 1 (mod 4), before any exact elimination (_fp_gram, _fp_full_rank).
Lemma: with r = _R, r^2 = -1 (mod p), phi(a + bi) = a + b r mod p is a
ring map Z[i] -> F_p, so phi(det G) = det phi(G), and phi(G) is the Gram
matrix of the rows mapped by phi.  When phi(G) has full rank, det G != 0
and G has full rank over Q(i).  Every other outcome, a block singular mod p
among them (det G may be a nonzero multiple of p), is decided by the exact
elimination, so the prefilter changes no answer.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError, InternalConsistencyError
from .scalars import ONE, ZERO, Scalar

Vector = tuple[Scalar, ...]
# A Gaussian-integer row as (real parts, imaginary parts).
ZiRow = tuple[Sequence[int], Sequence[int]]


# ---------------------------------------------------------------------------
# vector / matrix helpers


def _gaussian_row(row: Vector) -> tuple[ZiRow, int]:
    """((re, im), den) with row = (re + i im) / den, re and im integer lists
    and den the lcm of the row's denominators."""
    den = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
    return ([x.re.numerator * (den // x.re.denominator) for x in row],
            [x.im.numerator * (den // x.im.denominator) for x in row]), den


def _scalar(re: int, im: int, den: int) -> Scalar:
    """(re + i im) / den."""
    if not (re or im):
        return ZERO
    return Scalar(Fraction(re, den), Fraction(im, den))


def _scalar_row(row: ZiRow, den: int) -> Vector:
    """The Gaussian-integer row (re, im) over den, as a Vector."""
    return tuple(_scalar(x, y, den) for x, y in zip(*row))


def _zi_row_times(a: ZiRow, b: Sequence[ZiRow]) -> tuple[list[int], list[int]]:
    """The Gaussian-integer row a times the Gaussian-integer matrix with rows
    b, as (re, im) integer lists."""
    ncols = len(b[0][0])
    acc_re = [0] * ncols
    acc_im = [0] * ncols
    for c, d, (x_re, x_im) in zip(*a, b):
        if not (c or d):
            continue
        for j in range(ncols):
            x, y = x_re[j], x_im[j]
            acc_re[j] += c * x - d * y
            acc_im[j] += c * y + d * x
    return acc_re, acc_im


def _zi_pair(x: ZiRow, y: ZiRow) -> tuple[int, int]:
    """Q(x, y) = sum_k x_k y_(p-1-k) of two Gaussian-integer rows, as (re, im).
    J reverses coordinates, so it is x times y reversed: p products for each
    of its four sums.  The one pairing: the flag coordinates, isotropy,
    Gram matrices and the random isometry's moves all read it."""
    x_re, x_im = x
    y_re, y_im = y
    return (sum(map(mul, x_re, reversed(y_re))) - sum(map(mul, x_im, reversed(y_im))),
            sum(map(mul, x_re, reversed(y_im))) + sum(map(mul, x_im, reversed(y_re))))


def _least(rows: list[ZiRow], den: int) -> tuple[list[ZiRow], int]:
    """The Gaussian-integer rows over den, put over their least denominator
    by one gcd of den and every integer part; the rows themselves when that
    gcd is 1."""
    g = gcd(den, *(x for row in rows for part in row for x in part))
    if g == 1:
        return rows, den
    return [([x // g for x in re], [y // g for y in im]) for re, im in rows], den // g


def _zi_hyperbolic(rows: Sequence[ZiRow], den: int) -> bool:
    """Whether the rows of B = B' / den have Gram matrix J, for a square
    Gaussian-integer matrix B' with the rows given: whether
    B' J B'^T = den^2 J, which makes the pairing of a vector with row q-1-k
    of B its coordinate k in the basis (IsotropicFlag, item 1).

    Entry (i, m) of B' J B'^T is the sum over k of b'_ik b'_m(q-1-k).  The
    matrix is symmetric, so row i is checked at m >= i only, and each sum
    runs over the nonzero entries only (a generated q = 8 flag basis is
    over half 0): a nonzero b'_ik meets the nonzero entries of column
    q-1-k, held from the bottom row up so that the rows m >= i come
    first.  Every parsed flag and eigenbasis is checked here, so this
    sparse scan, not one _zi_pair per entry, keeps parsing fast."""
    q = len(rows)
    # nonzero[m]: the nonzero (k, re, im) of row m; partners[k]: the
    # nonzero (m, re, im) of column q-1-k, m decreasing
    nonzero: list[list[tuple[int, int, int]]] = []
    partners: list[list[tuple[int, int, int]]] = [[] for _ in range(q)]
    for m in range(q - 1, -1, -1):
        row = []
        for k, x, y in zip(range(q), *rows[m]):
            if x or y:
                row.append((k, x, y))
                partners[q - 1 - k].append((m, x, y))
        nonzero.append(row)
    nonzero.reverse()
    scaled = den * den
    for i, row in enumerate(nonzero):
        acc_re = [0] * q
        acc_im = [0] * q
        for k, a, b in row:
            for m, x, y in partners[k]:
                if m < i:
                    break
                acc_re[m] += a * x - b * y
                acc_im[m] += a * y + b * x
        if 2 * i < q:
            acc_re[q - 1 - i] -= scaled
        if any(acc_re) or any(acc_im):
            return False
    return True


# a prime p = 1 (mod 4) and a square root r of -1 mod p: a + bi -> a + b r
# mod p maps Z[i] into F_p (module docstring)
_P = 998244353
_R = 911660635


def _fp_gram(rows: Sequence[ZiRow]) -> list[list[int]]:
    """phi(R J R^t) for Gaussian-integer rows R, as rows of integers in
    [0, p): the Gram matrix of the rows mapped into F_p, each row reduced
    once, so that no exact Gram entry is built."""
    xs = [[(a + b * _R) % _P for a, b in zip(re, im)] for re, im in rows]
    ys = [x[::-1] for x in xs]
    return [[sum(map(mul, x, y)) % _P for y in ys] for x in xs]


def _fp_full_rank(m: list[list[int]]) -> bool:
    """Whether the square matrix m over F_p, entries in [0, p), is
    invertible: Gauss elimination mod p, which fails at the first column
    with no pivot.  m is left as it was."""
    m = list(m)
    n = len(m)
    for col in range(n):
        for k in range(col, n):
            if m[k][col]:
                break
        else:
            return False
        pivot = m[k]
        m[k] = m[col]
        inv = pow(pivot[col], -1, _P)
        for k in range(col + 1, n):
            c = m[k][col] * inv % _P
            if c:
                m[k] = [(x - c * y) % _P for x, y in zip(m[k], pivot)]
    return True


def _zi_entry(row: ZiRow, col: int) -> tuple[int, int]:
    """A row's entry at col, as (re, im): _zi_eliminate's reader of columns."""
    return row[0][col], row[1][col]


def _zi_step(x: ZiRow, c: tuple[int, int], p: ZiRow, a: tuple[int, int],
             prev: tuple[int, int]) -> tuple[list[int], list[int]]:
    """(a x - c p) / prev for Gaussian-integer rows x, p and Gaussian
    integers c, a, prev as (re, im), computed as
    (a conj(prev) x - c conj(prev) p) / |prev|^2, every division checked."""
    e, f = prev
    n = e * e + f * f
    a1, b1 = a[0] * e + a[1] * f, a[1] * e - a[0] * f
    c1, d1 = c[0] * e + c[1] * f, c[1] * e - c[0] * f
    re: list[int] = []
    im: list[int] = []
    for x_re, x_im, u, v in zip(*x, *p):
        q_re, r_re = divmod(a1 * x_re - b1 * x_im - c1 * u + d1 * v, n)
        q_im, r_im = divmod(a1 * x_im + b1 * x_re - c1 * v - d1 * u, n)
        if r_re or r_im:
            raise InternalConsistencyError("inexact fraction-free division")
        re.append(q_re)
        im.append(q_im)
    return re, im


def _zi_eliminate(rows: Sequence[ZiRow], read: Callable[[ZiRow, int], tuple[int, int]],
                  positions: Iterable[int], *,
                  reduced: bool = False) -> tuple[list[ZiRow], list[int]]:
    """The one fraction-free elimination (Bareiss 1968) of Gaussian-integer
    rows (re, im).  read(row, pos) is a row's Gaussian-integer coordinate
    at pos, linear in the row: rref reads columns, IsotropicFlag.zi_echelon
    pairings with a flag's basis, radical_dim a Gram block's columns.
    Returns (the pivot rows, their positions) in the order found, no row
    divided by its pivot.

    At each position in turn, the first remaining row with a nonzero
    coordinate a is taken out as the pivot p, and every other remaining row
    x, with coordinate c, becomes (a x - c p) / a_prev, a_prev the previous
    pivot's coordinate (1 at first); the rows keep their order.  By
    Sylvester's identity each entry is then a minor of the rows'
    coordinates and entries side by side, so the division is exact;
    _zi_step checks it, so a fault raises InternalConsistencyError rather
    than floor a row.  Rows that are or become zero are dropped, and the
    scan stops when none is left.  Each step scales rows by nonzero
    elements of Z[i] and adds multiples of one row to another, so the
    pivot rows span the rows and their positions are those of elimination
    over Q(i).  reduced=True, for rref, gives the earlier pivot rows the
    same update (Gauss-Jordan): the new pivot row is zero at their
    positions, so each earlier pivot becomes a a_prev / a_prev = a, and
    every pivot ends equal to the last one.
    """
    left = [row for row in rows if any(row[0]) or any(row[1])]
    done: list[ZiRow] = []
    found: list[int] = []
    prev = (1, 0)
    for pos in positions:
        if not left:
            break
        coords = [read(row, pos) for row in left]
        for m, a in enumerate(coords):
            if a[0] or a[1]:
                break
        else:
            continue
        pivot = left.pop(m)
        del coords[m]
        if reduced:
            done = [_zi_step(x, read(x, pos), pivot, a, prev) for x in done]
        rest = []
        for x, c in zip(left, coords):
            re, im = x = _zi_step(x, c, pivot, a, prev)
            if any(re) or any(im):
                rest.append(x)
        left = rest
        done.append(pivot)
        found.append(pos)
        prev = a
    return done, found


def rref(rows: list[ZiRow]) -> tuple[int, tuple[ZiRow, ...], tuple[int, ...]]:
    """The reduced row echelon form R of Gaussian-integer rows (re, im), as
    (D, D R, pivot columns), with D the least positive integer that makes
    D R Gaussian-integral.  R is unique to the row span, so D and D R are
    too.

    One reduced _zi_eliminate by columns leaves every pivot equal to one d,
    so each row of R is x / d = x conj(d) / |d|^2 for an eliminated row x.
    _least puts the rows x conj(d) over |d|^2 by their gcd g with |d|^2,
    D = |d|^2 / g and D R = x conj(d) / g: no prime divides both D and
    every entry of D R, so no smaller D clears R.  The pivot entries of D R
    are D.
    """
    work, pivots = _zi_eliminate(rows, _zi_entry, range(len(rows[0][0]) if rows else 0),
                                 reduced=True)
    if not work:
        return 1, (), ()
    a, b = _zi_entry(work[0], pivots[0])
    scaled, den = _least([([x * a + y * b for x, y in zip(re, im)],
                           [y * a - x * b for x, y in zip(re, im)]) for re, im in work],
                         a * a + b * b)
    return den, tuple((tuple(re), tuple(im)) for re, im in scaled), tuple(pivots)


def _reduced_kernel(y: "Subspace") -> list[ZiRow]:
    """D times the basis of {x : R x^t = 0} read off y's rows D R with no
    elimination: one vector per free column f, D at f and -(D R)[k][f] at
    row k's pivot column."""
    p = y.ambient
    free = sorted(set(range(p)) - set(y.pivots))
    basis = []
    for f in free:
        re, im = [0] * p, [0] * p
        re[f] = y.den
        for (x_re, x_im), c in zip(y.zi_rows, y.pivots):
            re[c], im[c] = -x_re[f], -x_im[f]
        basis.append((re, im))
    return basis


def kernel_basis(rows: list[Vector], ncols: int) -> list[Vector]:
    """Basis of {x : M x^t = 0}, 1 at one free column of M's rref each."""
    y = Subspace.from_vectors(rows, ncols)
    return [_scalar_row(row, y.den) for row in _reduced_kernel(y)]


def invert_matrix(m: list[Vector]) -> list[Vector]:
    n = len(m)
    aug = Subspace.from_vectors([tuple(row) + tuple(ONE if j == i else ZERO for j in range(n))
                                 for i, row in enumerate(m)], 2 * n)
    if aug.pivots[:n] != tuple(range(n)):
        raise InputError("matrix is singular")
    return [row[n:] for row in aug.rows]


# ---------------------------------------------------------------------------
# the split bilinear form


@dataclass(frozen=True)
class BilinearForm:
    """The antidiagonal split symmetric form J_p on Q(i)^p."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise InputError("form dimension must be positive")


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q(i)^p, held as its canonical form over Z[i]: its unique
    reduced row echelon basis R, stored as (D, D R, pivot columns) with D
    the least positive integer that makes D R Gaussian-integral (rref).

    Equal subspaces have equal (D, D R), so == and the hash compare
    integers.  A Subspace is immutable; its hash, its Scalar rows (read by
    invert_matrix and the tests) and its isotropy_classify are built on
    first use and kept.  Membership needs no elimination (see _spans).
    """

    __slots__ = ("ambient", "den", "zi_rows", "pivots", "_rows", "_hash", "_isotropy")

    def __init__(self, ambient: int, den: int, zi_rows: tuple[ZiRow, ...],
                 pivots: tuple[int, ...]):
        self.ambient = ambient
        self.den = den
        self.zi_rows = zi_rows
        self.pivots = pivots
        self._rows: tuple[Vector, ...] | None = None
        self._hash: int | None = None
        # isotropy_classify, with None for a radical that is the subspace
        # itself, so that an isotropic subspace holds no reference to itself
        self._isotropy: tuple[bool, Subspace | None, int] | None = None

    @classmethod
    def from_vectors(cls, vectors: list[Vector], ambient: int) -> "Subspace":
        """The span of Scalar vectors, each cleared of its denominators."""
        for v in vectors:
            if len(v) != ambient:
                raise InputError("vector length does not match ambient dimension")
        return cls(ambient, *rref([_gaussian_row(v)[0] for v in vectors]))

    @classmethod
    def from_zi_rows(cls, rows: list[ZiRow], ambient: int) -> "Subspace":
        """The span of Gaussian-integer rows (re, im) of length ambient."""
        return cls(ambient, *rref(rows))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, 1, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, 1, tuple((tuple(int(j == i) for j in range(ambient)), (0,) * ambient)
                                     for i in range(ambient)), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.zi_rows)

    @property
    def rows(self) -> tuple[Vector, ...]:
        """R as Scalar rows, built on first use."""
        if self._rows is None:
            self._rows = tuple(_scalar_row(row, self.den) for row in self.zi_rows)
        return self._rows

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient:
            raise InputError("vector length does not match ambient dimension")
        return self._spans([_gaussian_row(v)[0]])

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise InputError("ambient dimensions differ")
        return self._spans(other.zi_rows)

    def _spans(self, vectors) -> bool:
        """Whether every Gaussian-integer row v lies in the subspace.  Row k
        of R is 1 at its pivot column and every other row is 0 there, so v
        lies in the span exactly when v = sum_k v[pivot_k] R_k, that is, when
        D v = sum_k v[pivot_k] (D R)_k: one integer product per vector."""
        if not self.zi_rows:
            return not any(any(re) or any(im) for re, im in vectors)
        d = self.den
        return all(_zi_row_times(([re[c] for c in self.pivots], [im[c] for c in self.pivots]),
                                 self.zi_rows) == ([d * x for x in re], [d * x for x in im])
                   for re, im in vectors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient and self.den == other.den
                and self.zi_rows == other.zi_rows)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ambient, self.den, self.zi_rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _fraction_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, with no Fraction built."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _tuple_text(items: list[str]) -> str:
    """The repr of a tuple whose items have the reprs given."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def order_key(sub: Subspace) -> tuple[int, str]:
    """(dim, repr(sub.rows)), the order isotropic subspaces are listed in
    for the bound stage and the destabilizer search, written from the
    stored (D, D R) with no Scalar or Fraction built: entry (x + i y) / D
    is written as Scalar's repr writes it, each part as its reduced
    fraction."""
    d = sub.den
    return sub.dim, _tuple_text([
        _tuple_text([f"Scalar({_fraction_text(x, d)}, {_fraction_text(y, d)})" if y
                     else f"Scalar({_fraction_text(x, d)})" for x, y in zip(re, im)])
        for re, im in sub.zi_rows])


def meet_join(u: Subspace, v: Subspace) -> tuple[Subspace, Subspace]:
    """Intersection and sum of two subspaces of the same ambient space.  The
    join is one rref of the stacked stored rows, and the meet is
    (u^perp join v^perp)^perp, whose orthocomplements are re-indexes of
    stored integers (orthocomplement): one more rref."""
    if u.ambient != v.ambient:
        raise InputError("ambient dimensions differ")
    form = BilinearForm(u.ambient)

    def join(a: Subspace, b: Subspace) -> Subspace:
        return Subspace.from_zi_rows(list(a.zi_rows) + list(b.zi_rows), u.ambient)

    perps = orthocomplement(u, form), orthocomplement(v, form)
    return orthocomplement(join(*perps), form), join(u, v)


def orthocomplement(y: Subspace, form: BilinearForm) -> Subspace:
    """Q-orthocomplement, a re-index of Y's stored integers.  Since J is
    coordinate reversal, x lies in Y^perp exactly when reversed(x) is in the
    kernel of Y's rows R.  Each kernel vector is 1 at its free column and
    nonzero elsewhere only at pivot columns to its left, so the kernel basis
    reversed, vector by vector and in order, is already Y^perp's reduced
    echelon basis, with pivots p-1-f for the free columns f, descending.

    Lemma: D(Y^perp) = D(Y).  R's pivot columns hold only 0 and 1, so every
    denominator of R is that of an entry R[k][f] in a free column f, and
    those entries (negated) with 0 and 1 are the entries of Y^perp's basis.
    So _reduced_kernel's vectors, D at f and -(D R)[k][f] at pivot k, are
    Y^perp's D R.  (For dim Y = 0 or p, both D are 1.)
    """
    if y.ambient != form.p:
        raise InputError("ambient dimension does not match form")
    p = form.p
    kernel = _reduced_kernel(y)
    free = sorted(set(range(p)) - set(y.pivots), reverse=True)
    return Subspace(p, y.den,
                    tuple((tuple(reversed(re)), tuple(reversed(im))) for re, im in reversed(kernel)),
                    tuple(p - 1 - f for f in free))


def _zi_gram(rows: list[ZiRow]) -> list[ZiRow]:
    """The Gram matrix G = R J R^t of Gaussian-integer rows R, as rows
    (re, im): G[k][l] = Q(r_k, r_l), paired once for k >= l (G is
    symmetric)."""
    n = len(rows)
    g: list[list] = [[None] * n for _ in range(n)]
    for k, x in enumerate(rows):
        for l in range(k + 1):
            g[k][l] = g[l][k] = _zi_pair(x, rows[l])
    return [tuple(zip(*row)) for row in g]


def isotropy_classify(y: Subspace, form: BilinearForm) -> tuple[bool, Subspace, int]:
    """(is_isotropic, radical, rank of the restricted form), from the integer
    Gram matrix G = X J X^t of Y's stored rows X = D R.

    Lemma.  x = aX lies in the radical exactly when Q(x, x_l) =
    sum_k a_k G[k][l] = 0 for every row x_l, so the radical is
    {aX : aG = 0} and the restricted rank is rank G; Y is isotropic exactly
    when G = 0, and then the radical is Y itself.  When G has full rank the
    radical is zero, and G is asked first over F_p (module docstring):
    full rank mod p proves it with no exact G built.  Otherwise G is
    symmetric, so its canonical form (rref) gives that kernel with no
    further elimination (_reduced_kernel), and the radical's rows aX are
    Gaussian-integer rows again, canonicalised by one more rref.  The
    result is kept with Y (Subspace), so T = span(A)^perp, asked about by
    the bound stage, the line oracle's witness and the destabilizer search,
    is classified once.
    """
    if y.ambient != form.p:
        raise InputError("ambient dimension does not match form")
    if y._isotropy is None:
        iso, radical, rank = _isotropy_from_gram(y)
        y._isotropy = iso, None if radical is y else radical, rank
    iso, radical, rank = y._isotropy
    return iso, y if radical is None else radical, rank


def _isotropy_from_gram(y: Subspace) -> tuple[bool, Subspace, int]:
    """isotropy_classify of y, not kept: the Gram matrix mod p, then the
    exact one only when that is singular."""
    if y.dim and _fp_full_rank(_fp_gram(y.zi_rows)):
        return False, Subspace.zero(y.ambient), y.dim
    g = Subspace.from_zi_rows(_zi_gram(y.zi_rows), y.dim)
    if g.dim == 0:
        return True, y, 0
    if g.dim == y.dim:
        return False, Subspace.zero(y.ambient), g.dim
    kernel = [_zi_row_times(a, y.zi_rows) for a in _reduced_kernel(g)]
    return False, Subspace.from_zi_rows(kernel, y.ambient), g.dim


def max_isotropic_dimension(y: Subspace, form: BilinearForm) -> int:
    """Largest dimension of an isotropic subspace of Y over the algebraic
    closure: dim(radical) + floor(rank/2)."""
    _, radical, rank = isotropy_classify(y, form)
    return radical.dim + rank // 2


# ---------------------------------------------------------------------------
# random isometries, drawn on Gaussian integers


def random_gaussian(rng: random.Random, span: int = 4) -> tuple[int, int, int]:
    """re + im*i with re and im drawn as a/b, |a| <= span, 1 <= b <= span (four
    randints: re's a and b, then im's), as (x, y, d) with the value
    (x + i y) / d and d = b_re b_im, not always the least denominator."""
    a, b = rng.randint(-span, span), rng.randint(1, span)
    c, d = rng.randint(-span, span), rng.randint(1, span)
    return a * d, c * b, b * d


def common_den(matrix: list[list[tuple[int, int, int]]]) -> tuple[list[ZiRow], int]:
    """A matrix of Gaussian rationals (x, y, d) = (x + i y) / d as
    Gaussian-integer rows (re, im) over D, the lcm of every d: (rows, D)."""
    den = lcm(*(d for row in matrix for _, _, d in row))
    return [([x * (den // d) for x, _, d in row], [y * (den // d) for _, y, d in row])
            for row in matrix], den


def random_special_isometry(p: int, seed: int) -> tuple[list[ZiRow], int]:
    """A pseudo-random isometry of J_p over Q(i), as the rows of its matrix
    (the images of the standard basis vectors), held as Gaussian-integer
    rows over their least common denominator: (rows, D) with the matrix
    rows / D.  seed 0 gives the identity by convention.

    Eight moves drawn from Random(seed) act in turn on the rows of the
    identity:
    - Eichler transvections for e = e_a and z orthogonal to e,
          x -> x + Q(x,e) z - Q(x,z) e - (1/2) Q(z,z) Q(x,e) e,
      of determinant 1.  With z = Z / dz over one denominator and
      Q(x, e_a) = x[p-1-a], a row X / D becomes
          (2 dz^2 X + X[p-1-a] (2 dz Z - Q(Z,Z) e_a) - 2 dz Q(X,Z) e_a)
          / (2 dz^2 D);
    - hyperbolic pair scalings, coordinate a times t and its partner p-1-a
      times 1/t: with t = T / dt, 1/t = dt conj(T) / |T|^2, so the rows go
      over dt |T|^2 D;
    - swaps of two hyperbolic pairs (coordinates a <-> b and p-1-a <-> p-1-b);
    - flips of coordinates a <-> p-1-a and b <-> p-1-b.  A flip with a = b
      swaps one pair only and has determinant -1, so the result lies in
      O(J_p) but not always in SO(J_p).
    The swaps and flips permute columns.  After each Eichler move or
    scaling, _least leaves D least.
    """
    rows = [([int(i == j) for j in range(p)], [0] * p) for i in range(p)]
    den = 1
    if seed == 0 or p == 1:
        return rows, den
    rng = random.Random(seed)
    npairs = p // 2
    for _ in range(8):
        kind = rng.randrange(4)
        if kind == 0:
            a = rng.randrange(npairs)
            z = [random_gaussian(rng, 3) for _ in range(p)]
            z[p - 1 - a] = (0, 0, 1)  # keeps z orthogonal to e_a
            (z,), dz = common_den([z])
            z_re, z_im = z
            zz_re, zz_im = _zi_pair(z, z)
            s_re = [2 * dz * x for x in z_re]
            s_im = [2 * dz * y for y in z_im]
            s_re[a] -= zz_re
            s_im[a] -= zz_im
            scale = 2 * dz * dz
            for x in rows:
                x_re, x_im = x
                c, d = x_re[p - 1 - a], x_im[p - 1 - a]
                xz_re, xz_im = _zi_pair(x, z)
                for j in range(p):
                    u, v = s_re[j], s_im[j]
                    x_re[j], x_im[j] = (scale * x_re[j] + c * u - d * v,
                                        scale * x_im[j] + c * v + d * u)
                x_re[a] -= 2 * dz * xz_re
                x_im[a] -= 2 * dz * xz_im
            den *= scale
        elif kind == 1:
            t = random_gaussian(rng, 3)
            while not (t[0] or t[1]):
                t = random_gaussian(rng, 3)
            a = rng.randrange(npairs)
            u, v, dt = t
            norm = u * u + v * v
            scale = dt * norm
            b = p - 1 - a
            for x_re, x_im in rows:
                xa, ya, xb, yb = x_re[a], x_im[a], x_re[b], x_im[b]
                for j in range(p):
                    x_re[j] *= scale
                    x_im[j] *= scale
                x_re[a], x_im[a] = norm * (xa * u - ya * v), norm * (xa * v + ya * u)
                x_re[b], x_im[b] = dt * dt * (xb * u + yb * v), dt * dt * (yb * u - xb * v)
            den *= scale
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
            rows = [([x[j] for j in perm], [y[j] for j in perm]) for x, y in rows]
            continue
        rows, den = _least(rows, den)
    return rows, den


# ---------------------------------------------------------------------------
# hyperbolic completion (closed form on reduced rows)


def complete_to_hyperbolic(w: Subspace) -> tuple[list[ZiRow], int]:
    """A full hyperbolic basis (Gram = J_q) whose first k vectors are the
    canonical rows of the isotropic W (k = dim W) and whose first q - k
    vectors span W^perp, read off the rows with no elimination.  It is
    returned as (rows, D) with the basis rows / D, D being W's: the first
    k rows are W's stored D R, and the others D times the vectors below.

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
    Every entry is an entry of some x_a, 0 or 1, so D is also the least
    common denominator of the basis.

    A non-isotropic W (a bug in the caller, who checks W) fails the final
    Gram check, made on the integers: the top-left k x k block of J is zero.
    """
    q, d = w.ambient, w.den
    partners = [q - 1 - c for c in w.pivots]
    taken = set(w.pivots).union(partners)
    rows = list(w.zi_rows)
    for m in range(q):
        if m not in taken:
            re, im = [0] * q, [0] * q
            re[m] = d
            for (x_re, x_im), r in zip(w.zi_rows, partners):
                re[r], im[r] = -x_re[q - 1 - m], -x_im[q - 1 - m]
            rows.append((re, im))
    rows += [([d if j == r else 0 for j in range(q)], [0] * q) for r in reversed(partners)]
    if len(rows) != q or not _zi_hyperbolic(rows, d):
        raise InternalConsistencyError("hyperbolic completion produced a bad Gram matrix")
    return rows, d
