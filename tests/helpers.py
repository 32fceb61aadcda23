"""Scalar forms of isoflag's integer-held types, and code only the tests run.

IsotropicFlag, HiggsTuple, OnePS and ExtensionLine each hold their
Gaussian-integer form only.  The tests write many of them as Scalar rows:
the builders here put such rows over their least common denominator, the
form the package holds (linalg._gaussian_row and gaussian_matrix), and the
views read the Scalar rows back (flag_basis, flag_inverse, oneps_basis,
completion_rows, isometry_rows).  The Scalar references the integer code is
compared with (matrix products, Gram matrices, the pairing, the square root
in Q(i), the JSON writer of Scalar rows, the random draws, the row-by-row
random isometry with its Eichler moves and the dense inverse of a flag's
basis), the isometry actions on flags and subspaces, the Grassmannian
weight identity and the line oracle's search as a recursive walk are used by
the tests alone, so they live here too.  So do the degree and bound
references the package's readings of echelon ends replaced: the jump sum of
a profile, the greedy per-flag bound on it, and the rank-one factor's pieces
of C^2 with their score.  And so does the instance file built as a JSON
object (instance_to_json), whose json.dumps(..., indent=2) the package's
text writer, io.serialize_instance, must equal byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import isqrt, lcm

from isoflag.errors import InputError, InternalConsistencyError
from isoflag.flags import FlagSystem, IsotropicFlag, require_weight_for
from isoflag.higgs import (ExtensionLine, HiggsTuple, LineOracleResult, _isotropic_line_in,
                           _lowest_end_terms, _zi_isotropic)
from isoflag.hmgit import OnePS
from isoflag.io import InstanceFile, _zi_rows_to_json
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    Vector,
    ZiRow,
    _gaussian_row,
    _least,
    _scalar,
    _scalar_row,
    _zi_hyperbolic,
    _zi_row_times,
    complete_to_hyperbolic,
    meet_join,
    random_special_isometry,
)
from isoflag.scalars import ONE, ZERO, Scalar, format_fraction
from isoflag.weights import Weight

I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))


def sc(re=0, im=0) -> Scalar:
    """Shorthand constructor, accepting ints or Fractions."""
    return Scalar(re, im)


# ---------------------------------------------------------------------------
# Scalar rows in, Scalar rows out


def gaussian_matrix(rows: list[Vector]) -> tuple[list[ZiRow], int]:
    """(zi_rows, den) with rows = zi_rows / den, Gaussian-integer rows
    (re, im) over one shared denominator, den the lcm of every entry's
    denominators."""
    den = lcm(*(x.re.denominator for row in rows for x in row),
              *(x.im.denominator for row in rows for x in row))
    return [([x.re.numerator * (den // x.re.denominator) for x in row],
             [x.im.numerator * (den // x.im.denominator) for x in row]) for row in rows], den


def flag_from_rows(basis) -> IsotropicFlag:
    """The flag with the adapted basis given as Scalar rows."""
    return IsotropicFlag(*gaussian_matrix(list(basis)))


def flag_basis(f: IsotropicFlag) -> tuple[Vector, ...]:
    return tuple(_scalar_row(row, f.den) for row in f.zi_rows)


def flag_inverse(f: IsotropicFlag) -> list[Vector]:
    """J B'^T J / den for a flag's basis B' / den: the inverse of the basis
    when it is hyperbolic, as Scalar rows, the dense reference for the flag
    coordinates the package reads as pairings."""
    re = reversed_transpose([re for re, _ in f.zi_rows])
    im = reversed_transpose([im for _, im in f.zi_rows])
    return [_scalar_row(row, f.den) for row in zip(re, im)]


def higgs_from_rows(q: int, s: int, rows) -> HiggsTuple:
    """The row tuple of the Scalar rows given."""
    return HiggsTuple(q, s, *gaussian_matrix(list(rows)))


def higgs_rows(a: HiggsTuple) -> tuple[Vector, ...]:
    return tuple(_scalar_row(row, a.den) for row in a.zi_rows)


def oneps_from_rows(l: int, m: tuple[int, ...], basis) -> OnePS:
    """The one-parameter subgroup with the eigenbasis given as Scalar rows."""
    return OnePS(l, m, *gaussian_matrix(list(basis)))


def oneps_basis(lam: OnePS) -> tuple[Vector, ...]:
    return tuple(_scalar_row(row, lam.den) for row in lam.zi_rows)


def completion_rows(w: Subspace) -> tuple[Vector, ...]:
    """linalg.complete_to_hyperbolic(w) as Scalar rows."""
    rows, den = complete_to_hyperbolic(w)
    return tuple(_scalar_row(row, den) for row in rows)


def line_parts(line: ExtensionLine) -> tuple[Vector, Vector, Scalar]:
    """An extension line's base, twist and delta as Scalars."""
    base, twist, delta = (_scalar_row(*part) for part in (line.base, line.twist, line.delta))
    return base, twist, delta[0]


def isometry_rows(p: int, seed: int) -> list[Vector]:
    """linalg.random_special_isometry(p, seed) as Scalar rows."""
    rows, den = random_special_isometry(p, seed)
    return [_scalar_row(row, den) for row in rows]


# ---------------------------------------------------------------------------
# Scalar references


def standard_basis(n: int) -> list[Vector]:
    return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vscale(c: Scalar, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def pair(form: BilinearForm, x: Vector, y: Vector) -> Scalar:
    """Q(x, y) = sum_i x_i y_(p-1-i), one Scalar product at a time."""
    if len(x) != form.p or len(y) != form.p:
        raise InputError("vector length does not match form dimension")
    acc = ZERO
    for i in range(form.p):
        acc = acc + x[i] * y[form.p - 1 - i]
    return acc


def random_scalar(rng: random.Random, span: int = 4) -> Scalar:
    """re + im*i with re and im drawn as a/b, |a| <= span, 1 <= b <= span:
    the draws of linalg.random_gaussian, as a Scalar."""
    re = Fraction(rng.randint(-span, span), rng.randint(1, span))
    im = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return Scalar(re, im)


def random_vector(rng: random.Random, q: int, span: int = 4) -> Vector:
    """q draws of random_scalar: the draws of a generic row of
    randgen.random_instance, as Scalars."""
    return tuple(random_scalar(rng, span) for _ in range(q))


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
    shifted[a] = z[a] - HALF * pair(form, z, z)
    out = []
    for x in rows:
        c = x[p - 1 - a]
        y = list(vadd(x, vscale(c, shifted))) if c else list(x)
        y[a] = y[a] - pair(form, x, z)
        out.append(tuple(y))
    return out


def scalar_special_isometry(p: int, seed: int) -> list[Vector]:
    """random_special_isometry's moves made on Scalar rows, one row at a
    time: the same draws from Random(seed), Eichler transvections by
    eichler_rows, pair scalings by t and 1/t, and the same permutations."""
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
    """An ordered basis (w_1, ..., w_p) with Gram matrix exactly J_p: the
    rows of scalar_special_isometry(p, seed), i.e. the images of the
    standard basis under a random isometry; seed 0 gives the standard
    basis."""
    basis = tuple(scalar_special_isometry(form.p, seed))
    if not _zi_hyperbolic(*gaussian_matrix(list(basis))):
        raise InternalConsistencyError("generated basis is not hyperbolic")
    return basis


def mat_mul(a: list[Vector], b: list[Vector]) -> list[Vector]:
    """Rows of a times matrix b (rows of b).

    Each row of a is put over its own denominator and all of b over one
    shared denominator, so the products accumulate in Gaussian integers and
    one Fraction is built per output component.
    """
    b_rows, b_den = gaussian_matrix(b)
    out = []
    for row in a:
        a_row, den = _gaussian_row(row)
        acc_re, acc_im = _zi_row_times(a_row, b_rows)
        den *= b_den
        out.append(tuple(_scalar(x, y, den) for x, y in zip(acc_re, acc_im)))
    return out


def reversed_transpose(b: list[list[int]]) -> list[tuple[int, ...]]:
    """J B^T J for a square integer matrix B: B^T with its rows and columns
    reversed, so that entry (i, j) is B[q-1-j][q-1-i] (flag_inverse reads
    it off a flag's real and imaginary parts)."""
    return [col[::-1] for col in zip(*b)][::-1]


def gram(form: BilinearForm, vectors: list[Vector]) -> list[Vector]:
    """Q(v, w) for every pair: since J reverses coordinates, one product of
    the vectors with the transpose of their reversals."""
    if any(len(v) != form.p for v in vectors):
        raise InputError("vector length does not match form dimension")
    return mat_mul(vectors, [tuple(w[form.p - 1 - i] for w in vectors) for i in range(form.p)])


def is_standard_gram(form: BilinearForm, vectors: list[Vector]) -> bool:
    """True iff the Gram matrix of the vectors equals J_p itself."""
    n = len(vectors)
    return gram(form, vectors) == [tuple(ONE if i + j == n - 1 else ZERO for j in range(n))
                                   for i in range(n)]


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if none exists."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(z: Scalar) -> Scalar | None:
    """An exact square root in Q(i), or None when z is not a square: the
    reference for the package's root in Z[i].

    For a + bi with b != 0, a root x + yi must satisfy x^2 = (a + N)/2 and
    y = b/(2x) where N = sqrt(a^2 + b^2); each step is an exact rational
    square-root test.
    """
    a, b = z.re, z.im
    if b == 0:
        r = _fraction_sqrt(a)
        if r is not None:
            return Scalar(r)
        r = _fraction_sqrt(-a)
        if r is not None:
            return Scalar(0, r)
        return None
    n = _fraction_sqrt(a * a + b * b)
    if n is None:
        return None
    x = _fraction_sqrt((a + n) / 2)
    if x is None or x == 0:
        return None
    root = Scalar(x, b / (2 * x))
    return root if root * root == z else None


def scalar_to_json(x: Scalar) -> dict:
    return {"re": format_fraction(x.re), "im": format_fraction(x.im)}


def vector_to_json(v: Vector) -> list:
    return [scalar_to_json(x) for x in v]


def matrix_to_json(rows) -> list:
    """Scalar rows as the instance format writes them: the reference the
    package's integer writers are compared with."""
    return [vector_to_json(row) for row in rows]


def weight_to_json(w: Weight) -> dict:
    return {
        "q": w.q,
        "s": w.s,
        "alpha": [format_fraction(a) for a in w.alpha],
        "beta": [[format_fraction(b) for b in row] for row in w.beta],
    }


def flag_to_json(f: IsotropicFlag) -> list:
    return _zi_rows_to_json(f.zi_rows, f.den)


def instance_to_json(inst: InstanceFile) -> dict:
    """The instance file as a JSON object: json.dumps(instance_to_json(inst),
    indent=2) is the reference io.serialize_instance's text is compared
    with, byte for byte."""
    out = {
        "weight": weight_to_json(inst.weight),
        "flags": [flag_to_json(f) for f in inst.flags.flags],
        "A": _zi_rows_to_json(inst.higgs.zi_rows, inst.higgs.den),
    }
    if inst.seed is not None:
        out["seed"] = inst.seed
    if inst.metadata:
        out["metadata"] = inst.metadata
    return out


# ---------------------------------------------------------------------------
# isometries acting on flags and subspaces


def transform_subspace(sub: Subspace, m: list[Vector]) -> Subspace:
    """Image under v -> v @ m."""
    if not sub.zi_rows:
        return Subspace.zero(len(m[0]))
    return Subspace.from_vectors(mat_mul(list(sub.rows), m), len(m[0]))


def transform_flag(f: IsotropicFlag, m: list[Vector]) -> IsotropicFlag:
    """The flag with basis w_i @ m (m must be a J-isometry)."""
    return flag_from_rows(mat_mul(list(flag_basis(f)), m))


def transform_flags(fs: FlagSystem, m: list[Vector]) -> FlagSystem:
    return FlagSystem(tuple(transform_flag(f, m) for f in fs.flags))


# ---------------------------------------------------------------------------
# other presentations of the same instance


def rebased_flag(flag: IsotropicFlag, rng: random.Random, moves: int = 6) -> IsotropicFlag:
    """The same flag with another adapted basis: the basis B times random
    elements g of the flag's Borel subgroup, g B with g lower triangular and
    g J g^T = J, so that every piece F_i and the Gram matrix J are kept.

    Each move is one of
    - a root element I + c (e_ab - e_b'a') with b < a, b' = q-1-b,
      a' = q-1-a and c in Z[i]: row a gains c row b and row b' loses c row
      a'.  Its Gram matrix is J when a + b != q-1 and neither a nor b is the
      middle index of an odd q (where a c^2 term would be left over);
    - a torus scaling of one hyperbolic pair: row a times t and row a' times
      1/t, for a nonzero t in Z[i].
    The basis is put over its least denominator, as a parsed flag's is."""
    q = flag.q
    rows, den = [(list(re), list(im)) for re, im in flag.zi_rows], flag.den
    indices = [k for k in range(q) if 2 * k != q - 1]
    for _ in range(moves):
        if rng.randrange(3):
            a, b = sorted(rng.sample(indices, 2), reverse=True)
            if a + b == q - 1:
                continue
            c = rng.randint(-2, 2), rng.randint(-2, 2)
            new_a = _zi_row_times(((1, c[0]), (0, c[1])), (rows[a], rows[b]))
            new_b = _zi_row_times(((1, -c[0]), (0, -c[1])), (rows[q - 1 - b], rows[q - 1 - a]))
            rows[a], rows[q - 1 - b] = new_a, new_b
        else:
            a = rng.choice(indices)
            t = (0, 0)
            while t == (0, 0):
                t = rng.randint(-2, 2), rng.randint(-2, 2)
            # row a times t |t|^2, row a' times conj(t) and every other row
            # times |t|^2, over |t|^2 den
            norm = t[0] ** 2 + t[1] ** 2
            scale = [(norm, 0)] * q
            scale[a], scale[q - 1 - a] = (norm * t[0], norm * t[1]), (t[0], -t[1])
            rows = [_zi_row_times(((x,), (y,)), [row]) for (x, y), row in zip(scale, rows)]
            den *= norm
        rows, den = _least(rows, den)
    out = IsotropicFlag(rows, den)
    if not out.hyperbolic:
        raise InternalConsistencyError("a Borel move left the split form")
    return out


def recombined_rows(a: HiggsTuple, fs: FlagSystem, w: Weight,
                    rng: random.Random) -> tuple[HiggsTuple, FlagSystem, Weight]:
    """The instance with its rows A recombined by an invertible matrix: an
    upper-triangular one with nonzero diagonal, then the rows reversed.  The
    span of A, and so the instance, is kept."""
    rows = list(higgs_rows(a))
    out = []
    for k in range(len(rows)):
        c = random_scalar(rng, 3)
        while c.is_zero():
            c = random_scalar(rng, 3)
        row = tuple(c * x for x in rows[k])
        for other in rows[k + 1:]:
            d = random_scalar(rng, 2)
            row = tuple(x + d * y for x, y in zip(row, other))
        out.append(row)
    return higgs_from_rows(a.q, a.s, reversed(out)), fs, w


# ---------------------------------------------------------------------------
# degrees from profiles, and the rank-one factor on C^2


def pardeg_from_profile(profile: tuple[int, ...], beta_row: tuple) -> int:
    """sum_i beta_i (profile[i] - profile[i-1]) for one puncture: the
    reference for flags.n_pardeg's sum over echelon ends."""
    total = 0
    for i in range(1, len(profile)):
        jump = profile[i] - profile[i - 1]
        if jump:
            total += beta_row[i - 1] * jump
    return total


def per_flag_upper(k: int, profile: tuple[int, ...], beta_row: tuple) -> int:
    """Greedy relaxation: the best score a k-dimensional subspace W <= T could
    achieve at one flag, subject only to dim(W ^ F_i) <= min(k, dim(T ^ F_i)).
    Abel summation turns the jump sum into sum_i d_i (beta_i - beta_{i+1}) with
    beta_{q+1} = 0 and d_q = k; the differences are nonnegative, so taking
    d_i maximal is optimal: the jump sum of the capped profile.  The
    reference for higgs._lowest_end_terms."""
    return pardeg_from_profile(tuple(min(k, d) for d in profile[:-1]) + (k,), beta_row)


def u_piece(lam: OnePS, n: int) -> Subspace:
    """U_n of the rank-one factor: u = e_1 when l >= n, u' = e_2 when -l >= n."""
    rows = []
    if lam.l >= n:
        rows.append(([1, 0], [0, 0]))
    if -lam.l >= n:
        rows.append(([0, 1], [0, 0]))
    return Subspace.from_zi_rows(rows, 2)


def so2_score(t: Subspace, n_abs_alpha: int) -> int:
    """The rank-one factor's contribution N |alpha| (2 dim(T ^ U) - dim T) for
    T among the four subspaces 0, U, U', C^2 cut out by the distinguished
    point of the two-dimensional factor (U = <e_1>), given N |alpha|.

    Only these four arise as filtration pieces of a one-parameter subgroup of
    the rank-one factor, so anything else is an input error.
    """
    if t.ambient != 2:
        raise InputError("so2_score expects a subspace of C^2")
    if t.dim in (0, 2):
        return 0  # 2 dim(T ^ U) - dim T vanishes for both
    re, im = t.zi_rows[0]
    if not (re[1] or im[1]):
        return n_abs_alpha       # T = U
    if not (re[0] or im[0]):
        return -n_abs_alpha      # T = U'
    raise InputError("so2_score: line is not a coordinate isotropic line")


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
        piece = partial(u_piece, lam)
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


# ---------------------------------------------------------------------------
# the line oracle's search as a recursive walk, kept as the reference


def recursive_line_oracle(t_sub: Subspace, fs: FlagSystem, w: Weight,
                          seed: int = 0) -> LineOracleResult:
    """higgs.line_oracle with its search as the recursive visit it was
    written as before the walk moved onto an explicit stack: the same nodes
    in the same order, the same value and the same witness."""
    require_weight_for(fs, w)
    if t_sub.ambient != fs.q:
        raise InputError("subspace ambient dimension does not match flags")
    q, s = fs.q, fs.s

    n_beta = w.n_beta
    t_rows = list(t_sub.zi_rows)
    suffix_bound = [0] * (s + 1)  # item 6
    if len(t_rows) > 1:  # item 9
        terms = _lowest_end_terms([flag.ends(t_sub) for flag in fs.flags], n_beta, 1)
        for j in range(s - 1, -1, -1):
            suffix_bound[j] = suffix_bound[j + 1] + terms[j]

    best: list = [None, []]  # N pardeg score, the rows of its leaves in visit order

    def visit(j: int, rows: list[ZiRow], partial: int) -> None:
        if len(rows) == 1 and not _zi_isotropic(rows[0]):
            return  # item 7
        while True:
            if best[0] is not None and partial + suffix_bound[j] < best[0]:
                return
            if j == s:
                if best[0] is None or partial > best[0]:
                    best[0], best[1] = partial, []
                best[1].append(rows)
                return
            if len(rows) > 1:
                break
            # a line's one child is itself, at its end (item 5)
            partial += n_beta[j][fs.flags[j].line_end(rows[0])]
            j += 1
        flag = fs.flags[j]
        # item 8
        pieces, ends = flag.echelon(t_sub) if rows is t_rows else flag.zi_echelon(rows)
        for n, e in enumerate(reversed(ends), 1):
            visit(j + 1, pieces[-n:] if n < len(ends) else rows, partial + n_beta[j][e])

    if t_rows:
        visit(0, t_rows, 0)
    # visit's closure holds visit itself: break that cycle so fs and the
    # flags' cached echelons are freed at return, not by the collector
    del visit
    value = None if best[0] is None else Fraction(best[0], w.n)
    rng = random.Random(seed)
    extension = None
    seen: set[Subspace] = set()
    for rows in best[1]:
        y = Subspace.from_zi_rows(rows, q)
        if y in seen:
            continue
        seen.add(y)
        found = _isotropic_line_in(y, rng)
        if isinstance(found, Subspace):
            return LineOracleResult(value=value, witness=found)
        extension = extension or found
    return LineOracleResult(value=value, witness=extension)
