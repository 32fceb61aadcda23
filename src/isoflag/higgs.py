"""Stability of the row-tuple / flag-system model, with certificates.

An instance is a tuple A of s-2 row vectors in Q(i)^q together with s
complete isotropic flags and a weight in the admissible region.  It is

  * semistable iff (1) no isotropic subspace contains every A_i^t, and
    (2) every coisotropic subspace containing all A_i^t has pardeg <= 0;
  * stable iff additionally the inequality in (2) is strict for proper
    subspaces.

Condition (1) reduces to a rank computation: some isotropic subspace
contains span(A) iff the form vanishes identically on span(A) (an isotropic
superspace restricts to zero on the span; conversely the span itself is then
isotropic).  Condition (2) reduces, via pardeg(V') = pardeg(V'^perp) and
double orthocomplements, to maximizing pardeg over isotropic subspaces W of
span(A)^perp, with V' = W^perp.

The line oracle below computes the exact maximum over isotropic *lines* by a
one-line lemma: every line in Y_b = T ^ F_{b_1}^1 ^ ... ^ F_{b_s}^s has jump
positions <= b_j, hence pardeg >= score(b) = sum_j beta_{b_j}^j (beta is
non-increasing), and a line's own tuple b scores exactly its pardeg.  So the
maximum is the best score among the leaves Y_b that hold an isotropic line
over C.  Witnesses are produced over Q(i), or over a single quadratic
extension Q(i)(sqrt(delta)) when a rank-two restriction of the form does not
split (the two isotropic lines of a binary form live in a conjugate pair
with equal pardeg).

For q <= 3 every nonzero isotropic subspace is a line, so the oracle decides
condition (2) completely and the verdict is never Undetermined.  For q >= 4
exact maximization over higher-dimensional isotropic subspaces across several
flags is not attempted; the verdict carries certified bounds instead: from
below, the best explicit isotropic witness (the line oracle's line, or a
radical of dim >= 2 of T or of some T ^ F_i^j, built only where the Gram
matrix of T's echelon rows in flag coordinates shows one), which is sound
because every witness is a true isotropic subspace of T; from above, the
best over k <= nu(T) of beta summed at T's k lowest echelon ends against each
flag, which no witness enters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import InputError, InternalConsistencyError
from .flags import FlagSystem, pardeg_subspace, require_weight_for, validate_flag
from .linalg import (
    BilinearForm,
    Subspace,
    Vector,
    ZiRow,
    _gaussian_row,
    _least,
    _zi_gram,
    _zi_pair,
    _zi_row_times,
    common_den,
    isotropy_classify,
    order_key,
    orthocomplement,
)
from .scalars import Scalar
from .weights import Weight, region_membership, require_valid


class HiggsTuple:
    """The s-2 row vectors of an instance (the lower Higgs block; the upper
    block vanishes identically in the admissible weight regime and is not
    stored).  The rows are coefficient vectors against a basis of sections;
    that basis itself never needs to be materialized.

    A is held as one Gaussian-integer matrix, the layout of every matrix in
    linalg: rows (re, im) over one denominator, A = zi_rows / den, with den
    the lcm of the entries' reduced denominators.  An instance file is
    parsed straight into that form, and generated rows are drawn in it.
    The constructor takes the rows over any positive denominator and puts
    them over the least one (linalg._least), as tuples, so the form is
    canonical and ==, the hash and the repr read it.
    A decision reads the rows only through their span, eliminated from
    zi_rows.  Immutable."""

    def __init__(self, q: int, s: int, zi_rows: list[ZiRow], den: int):
        if s < 3:
            raise InputError("need at least 3 punctures")
        if len(zi_rows) != s - 2:
            raise InputError(f"expected {s - 2} rows, got {len(zi_rows)}")
        if any(len(re) != q or len(im) != q for re, im in zi_rows):
            raise InputError("row length does not match q")
        if den < 1:
            raise InputError("row denominator must be positive")
        zi_rows, den = _least(zi_rows, den)
        self.q, self.s = q, s
        self.zi_rows = tuple((tuple(re), tuple(im)) for re, im in zi_rows)
        self.den = den

    def __eq__(self, other) -> bool:
        if not isinstance(other, HiggsTuple):
            return NotImplemented
        return ((self.q, self.s, self.den, self.zi_rows)
                == (other.q, other.s, other.den, other.zi_rows))

    def __hash__(self) -> int:
        return hash((self.q, self.s, self.den, self.zi_rows))

    def __repr__(self) -> str:
        return f"HiggsTuple(q={self.q}, s={self.s}, zi_rows={self.zi_rows!r}, den={self.den})"

    def span(self) -> Subspace:
        """The span of the rows.  The rows are immutable, so it is eliminated
        once per instance and kept."""
        return self._span

    @cached_property
    def _span(self) -> Subspace:
        return Subspace.from_zi_rows(self.zi_rows, self.q)

    def span_perp(self) -> Subspace:
        """T = span^perp (module docstring), kept the same way as the span."""
        return self._span_perp

    @cached_property
    def _span_perp(self) -> Subspace:
        return orthocomplement(self._span, BilinearForm(self.q))


# ---------------------------------------------------------------------------
# witnesses


def _lone(row: ZiRow, den: int) -> tuple[ZiRow, int]:
    """The row / den over its least denominator (linalg._least), as
    ((re, im), den) with integer tuples."""
    ((re, im),), den = _least([row], den)
    return (tuple(re), tuple(im)), den


class ExtensionLine:
    """The line spanned by base + sqrt(delta) * twist over Q(i)(sqrt(delta)),
    delta a non-square.  Its intersection pattern with rational subspaces is
    computed componentwise: since 1 and sqrt(delta) are linearly independent
    over Q(i), the line lies in a rational subspace iff both base and twist
    do, i.e. iff the rational hull span(base, twist) does.  Lemma: a line
    whose hull is a nondegenerate plane (every line _isotropic_line_in
    builds) lies in no isotropic F_i^j, so its jumps are above q/2, where
    beta_i <= 0 by antisymmetry: pardeg <= 0 under any valid weight.

    base, twist and delta (a row of one entry) are each held as (row, den),
    linalg's matrix form for one row: the Gaussian-integer row (re, im)
    over its least denominator (linalg._least).  That form is canonical,
    so == and the hash compare integers.  _isotropic_line_in builds the
    line from Gaussian integers (from_zi); the constructor takes Scalars
    and converts them once.  Immutable."""

    __slots__ = ("ambient", "base", "twist", "delta")

    def __init__(self, ambient: int, base: Vector, twist: Vector, delta: Scalar):
        self.ambient = ambient
        self.base, self.twist, self.delta = (_lone(*_gaussian_row(v))
                                             for v in (base, twist, (delta,)))

    @classmethod
    def from_zi(cls, ambient: int, base: ZiRow, twist: ZiRow, delta: tuple[int, int],
                den: int) -> "ExtensionLine":
        """The line with base / den^3, twist / den and delta / den^4, for
        Gaussian-integer rows base and twist and a Gaussian integer delta."""
        line = cls.__new__(cls)
        line.ambient = ambient
        line.base, line.twist = _lone(base, den ** 3), _lone(twist, den)
        line.delta = _lone(((delta[0],), (delta[1],)), den ** 4)
        return line

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtensionLine):
            return NotImplemented
        return ((self.ambient, self.base, self.twist, self.delta)
                == (other.ambient, other.base, other.twist, other.delta))

    def __hash__(self) -> int:
        return hash((self.ambient, self.base, self.twist, self.delta))

    def __repr__(self) -> str:
        return (f"ExtensionLine(ambient={self.ambient}, base={self.base!r}, "
                f"twist={self.twist!r}, delta={self.delta!r})")

    def pardeg(self, fs: FlagSystem, w: Weight) -> Fraction:
        """A line has one jump per flag: the first i with the line in F_i^j,
        that is, with the hull in F_i^j, which is i = e + 1 for the hull's
        top end e (IsotropicFlag.ends)."""
        require_weight_for(fs, w)
        hull = Subspace.from_zi_rows([self.base[0], self.twist[0]], self.ambient)
        return Fraction(sum(row[flag.ends(hull)[0]] for row, flag in zip(w.n_beta, fs.flags)),
                        w.n)

    def is_isotropic(self, form: BilinearForm) -> bool:
        """Both parts of Q(base + sqrt(delta) twist) vanish: Q(base, base) +
        delta Q(twist, twist) and 2 Q(base, twist).  With base = B / d_b,
        twist = T / d_t and delta = Delta / d_delta, the first times
        d_b^2 d_t^2 d_delta is Q(B, B) d_delta d_t^2 + Delta Q(T, T) d_b^2,
        read off the pairings of the integer rows B and T."""
        if form.p != self.ambient:
            raise InputError("vector length does not match form dimension")
        (base, d_b), (twist, d_t) = self.base, self.twist
        bb, bt, tt = _zi_pair(base, base), _zi_pair(base, twist), _zi_pair(twist, twist)
        ((x,), (y,)), d_delta = self.delta
        scale_bb, scale_tt = d_delta * d_t ** 2, d_b ** 2
        return bt == (0, 0) and all(u * scale_bb + v * scale_tt == 0
                                    for u, v in zip(bb, _times((x, y), tt)))


LineWitness = Subspace | ExtensionLine


# ---------------------------------------------------------------------------
# condition (1)


def condition1_isotropic_span(a: HiggsTuple) -> tuple[bool, Subspace]:
    """True iff no isotropic subspace contains every row, i.e. the span does
    not lie in span^perp (see module docstring for the reduction)."""
    return not a.span_perp().contains_subspace(a.span()), a.span()


# ---------------------------------------------------------------------------
# the line oracle


def _line(v: ZiRow, ambient: int) -> Subspace:
    return Subspace.from_zi_rows([v], ambient)


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two Gaussian integers (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _zi_sqrt(a: int, b: int) -> tuple[int, int] | None:
    """A square root x + yi of the Gaussian integer a + bi, or None when it
    has none in Q(i): Z[i] is integrally closed, so a root in Q(i) lies in
    Z[i].  For b = 0 the root is sqrt(a) >= 0 or i sqrt(-a); otherwise it is
    the one with x > 0: with n = |a + bi|, x = sqrt((a + n) / 2) and
    y = b / (2x), exact because y^2 = (n - a) / 2 is an integer."""
    if b == 0:
        r = isqrt(abs(a))
        if r * r != abs(a):
            return None
        return (r, 0) if a >= 0 else (0, r)
    n = isqrt(a * a + b * b)
    if n * n != a * a + b * b or (a + n) % 2:
        return None
    x = isqrt((a + n) // 2)
    if x * x != (a + n) // 2:
        return None
    return x, b // (2 * x)


def _combine(c1: tuple[int, int], v1: ZiRow, c2: tuple[int, int], v2: ZiRow) -> ZiRow:
    """c1 v1 + c2 v2 for Gaussian integers c1, c2 and rows v1, v2."""
    return _zi_row_times(tuple(zip(c1, c2)), (v1, v2))


def _isotropic_line_in(y: Subspace, rng: random.Random) -> LineWitness | None:
    """Some isotropic line inside y, or None when y has none over C.

    Over C a nonzero isotropic vector exists iff dim y >= 2 or the restricted
    form vanishes; in the nondegenerate rank-two case the two isotropic lines
    may only exist over a quadratic extension, which is returned explicitly.
    The candidate planes are the pairs of basis rows, then, when dim y > 2,
    four random mixed planes (a plane's own share its discriminant).

    The radical is y's isotropy_classify, kept with y: T, classified by the
    bound stage, is not classified again.  Everything else runs on y's
    stored rows x_k = D b_k and their Gram matrix G = D^2 (Q(b_k, b_l)),
    built only when the radical is zero.  Scaling a plane's
    rows by D scales its pairings by D^2, its discriminant by D^4, its root
    by D^2 (_zi_sqrt picks the same root of a positive multiple) and each
    line by D^3, so every line is the one the reduced rows b_k give.  An
    ExtensionLine is built as base / D^3, twist / D and delta / D^4.
    """
    radical = isotropy_classify(y, BilinearForm(y.ambient))[1]
    if radical.dim > 0:
        return _line(radical.zi_rows[0], y.ambient)
    rows = list(y.zi_rows)
    g = [list(zip(*row)) for row in _zi_gram(rows)]
    for k, row in enumerate(rows):
        if g[k][k] == (0, 0):
            return _line(row, y.ambient)

    # (x1, x2, G(x1, x1), G(x1, x2), G(x2, x2)) for each pair of basis rows
    planes = [(rows[k], rows[l], g[k][k], g[k][l], g[l][l])
              for k in range(len(rows)) for l in range(k + 1, len(rows))]
    if len(rows) > 2:
        # a few extra planes (x_0 + sum_k c_k x_k, x_last) improve the odds
        # of a rational hit; each mix is its coefficients as one row (re, im)
        mixes = [tuple(zip((1, 0), *((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in rows[1:])))
                 for _ in range(4)]
        last = rows[-1]
        g_last = _zi_pair(last, last)
        for mixed in (_zi_row_times(mix, rows) for mix in mixes):
            planes.append((mixed, last, _zi_pair(mixed, mixed), _zi_pair(mixed, last), g_last))
    fallback: ExtensionLine | None = None
    for x1, x2, g11, g12, g22 in planes:
        # x1 and x2 are independent, so x1 and every line built below are
        # nonzero; a rank-one plane (disc = 0) has the repeated root 0
        if g11 == (0, 0):
            return _line(x1, y.ambient)
        disc = tuple(a - b for a, b in zip(_times(g12, g12), _times(g11, g22)))
        root = _zi_sqrt(*disc)
        if root is not None:
            r = (root[0] - g12[0], root[1] - g12[1])
            return _line(_combine(r, x1, g11, x2), y.ambient)
        if fallback is None:
            base = _combine((-g12[0], -g12[1]), x1, g11, x2)
            fallback = ExtensionLine.from_zi(y.ambient, base, x1, disc, y.den)
            if not fallback.is_isotropic(BilinearForm(y.ambient)):
                raise InternalConsistencyError("extension line construction failed")
    return fallback


@dataclass(frozen=True)
class LineOracleResult:
    value: Fraction | None          # None when no isotropic line exists in T
    witness: LineWitness | None


def _zi_isotropic(row: ZiRow) -> bool:
    """Q(v, v) = 0 for the Gaussian-integer row v."""
    return _zi_pair(row, row) == (0, 0)


def _lowest_end_terms(t_ends: list[list[int]], n_beta: tuple, k: int) -> list[int]:
    """For each flag j, N beta^j summed at T's k lowest ends against it
    (t_ends[j], decreasing, k <= dim T): no k-dimensional W <= T scores more
    there, since dim(W ^ F_i) <= dim(T ^ F_i) puts W's m-th lowest end at or
    above T's and beta is non-increasing.  k = 1 is line_oracle's item 6; the
    best total over k <= nu is max_pardeg_isotropic_in's upper bound."""
    return [sum(row[e] for e in ends[-k:]) for ends, row in zip(t_ends, n_beta)]


def line_oracle(t_sub: Subspace, fs: FlagSystem, w: Weight, seed: int = 0) -> LineOracleResult:
    """Exact maximum of pardeg over isotropic lines of C^q contained in T.

    The value is the best score of a leaf that holds an isotropic line over
    C (module docstring).  The witness is the first rational line that
    _isotropic_line_in, with one rng seeded by seed, finds in the distinct
    best-score leaves in visit order, else the first one's extension line.
    A witness per leaf would give the same line: a line's own tuple is <=
    (componentwise) any tuple whose leaf holds it, so the lexicographic
    search visits that tuple first and never prunes it while the best is
    <= its pardeg.  So the first leaf whose witness reaches the maximum is
    the first best-score leaf.

    The search holds each node Y_b as Gaussian-integer rows spanning it,
    not as a canonical Subspace; only best-score leaves are canonicalised,
    one at a time, after the search.  This gives the search over canonical
    subspaces exactly:

    1. At flag j, IsotropicFlag.zi_echelon scans the flag coordinates of
       the rows from the top, and with n echelon rows ending at e or below,
       those last n rows, in standard coordinates, span Y_b ^ F_{e+1}^j
       (IsotropicFlag, items 2 and 3): they are the child's rows as they
       stand.
    2. The ends depend only on the span of the rows, so the children (one
       per end e, at position e + 1; the other positions give the same
       intersection as the end below them), their scores and their
       dimensions are those of the canonical search.  At the largest end
       the intersection is Y_b itself, and the rows are passed on unchanged.
       Pruning reads only scores, so the same nodes are cut.
    3. Whether a row is isotropic does not change when the row is scaled,
       so the isotropy of a line reads its integer row.
    4. The leaves, and so the best-score leaves, come in the same visit
       order.  Canonicalising them in that order, skipping repeats and
       stopping at the first rational line draws from the rng exactly as
       handing _isotropic_line_in the distinct canonical leaves does.  A
       leaf that keeps all of T holds T's own rows (item 2), already
       canonical: it is t_sub itself, with no elimination, and its radical
       is T's kept isotropy_classify.
    5. A node holding one row has one child, the row itself at the row's
       end, which IsotropicFlag.line_end reads with one pairing per flag
       coordinate from the top, and no combination.  So a line's remaining
       path is a loop over the flags that checks the bound before each step,
       as popping each node of the path would.
    6. The optimistic bound credits each flag j' not yet passed with
       N beta^{j'} at m_{j'}, T's lowest echelon end at that flag
       (_lowest_end_terms with k = 1).  Lemma: every nonzero vector of a
       node Y <= T is a combination of T's echelon rows and ends where its
       used row of largest end does, so at or above m_{j'}; each child of a
       node at flag j' sits at such an end, and beta is non-increasing, so
       no leaf below the node scores more than the bound.  A node is cut
       only when the bound is strictly below the best score so far, so
       every leaf it holds scores below the final value: the value, the
       best-score leaves in visit order and hence the witness are those of
       the bound with beta_1 at every flag, which only visits more nodes.
    7. A node holding one row that is not isotropic is dropped when popped:
       its one leaf is that line, which is never scored.  Nothing else reads
       it, so the leaves that are scored, and pruning, are unchanged.
    8. T's echelon against each flag is read once, through the flag's cache
       (IsotropicFlag.echelon): the bound needs its lowest ends, and the
       spine, the path of children that keep all of T, takes its children's
       rows from it.  The cache then still holds T for the harvest of
       max_pardeg_isotropic_in, which reads the same echelon.
    9. When T is a line the search has one leaf, T itself, so nothing is
       pruned and the bound of item 6 is not built: no echelon of T is
       taken, the walk reads T's ends with line_end (item 5), and a
       non-isotropic T is dropped (item 7).  With nu <= 1 no harvest
       reads T's echelon.
    """
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

    best = None  # N pardeg score
    leaves: list[list[ZiRow]] = []  # the rows of its leaves in visit order
    stack = [(0, t_rows, 0)] if t_rows else []
    while stack:
        j, rows, partial = stack.pop()
        if len(rows) == 1 and not _zi_isotropic(rows[0]):
            continue  # item 7
        # a line's one child is itself, at its end (item 5)
        while len(rows) == 1 and j < s and (best is None or partial + suffix_bound[j] >= best):
            partial += n_beta[j][fs.flags[j].line_end(rows[0])]
            j += 1
        if best is not None and partial + suffix_bound[j] < best:
            continue
        if j == s:
            if best is None or partial > best:
                best, leaves = partial, []
            leaves.append(rows)
            continue
        flag = fs.flags[j]
        # item 8
        pieces, ends = flag.echelon(t_sub) if rows is t_rows else flag.zi_echelon(rows)
        for n in range(len(ends), 0, -1):  # in reverse, so the lowest end pops first
            stack.append((j + 1, pieces[-n:] if n < len(ends) else rows,
                          partial + n_beta[j][ends[-n]]))

    value = None if best is None else Fraction(best, w.n)
    rng = random.Random(seed)
    extension = None
    seen: set[Subspace] = set()
    for rows in leaves:
        y = t_sub if rows is t_rows else Subspace.from_zi_rows(rows, q)
        if y in seen:
            continue
        seen.add(y)
        found = _isotropic_line_in(y, rng)
        if isinstance(found, Subspace):
            return LineOracleResult(value=value, witness=found)
        extension = extension or found
    return LineOracleResult(value=value, witness=extension)


# ---------------------------------------------------------------------------
# bounded maximization over all isotropic subspaces


@dataclass(frozen=True)
class PardegBounds:
    lower: Fraction | None          # best certified value (None: no candidates)
    witness: LineWitness | None
    upper: Fraction | None
    exact: bool


def isotropic_radicals(t_sub: Subspace, t_radical: Subspace, fs: FlagSystem,
                       min_dim: int) -> list[Subspace]:
    """The distinct radicals of dim >= min_dim >= 1 of T (t_radical, already
    classified) and of each T ^ F_i^j, in the order of their members by
    (dim, rows).  The bound stage reads those of dim >= 2, the
    Hilbert-Mumford search every nonzero one.

    1. T ^ F_i^j changes only at i = e + 1 for an end e of T's echelon
       (IsotropicFlag.ends), so each piece is looked at once, on the cached
       echelon of T, at every end but the top one, whose piece is T.
    2. A piece is built (intersect_piece) only when its radical dimension,
       read off the Gram matrix of T's echelon rows (IsotropicFlag, item 4),
       reaches min_dim.  Dropping the other members keeps the order of first
       occurrence of every kept radical, so the result is the full harvest
       filtered by dimension.
    3. A piece whose radical dimension is its dimension is its own radical;
       any other is classified (isotropy_classify) for its radical.
    """
    known = {t_sub: t_radical} if t_radical.dim >= min_dim else {}  # member -> radical or None
    for flag in fs.flags:
        for e in reversed(flag.ends(t_sub)[1:]):
            dim = flag.radical_dim(t_sub, e + 1)
            if dim >= min_dim:
                piece = flag.intersect_piece(t_sub, e + 1)
                known[piece] = piece if dim == piece.dim else None
    form = BilinearForm(fs.q)
    members = sorted(known, key=order_key)
    return list(dict.fromkeys(known[m] or isotropy_classify(m, form)[1] for m in members))


def max_pardeg_isotropic_in(t_sub: Subspace, fs: FlagSystem, w: Weight,
                            seed: int = 0) -> PardegBounds:
    """Bounds on sup{pardeg(W) : 0 != W <= T isotropic}, exact when possible.

    T is classified once: its radical gives nu = dim rad + floor(rank / 2)
    and seeds the harvest.  The lower bound is the best of explicit isotropic
    witnesses: the line oracle's line and, when nu >= 2, the isotropic_radicals
    of dimension >= 2 (the first wins a tie; a radical line cannot beat the
    oracle's exact maximum over lines).  Every witness is a true isotropic
    subspace of T, so the lower bound is sound whichever candidates are
    tried; more candidates could only raise it.  The upper bound is the best,
    over k <= nu, of N beta summed at T's k lowest ends against every flag
    (_lowest_end_terms): it decouples the flags and uses no witness.  When
    nu <= 1 the line oracle is already the exact supremum and no harvest is
    built.
    """
    require_weight_for(fs, w)
    form = BilinearForm(fs.q)
    if t_sub.dim == 0:
        return PardegBounds(None, None, None, True)
    _, t_radical, rank = isotropy_classify(t_sub, form)
    nu = t_radical.dim + rank // 2
    if nu == 0:
        return PardegBounds(None, None, None, True)

    oracle = line_oracle(t_sub, fs, w, seed)
    lower, witness = oracle.value, oracle.witness

    if nu == 1:
        return PardegBounds(lower, witness, lower, True)

    radicals = isotropic_radicals(t_sub, t_radical, fs, 2)
    # the line oracle left T's echelon in each flag's cache, and the harvest
    # read it there; read T's ends before pardeg_subspace below replaces it
    # with a radical's
    t_ends = [flag.ends(t_sub) for flag in fs.flags]
    for radical in radicals:
        value = pardeg_subspace(radical, fs, w)
        if lower is None or value > lower:
            lower, witness = value, radical

    upper = Fraction(max(sum(_lowest_end_terms(t_ends, w.n_beta, k))
                         for k in range(1, nu + 1)), w.n)
    if lower is not None and upper < lower:
        raise InternalConsistencyError("upper bound fell below a certified witness")
    exact = lower is not None and lower == upper
    return PardegBounds(lower, witness, upper, exact)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Certificate:
    kind: str                      # "isotropic_span" | "positive_coisotropic"
    span: Subspace | None = None             # isotropic_span
    witness: LineWitness | None = None       # positive_coisotropic: isotropic W
    coisotropic: Subspace | None = None      # positive_coisotropic: V' = W^perp (rational W only)
    pardeg: Fraction | None = None


@dataclass(frozen=True)
class Verdict:
    tag: str  # Stable | StrictlySemistable | Unstable | Undetermined
    certificate: Certificate | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None
    exact: bool = True


EXIT_CODES = {"Stable": 0, "StrictlySemistable": 1, "Unstable": 2, "Undetermined": 3}


def check_inputs(a: HiggsTuple, fs: FlagSystem, w: Weight) -> None:
    require_valid(w)
    if not region_membership(w).in_w:
        raise InputError("weight outside the admissible region; the stability "
                         "equivalence is only available there")
    if a.q != fs.q or a.s != fs.s or w.q != fs.q or w.s != fs.s:
        raise InputError("instance shapes disagree")
    for flag in fs.flags:
        problems = validate_flag(flag)
        if problems:
            raise InputError("invalid flag: " + "; ".join(problems))


def decide_stability(a: HiggsTuple, fs: FlagSystem, w: Weight, seed: int = 0) -> Verdict:
    """Decide stability with a certificate, or return certified bounds.

    Unstable comes with either the isotropic span of the rows or a
    positive-pardeg coisotropic witness; Stable and StrictlySemistable are
    certified by the exact supremum; Undetermined (possible only for q >= 4)
    carries the bounds that failed to separate.
    """
    check_inputs(a, fs, w)
    form = BilinearForm(a.q)

    holds, span = condition1_isotropic_span(a)
    if not holds:
        return Verdict("Unstable", Certificate("isotropic_span", span=span))

    bounds = max_pardeg_isotropic_in(a.span_perp(), fs, w, seed=seed)
    if bounds.lower is None:
        return Verdict("Stable", exact=True)

    # exact bounds have lower == upper
    if bounds.lower > 0 or (bounds.exact and bounds.lower == 0):
        witness = bounds.witness
        coiso = orthocomplement(witness, form) if isinstance(witness, Subspace) else None
        cert = Certificate("positive_coisotropic", witness=witness,
                           coisotropic=coiso, pardeg=bounds.lower)
        tag = "Unstable" if bounds.lower > 0 else "StrictlySemistable"
        return Verdict(tag, cert, bounds.lower, bounds.upper, bounds.exact)
    if bounds.upper < 0:
        return Verdict("Stable", None, bounds.lower, bounds.upper, bounds.exact)
    return Verdict("Undetermined", None, bounds.lower, bounds.upper, False)


def verify_certificate(verdict: Verdict, a: HiggsTuple, fs: FlagSystem, w: Weight) -> bool:
    """Independent recomputation of an Unstable certificate, its stated
    pardeg included.  A certificate without the subspace its kind needs is
    rejected, and so is an ExtensionLine witness: by the lemma in its
    docstring its pardeg is <= 0 under every valid weight, so it never
    destabilizes."""
    cert = verdict.certificate
    if verdict.tag != "Unstable" or cert is None:
        return False
    form = BilinearForm(a.q)
    if cert.kind == "isotropic_span" and cert.span is not None:
        span = cert.span
        iso, _, _ = isotropy_classify(span, form)
        return iso and span.contains_subspace(a.span())
    if cert.kind == "positive_coisotropic" and isinstance(cert.witness, Subspace):
        witness = cert.witness
        iso, _, _ = isotropy_classify(witness, form)
        if not (iso and a.span_perp().contains_subspace(witness)):
            return False
        value = pardeg_subspace(witness, fs, w)
        if value != cert.pardeg:
            return False
        if cert.coisotropic is not None:
            # V' must be the orthocomplement, contain the rows, and share pardeg
            if cert.coisotropic != orthocomplement(witness, form):
                return False
            if not cert.coisotropic.contains_subspace(a.span()):
                return False
            if pardeg_subspace(cert.coisotropic, fs, w) != value:
                return False
        return value > 0
    return False


# ---------------------------------------------------------------------------
# stable instance generation


def generate_stable_instance(q: int, s: int, fs: FlagSystem, w: Weight, seed: int = 0) -> HiggsTuple:
    """Rows whose transposes span C^q; such an instance is stable for every
    flag system (the span is the whole space, so no isotropic subspace
    contains it and its orthocomplement is zero).  Requires s >= q + 2."""
    if s < q + 2:
        raise InputError("need s >= q + 2 to fit a spanning set of rows")
    rng = random.Random(seed)
    # each entry a Gaussian rational (x, y, d) = (x + i y) / d
    rows: list[list[tuple[int, int, int]]] = []
    perm = list(range(q))
    rng.shuffle(perm)
    # triangular relative to the permuted pivot order, so the rank is q
    for i in range(q):
        row = [(0, 0, 1)] * q
        row[perm[i]] = (rng.randint(1, 5), 0, 1)
        for jj in range(i):
            if rng.random() < 0.5:
                row[perm[jj]] = (rng.randint(-3, 3), 0, rng.randint(1, 3))
        rows.append(row)
    for _ in range(s - 2 - q):
        row = []
        for _ in range(q):
            re_num, re_den = rng.randint(-4, 4), rng.randint(1, 3)
            im_num, im_den = rng.randint(-4, 4), rng.randint(1, 3)
            row.append((re_num * im_den, im_num * re_den, re_den * im_den))
        rows.append(row)
    a = HiggsTuple(q, s, *common_den(rows))
    verdict = decide_stability(a, fs, w)
    if verdict.tag != "Stable":
        raise InternalConsistencyError("spanning instance did not come out stable")
    return a
