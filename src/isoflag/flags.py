"""Complete isotropic flags and parabolic degrees of subspaces.

A complete isotropic flag of Q(i)^q is stored as an adapted hyperbolic basis
(w_1, ..., w_q) with Gram matrix J_q, held as Gaussian-integer rows over one
denominator, the matrix form of linalg; the flag pieces are
F_i = span(w_1..w_i).
The Gram condition makes F_i isotropic for i <= q/2 and forces the
self-duality F_i^perp = F_{q-i}.  It also makes a vector's flag
coordinates its pairings with the basis rows, so a subspace is put in
echelon form against a flag by pairings alone, its rows kept in standard
coordinates, and no inverse of the basis is built (IsotropicFlag).

The parabolic degree of a subspace V' relative to a system of s flags and a
weight is the weighted jump count

    pardeg(V') = sum_j sum_i beta_i^j (dim(V' ^ F_i^j) - dim(V' ^ F_{i-1}^j)),

i.e. each new direction of V' entering the flag at position i at puncture j
contributes beta_i^j.  With this convention pardeg vanishes on 0 and on the
full space, |pardeg| <= |beta|, and pardeg(V') = pardeg(V'^perp) for every
subspace (the orthocomplement pairs jump positions i and q+1-i, whose weights
cancel).
Each flag's jumps sit one past the echelon ends of V' against it
(IsotropicFlag.ends), so the flag contributes beta^j summed at the ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError, InternalConsistencyError
from .linalg import (
    Subspace,
    ZiRow,
    _fp_full_rank,
    _fp_gram,
    _zi_eliminate,
    _zi_entry,
    _zi_gram,
    _zi_hyperbolic,
    _zi_pair,
    random_special_isometry,
)
from .weights import Weight, require_valid

# (rows in standard coordinates, the flag position each row ends at)
Echelon = tuple[list[ZiRow], list[int]]


class IsotropicFlag:
    """A complete isotropic flag, held as its adapted hyperbolic basis over
    the Gaussian integers.

    Everything a subspace's position against the flag decides is read off
    one echelon form of the subspace: its ends, and with them its degree and
    its intersections with the pieces.  That echelon is computed over the
    Gaussian integers Z[i], and no Fraction is built for it:

    1. The basis is B = B' / d, with B' the Gaussian-integer rows zi_rows
       (w'_0, ..., w'_{q-1}) and d = den one shared integer denominator,
       the lcm of the entries' reduced denominators.  This is the only form
       a flag is held in: a flag read from an instance file is parsed
       straight into it, and a generated one is drawn in it
       (linalg.random_special_isometry).  A hyperbolic basis has Gram
       matrix J, Q(w_i, w_m) = 1 exactly when i + m = q - 1 (0-indexed), so
       x = sum_k c_k w_k has c_k = Q(x, w_{q-1-k}): flag coordinate k of x
       is one pairing with one basis row, and d c_k = Q(x, w'_{q-1-k}) is
       a Gaussian integer when x is a Gaussian-integer row
       (linalg._zi_pair).  The basis is
       hyperbolic exactly when B' J B'^T = d^2 J (linalg._zi_hyperbolic);
       otherwise the pairings are not the coordinates.
    2. zi_echelon is the one fraction-free elimination
       (linalg._zi_eliminate) of the rows, reading the flag coordinates
       from the top, k = q-1 down: coordinate k of a row is its pairing
       with w'_{q-1-k}, which is linear in the row.  Each pivot ends at its
       own k, and every row left after the scan of k is zero at k and
       above.  Lemma: a nonzero combination of rows with distinct ends
       ends exactly where its used row of largest end does, since every
       other used row is zero there.  So it lies in F_i exactly when it
       uses only rows ending below i: those rows are a basis of sub ^ F_i,
       so dim(sub ^ F_i), the number of ends below i, grows by one exactly
       at i = e + 1 for each end e, and the ends depend only on the span of
       the rows.  The scan stops at the lowest end, when no row is left: no
       coordinate below it is read.
    3. The rows stay in standard coordinates: scaling a row by a nonzero
       element of Q(i) and adding a multiple of another keep the span of
       the rows left, which is sub ^ F_k after each pivot.  So the last
       n = dim(sub ^ F_i) echelon rows span sub ^ F_i themselves.  Each
       is handed out divided by the gcd of its integer parts (the scan
       keeps the undivided pivot, which the exact division needs), which
       keeps the entries from growing with every flag they pass.  One
       Subspace.from_zi_rows of the rows (intersect_piece) is the piece's
       canonical form, and the next flag can take them without a canonical
       form in between (higgs.line_oracle does).
    4. Lemma (radical_dim): the echelon rows are vectors of sub, so their
       Gram matrix G = R J R^T is the form on them, and with the rows
       ending below i a basis of sub ^ F_i,
       dim rad(sub ^ F_i) = (rows ending below i) - (rank of their
       principal submatrix of G).  The submatrix is asked over F_p first
       (linalg module docstring): its image under the ring map
       phi: Z[i] -> F_p is the same block of phi(G), the Gram matrix of
       the rows mapped into F_p, and full rank there proves full rank over
       Q(i), radical 0.  Only a block singular mod p takes the exact rank,
       the pivot count of linalg._zi_eliminate over the submatrix's
       columns, and only then is the exact G built.  A piece first reached
       at i with 2i <= q lies in the isotropic F_i, so its radical
       dimension is its dimension, with no Gram matrix.

    Whether the basis is hyperbolic is computed when the flag is made.
    zi_echelon and line_end, and with them ends, intersect_piece and
    radical_dim, raise InputError when the basis is not hyperbolic.
    """

    __slots__ = ("q", "zi_rows", "den", "hyperbolic", "_last")

    def __init__(self, zi_rows: list[ZiRow], den: int):
        """The flag with the basis zi_rows / den, den the lcm of the entries'
        reduced denominators."""
        self.q = q = len(zi_rows)
        if any(len(re) != q or len(im) != q for re, im in zi_rows):
            raise InputError("flag basis must be square")
        if den < 1:
            raise InputError("flag basis denominator must be positive")
        self.zi_rows, self.den = zi_rows, den
        self.hyperbolic = _zi_hyperbolic(zi_rows, den)
        # (sub, its echelon, [its echelon rows' Gram matrix mod p, their
        # exact one]) for the last subspace asked about, each Gram matrix
        # filled when first used: callers take the ends of a subspace and
        # then several of its pieces, all from one echelon form.
        self._last: tuple[Subspace, Echelon, list] | None = None

    @classmethod
    def standard(cls, q: int) -> "IsotropicFlag":
        """The flag of the standard basis, which has Gram matrix J."""
        return cls([([int(i == j) for j in range(q)], [0] * q) for i in range(q)], 1)

    def piece(self, i: int) -> Subspace:
        """F_i = span(w_1, ..., w_i); F_0 = 0.  Not cached: only instance
        generation and the tests ask for a piece."""
        return Subspace.from_zi_rows(self.zi_rows[:i], self.q)

    def _require_hyperbolic(self) -> None:
        if not self.hyperbolic:
            raise InputError("invalid flag: adapted basis Gram matrix is not the split form")

    def zi_echelon(self, rows: list[ZiRow]) -> Echelon:
        """Gaussian-integer rows in standard coordinates, put in echelon form
        against the flag by one scan of the flag coordinates from the top
        (class docstring, item 2).  Returns (rows, ends): nonzero primitive
        rows in standard coordinates, and the index of each row's last
        nonzero flag coordinate, so that the row lies in F_{end+1} and not
        in F_end.  The ends are decreasing and depend only on the span of
        the given rows, and the rows ending below i span sub ^ F_i (item
        3).  Zero and dependent rows are dropped."""
        self._require_hyperbolic()
        w, q = self.zi_rows, self.q
        # flag coordinate k of a row, times den (class docstring, item 1)
        pivots, ends = _zi_eliminate(rows, lambda row, k: _zi_pair(row, w[q - 1 - k]),
                                     range(q - 1, -1, -1))
        echelon_rows: list[ZiRow] = []
        for pivot in pivots:
            p_re, p_im = pivot
            g = gcd(*p_re, *p_im)
            echelon_rows.append(pivot if g == 1 else ([x // g for x in p_re], [x // g for x in p_im]))
        return echelon_rows, ends

    def line_end(self, row: ZiRow) -> int:
        """The end of one nonzero Gaussian-integer row in standard
        coordinates: zi_echelon's scan for one row, which needs no
        combination.  The flag coordinates are read from the top down, one
        pairing each, and the first nonzero one is the end: a generic line
        needs one.  Raises InputError when the basis is not hyperbolic, as
        zi_echelon does."""
        self._require_hyperbolic()
        for i, w in enumerate(self.zi_rows):  # coordinate k = q-1-i
            a, b = _zi_pair(row, w)
            if a or b:
                return self.q - 1 - i
        raise InternalConsistencyError("a zero row has no end")

    def _cached(self, sub: Subspace) -> tuple[Subspace, Echelon, list]:
        """_last for sub: zi_echelon of sub's stored rows."""
        if self._last is None or self._last[0] != sub:
            self._last = (sub, self.zi_echelon(sub.zi_rows), [None, None])
        return self._last

    def echelon(self, sub: Subspace) -> Echelon:
        """zi_echelon of sub's stored rows, kept for the last subspace asked
        about: ends, intersect_piece, radical_dim and the line oracle's
        reads of T share one echelon per flag.  The lists are shared:
        callers slice them and never change them."""
        return self._cached(sub)[1]

    def ends(self, sub: Subspace) -> list[int]:
        """The ends of sub's echelon against the flag, decreasing (class
        docstring, item 2): dim(sub ^ F_i) is the number of ends below i.
        A line's one end is read by line_end, with no echelon, and the line
        does not replace the subspace kept in _last.  The list is shared,
        as echelon's is."""
        if sub.ambient != self.q:
            raise InputError("subspace ambient dimension does not match flag")
        if sub.dim == 1:
            return [self.line_end(sub.zi_rows[0])]
        return self.echelon(sub)[1]

    def profile(self, sub: Subspace) -> tuple[int, ...]:
        """(dim(sub ^ F_i))_{i=0..q}, the number of ends below each i."""
        ends = self.ends(sub)
        return tuple(sum(1 for e in ends if e < i) for i in range(self.q + 1))

    def intersect_piece(self, sub: Subspace, i: int) -> Subspace:
        """sub ^ F_i: the echelon rows of sub ending below i, canonicalised
        (class docstring, item 3), or sub itself."""
        rows, ends = self.echelon(sub)
        n = sum(1 for e in ends if e < i)
        if n == sub.dim:
            return sub
        return Subspace.from_zi_rows(rows[sub.dim - n:], self.q)

    def radical_dim(self, sub: Subspace, i: int) -> int:
        """dim rad(sub ^ F_i) from the Gram matrix of sub's echelon rows, mod
        p and, for a block singular there, exact, with no subspace built
        (class docstring, item 4)."""
        _, (rows, ends), grams = self._cached(sub)
        n = sum(1 for e in ends if e < i)
        if n == 0 or 2 * (ends[-n] + 1) <= self.q:
            return n
        if grams[0] is None:
            grams[0] = _fp_gram(rows)
        if _fp_full_rank([row[-n:] for row in grams[0][-n:]]):
            return 0
        if grams[1] is None:
            grams[1] = _zi_gram(rows)
        block = [(re[-n:], im[-n:]) for re, im in grams[1][-n:]]
        return n - len(_zi_eliminate(block, _zi_entry, range(n))[1])


def validate_flag(flag: IsotropicFlag) -> list[str]:
    """A flag is valid iff the Gram matrix of its adapted basis is exactly J_q
    (this already forces F_i^perp = F_{q-i}).  The check is the integer
    product B' J B'^T == d^2 J that also makes the pairings with the basis
    rows the flag coordinates (see IsotropicFlag), made once, when the flag
    is made, however often it is validated or used."""
    if flag.hyperbolic:
        return []
    return ["adapted basis Gram matrix is not the split form"]


def random_flag(q: int, seed: int) -> IsotropicFlag:
    """A valid flag, deterministic per seed; seed 0 is the standard flag.
    Its basis is the rows of linalg.random_special_isometry(q, seed), drawn
    on Gaussian integers over their least denominator; the flag's own check
    of the Gram matrix, made when it is built, validates the generator."""
    if q < 2:
        raise InputError("flags need q >= 2")
    flag = IsotropicFlag(*random_special_isometry(q, seed))
    if not flag.hyperbolic:
        raise InternalConsistencyError("generated basis is not hyperbolic")
    return flag


@dataclass(frozen=True)
class FlagSystem:
    flags: tuple[IsotropicFlag, ...]

    def __post_init__(self):
        if not self.flags:
            raise InputError("flag system needs at least one flag")
        q = self.flags[0].q
        if any(f.q != q for f in self.flags):
            raise InputError("flags have mismatched dimensions")

    @property
    def q(self) -> int:
        return self.flags[0].q

    @property
    def s(self) -> int:
        return len(self.flags)

    @classmethod
    def standard(cls, q: int, s: int) -> "FlagSystem":
        return cls(tuple(IsotropicFlag.standard(q) for _ in range(s)))


def require_weight_for(fs: FlagSystem, w: Weight) -> None:
    """Raise InputError unless w is a valid weight of fs's shape (q, s)."""
    require_valid(w)
    if w.q != fs.q or w.s != fs.s:
        raise InputError("weight and flag system shapes disagree")


def n_pardeg(sub: Subspace, fs: FlagSystem, w: Weight) -> int:
    """N pardeg of a subspace of Q(i)^q relative to s flags and a weight:
    N beta^j summed at its ends against each flag j (module docstring).  The
    one degree computation: searches, bounds and Hilbert-Mumford weights all
    count in this unit."""
    require_weight_for(fs, w)
    if sub.ambient != fs.q:
        raise InputError("subspace ambient dimension does not match flags")
    return sum(row[e] for flag, row in zip(fs.flags, w.n_beta) for e in flag.ends(sub))


def pardeg_subspace(sub: Subspace, fs: FlagSystem, w: Weight) -> Fraction:
    """Parabolic degree of a subspace: n_pardeg over N."""
    return Fraction(n_pardeg(sub, fs, w), w.n)
