"""Complete isotropic flags and parabolic degrees of subspaces.

A complete isotropic flag of Q(i)^q is stored as an adapted hyperbolic basis
(w_1, ..., w_q) with Gram matrix J_q, held as Gaussian integers over one
denominator; the flag pieces are F_i = span(w_1..w_i).
The Gram condition makes F_i isotropic for i <= q/2 and forces the
self-duality F_i^perp = F_{q-i}.

The parabolic degree of a subspace V' relative to a system of s flags and a
weight is the weighted jump count

    pardeg(V') = sum_j sum_i beta_i^j (dim(V' ^ F_i^j) - dim(V' ^ F_{i-1}^j)),

i.e. each new direction of V' entering the flag at position i at puncture j
contributes beta_i^j.  With this convention pardeg vanishes on 0 and on the
full space, |pardeg| <= |beta|, and pardeg(V') = pardeg(V'^perp) for every
subspace (the orthocomplement pairs jump positions i and q+1-i, whose weights
cancel).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import InputError, InternalConsistencyError
from .linalg import (
    Subspace,
    ZiRow,
    _zi_eliminate,
    _zi_gram,
    _zi_hyperbolic,
    _zi_reversed_transpose,
    _zi_row_times,
    random_special_isometry,
)
from .weights import Weight, require_valid

# (rows in reversed flag coordinates, the flag position each row ends at)
Echelon = tuple[list[ZiRow], list[int]]


class IsotropicFlag:
    """A complete isotropic flag, held as its adapted hyperbolic basis over
    the Gaussian integers.

    Everything a subspace's position against the flag decides is read off
    one echelon form in flag coordinates: its profile (dim(sub ^ F_i))_i and
    its intersections with the pieces.  That echelon is computed over the
    Gaussian integers Z[i], and no Fraction is built for it:

    1. The basis is B = B' / d, with B' = basis_re + i basis_im a
       Gaussian-integer matrix and d = den one shared integer denominator,
       the lcm of the entries' reduced denominators.  This is the only form
       a flag is held in: a flag read from an instance file is parsed
       straight into it, and a generated one is drawn in it
       (linalg.random_special_isometry).  A hyperbolic basis has
       B J B^T = J, so B^-1 = J B^T J = (J B'^T J) / d: B'^T with its rows
       and columns reversed, a re-indexing of B's own integers over the
       same d.  The basis is hyperbolic exactly when B' (J B'^T J) = d^2 I.
    2. Scaling a row by a nonzero element of Z[i] keeps the row span and the
       position of its last nonzero coordinate.  So sub's stored rows D R
       (linalg.Subspace), multiplied by J B'^T J, have the row span of sub's
       flag coordinates.  A forward echelon form of those integer rows, with
       no back-substitution, already has distinct ends (each row's last
       nonzero flag coordinate).  Lemma: a nonzero combination of such rows
       ends exactly where its used row of largest end does, since every
       other used row is zero there.  So it lies in F_i exactly when it uses
       only rows ending below i: those rows are a basis of sub ^ F_i, their
       count is profile[i], and the ends are those of the reduced form.
    3. The rows ending below i, mapped back through B' (zi_lift), span
       sub ^ F_i.  The lifted rows are Gaussian-integer rows again: one
       Subspace.from_zi_rows of them (intersect_piece) is the piece's
       canonical form, and the next flag can take them without a canonical
       form in between (higgs.line_oracle does).
    4. Lemma (radical_dim): the rows are x (J B'^T J), coordinates
       reversed, and B J B^T = J gives (J B'^T J) J (J B'^T J)^T = d^2 J,
       while reversing coordinates keeps J.  So the echelon rows' Gram
       matrix is d^2 times that of the vectors they stand for, and
       dim rad(sub ^ F_i) = (rows ending below i) - (rank of their principal
       submatrix).  A piece first reached at i with 2i <= q lies in the
       isotropic F_i, so its radical dimension is its dimension.

    Whether the basis is hyperbolic is computed when the flag is made, J B'^T J
    on the first echelon.  zi_echelon, and with it profile, intersect_piece
    and radical_dim, raises InputError when the basis is not hyperbolic.
    """

    __slots__ = ("q", "basis_re", "basis_im", "den", "hyperbolic", "_inverse", "_last")

    def __init__(self, basis_re: list[list[int]], basis_im: list[list[int]], den: int):
        """The flag with the basis (basis_re + i basis_im) / den, den the lcm
        of the entries' reduced denominators."""
        self.q = q = len(basis_re)
        if len(basis_im) != q or any(len(row) != q for row in (*basis_re, *basis_im)):
            raise InputError("flag basis must be square")
        if den < 1:
            raise InputError("flag basis denominator must be positive")
        self.basis_re, self.basis_im, self.den = basis_re, basis_im, den
        self.hyperbolic = _zi_hyperbolic(basis_re, basis_im, den)
        # J B'^T J as (re, im), built on the first echelon: many flags are
        # only validated or written out and never take one
        self._inverse: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] | None = None
        # (sub, its echelon, its zi_lift, its echelon rows' Gram matrix) for
        # the last subspace asked about, the last two filled when first used:
        # callers take the profile of a subspace and then several of its
        # pieces, all from one echelon form.
        self._last: tuple[Subspace, Echelon, list[ZiRow], list[ZiRow]] | None = None

    @classmethod
    def standard(cls, q: int) -> "IsotropicFlag":
        """The flag of the standard basis, which has Gram matrix J."""
        return cls([[int(i == j) for j in range(q)] for i in range(q)],
                   [[0] * q for _ in range(q)], 1)

    def piece(self, i: int) -> Subspace:
        """F_i = span(w_1, ..., w_i); F_0 = 0.  Not cached: only instance
        generation and the tests ask for a piece."""
        return Subspace.from_zi_rows(list(zip(self.basis_re[:i], self.basis_im[:i])), self.q)

    def _require_hyperbolic(self) -> None:
        if not self.hyperbolic:
            raise InputError("invalid flag: adapted basis Gram matrix is not the split form")

    def zi_echelon(self, rows: list[ZiRow]) -> Echelon:
        """Gaussian-integer rows in standard coordinates, taken to flag
        coordinates by J B'^T J, with the coordinates reversed and put in
        forward echelon form, so that each row ends at its own flag position.
        Returns (rows, ends), where a row's end is the index of its last
        nonzero flag coordinate: the row lies in F_{end+1} and not in F_end.
        The ends are decreasing and depend only on the span of the given rows
        (class docstring, item 2)."""
        self._require_hyperbolic()
        if self._inverse is None:
            self._inverse = (_zi_reversed_transpose(self.basis_re),
                             _zi_reversed_transpose(self.basis_im))
        inv_re, inv_im = self._inverse
        coords = []
        for x_re, x_im in rows:
            c_re, c_im = _zi_row_times(x_re, x_im, inv_re, inv_im)
            coords.append((c_re[::-1], c_im[::-1]))
        echelon_rows, pivots = _zi_eliminate(coords)
        return echelon_rows, [self.q - 1 - c for c in pivots]

    def line_end(self, row: ZiRow) -> int:
        """The end of one nonzero Gaussian-integer row in standard
        coordinates: the one end zi_echelon([row]) returns, with no product
        by the whole of J B'^T J and no elimination.  Flag coordinate k of
        the row is its product with column k of J B'^T J, which is the
        basis row w'_{q-1-k} reversed: the pairing Q(row, w'_{q-1-k}).  So
        the columns are read from the top down, one pairing (q products)
        each, and the first nonzero one is the end: a generic line needs
        one.  Raises InputError when the basis is not hyperbolic, as
        zi_echelon does."""
        self._require_hyperbolic()
        x_re, x_im = row[0][::-1], row[1][::-1]
        for m, (w_re, w_im) in enumerate(zip(self.basis_re, self.basis_im)):
            if (sum(map(mul, x_re, w_re)) != sum(map(mul, x_im, w_im))
                    or sum(map(mul, x_re, w_im)) + sum(map(mul, x_im, w_re))):
                return self.q - 1 - m
        raise InternalConsistencyError("a zero row has no end")

    def zi_lift(self, echelon: Echelon) -> list[ZiRow]:
        """The echelon rows after the first, mapped back to standard
        coordinates through B' and each divided by the gcd of its integer
        parts: primitive Gaussian-integer rows whose last n span sub ^ F_i
        for n = dim(sub ^ F_i) < dim sub (class docstring, item 3).  The
        gcd keeps the entries from growing with every flag they pass."""
        lifted = []
        for c_re, c_im in echelon[0][1:]:
            x_re, x_im = _zi_row_times(c_re[::-1], c_im[::-1], self.basis_re, self.basis_im)
            g = gcd(*x_re, *x_im)
            lifted.append(([x // g for x in x_re], [x // g for x in x_im]))
        return lifted

    def _coordinates(self, sub: Subspace) -> tuple[Subspace, Echelon, list[ZiRow], list[ZiRow]]:
        """_last for sub: zi_echelon of sub's stored rows."""
        if self._last is None or self._last[0] != sub:
            echelon = self.zi_echelon(sub.zi_rows)
            self._last = (sub, echelon, [], [])
        return self._last

    def echelon(self, sub: Subspace) -> Echelon:
        """zi_echelon of sub's stored rows, kept for the last subspace asked
        about: profile, intersect_piece, radical_dim and the line oracle's
        reads of T share one elimination per flag."""
        return self._coordinates(sub)[1]

    def lifted(self, sub: Subspace) -> list[ZiRow]:
        """zi_lift of echelon(sub), computed on first use and kept with it.
        The list is shared: callers slice it and never change it."""
        _, echelon, lifted, _ = self._coordinates(sub)
        if not lifted:
            lifted += self.zi_lift(echelon)
        return lifted

    def profile(self, sub: Subspace) -> tuple[int, ...]:
        """(dim(sub ^ F_i))_{i=0..q}.

        F_i is cut out by the vanishing of the flag coordinates i..q-1.  The
        echelon rows have distinct ends, so a combination of them lies in
        F_i exactly when it uses only rows ending below i (class docstring,
        item 2).  Those rows are a basis of sub ^ F_i, and dim(sub ^ F_i) is
        their count.  A line's one end is read by line_end, with no echelon,
        and the line does not replace the subspace kept in _last.
        """
        if sub.ambient != self.q:
            raise InputError("subspace ambient dimension does not match flag")
        if sub.dim == 1:
            end = self.line_end(sub.zi_rows[0])
            return (0,) * (end + 1) + (1,) * (self.q - end)
        _, ends = self.echelon(sub)
        return tuple(sum(1 for e in ends if e < i) for i in range(self.q + 1))

    def intersect_piece(self, sub: Subspace, i: int) -> Subspace:
        """sub ^ F_i: the last rows of the zi_lift of sub's echelon,
        canonicalised, or sub itself."""
        n = sum(1 for e in self.echelon(sub)[1] if e < i)
        if n == sub.dim:
            return sub
        return Subspace.from_zi_rows(self.lifted(sub)[sub.dim - 1 - n:], self.q)

    def radical_dim(self, sub: Subspace, i: int) -> int:
        """dim rad(sub ^ F_i) from the Gram matrix of sub's echelon rows, with
        no subspace built (class docstring, item 4)."""
        _, (rows, ends), _, gram = self._coordinates(sub)
        n = sum(1 for e in ends if e < i)
        if n == 0 or 2 * (ends[-n] + 1) <= self.q:
            return n
        if not gram:
            gram += _zi_gram(rows)
        block = [(re[-n:], im[-n:]) for re, im in gram[-n:]]
        return n - len(_zi_eliminate(block)[1])


def validate_flag(flag: IsotropicFlag) -> list[str]:
    """A flag is valid iff the Gram matrix of its adapted basis is exactly J_q
    (this already forces F_i^perp = F_{q-i}).  The check is the integer
    product B' (J B'^T J) == d^2 I that also gives the flag its coordinates
    (see IsotropicFlag), made once, when the flag is made, however often it
    is validated or used."""
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


def pardeg_from_profile(profile: tuple[int, ...], beta_row: tuple) -> int:
    """sum_i beta_i (profile[i] - profile[i-1]) for one puncture."""
    total = 0
    for i in range(1, len(profile)):
        jump = profile[i] - profile[i - 1]
        if jump:
            total += beta_row[i - 1] * jump
    return total


def n_pardeg(sub: Subspace, fs: FlagSystem, w: Weight) -> int:
    """N pardeg of a subspace of Q(i)^q relative to s flags and a weight,
    from the flag profiles against N beta.  The one degree computation:
    searches, bounds and Hilbert-Mumford weights all count in this unit."""
    require_weight_for(fs, w)
    if sub.ambient != fs.q:
        raise InputError("subspace ambient dimension does not match flags")
    return sum(pardeg_from_profile(flag.profile(sub), row)
               for flag, row in zip(fs.flags, w.n_beta))


def pardeg_subspace(sub: Subspace, fs: FlagSystem, w: Weight) -> Fraction:
    """Parabolic degree of a subspace: n_pardeg over N."""
    return Fraction(n_pardeg(sub, fs, w), w.n)


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
