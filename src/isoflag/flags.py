"""Complete isotropic flags and parabolic degrees of subspaces.

A complete isotropic flag of Q(i)^q is stored as an adapted hyperbolic basis
(w_1, ..., w_q) with Gram matrix J_q; the flag pieces are F_i = span(w_1..w_i).
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

from .errors import InputError
from .linalg import (
    BilinearForm,
    Subspace,
    Vector,
    hyperbolic_basis,
    mat_mul,
    rref,
    standard_basis,
)
from .weights import Weight, require_valid


class IsotropicFlag:
    """A complete isotropic flag, held as its adapted hyperbolic basis.

    Everything a subspace's position against the flag decides is read off
    one echelon form in flag coordinates: its profile (dim(sub ^ F_i))_i and
    its intersections with the pieces.  Both raise InputError when the basis
    is not hyperbolic.
    """

    __slots__ = ("q", "basis", "_pieces", "_inverse", "_last_echelon")

    def __init__(self, basis: tuple[Vector, ...]):
        self.q = len(basis)
        for row in basis:
            if len(row) != self.q:
                raise InputError("flag basis must be square")
        self.basis = tuple(basis)
        self._pieces: list[Subspace] | None = None
        # (B^-1,) or (None,) once _hyperbolic_inverse has run
        self._inverse: tuple[list[Vector] | None] | None = None
        # (sub, _echelon(sub)) for the last subspace asked about: callers
        # take the profile of a subspace and then several of its
        # intersections with the pieces, all from one echelon form.
        self._last_echelon: tuple[Subspace, tuple[list[Vector], list[int]]] | None = None

    @classmethod
    def standard(cls, q: int) -> "IsotropicFlag":
        return cls(hyperbolic_basis(BilinearForm(q), 0))

    def piece(self, i: int) -> Subspace:
        """F_i = span(w_1, ..., w_i); F_0 = 0."""
        if self._pieces is None:
            self._pieces = [Subspace.zero(self.q)]
            for i_ in range(1, self.q + 1):
                self._pieces.append(Subspace.from_vectors(list(self.basis[:i_]), self.q))
        return self._pieces[i]

    def _hyperbolic_inverse(self) -> list[Vector] | None:
        """B^-1 for the basis B, or None when Gram(B) != J.  Computed once.

        A hyperbolic basis has B J B^T = J, so B^-1 = J B^T J: B^T with its
        rows and columns reversed.  B J B^T J = Gram(B) J, so the one product
        B (J B^T J) is the identity exactly when Gram(B) = J.
        """
        if self._inverse is None:
            q = self.q
            inv = [tuple(self.basis[q - 1 - j][q - 1 - i] for j in range(q))
                   for i in range(q)]
            hyperbolic = mat_mul(list(self.basis), inv) == standard_basis(q)
            self._inverse = (inv if hyperbolic else None,)
        return self._inverse[0]

    def _inv(self) -> list[Vector]:
        inv = self._hyperbolic_inverse()
        if inv is None:
            raise InputError("invalid flag: adapted basis Gram matrix is not the split form")
        return inv

    def _echelon(self, sub: Subspace) -> tuple[list[Vector], list[int]]:
        """sub's basis in flag coordinates, reduced so that each row ends at
        its own flag position.  This is the rref of the coordinates with the
        columns reversed, reversed back.  Returns (rows, ends), where a row's
        end is the index of its last nonzero coordinate: the row lies in
        F_{end+1} and not in F_end."""
        if self._last_echelon is not None and self._last_echelon[0] == sub:
            return self._last_echelon[1]
        coords = mat_mul(list(sub.rows), self._inv())
        red, pivots = rref([tuple(reversed(row)) for row in coords])
        echelon = [tuple(reversed(row)) for row in red], [self.q - 1 - c for c in pivots]
        self._last_echelon = (sub, echelon)
        return echelon

    def profile(self, sub: Subspace) -> tuple[int, ...]:
        """(dim(sub ^ F_i))_{i=0..q}.

        F_i is cut out by the vanishing of the flag coordinates i..q-1.  In
        the echelon form each end position is the pivot of exactly one row,
        and every other row is zero there, so a combination of the rows lies
        in F_i exactly when it uses only rows ending below i.  Those rows are
        a basis of sub ^ F_i, and dim(sub ^ F_i) is their count.
        """
        if sub.ambient != self.q:
            raise InputError("subspace ambient dimension does not match flag")
        _, ends = self._echelon(sub)
        return tuple(sum(1 for e in ends if e < i) for i in range(self.q + 1))

    def intersect_piece(self, sub: Subspace, i: int) -> Subspace:
        """sub ^ F_i: the echelon rows ending below i (see profile), mapped
        back from flag coordinates."""
        if i <= 0:
            return Subspace.zero(self.q)
        if i >= self.q or sub.dim == 0:
            return sub
        rows, ends = self._echelon(sub)
        inside = [row for row, e in zip(rows, ends) if e < i]
        return Subspace.from_vectors(mat_mul(inside, list(self.basis)), self.q)

    def transform(self, m: list[Vector]) -> "IsotropicFlag":
        """The flag with basis w_i @ m (m must be a J-isometry)."""
        return IsotropicFlag(tuple(mat_mul(list(self.basis), m)))


def validate_flag(flag: IsotropicFlag) -> list[str]:
    """A flag is valid iff the Gram matrix of its adapted basis is exactly J_q
    (this already forces F_i^perp = F_{q-i}).  The check is the product
    B (J B^T J) == I that also gives the flag its inverse basis, so a flag
    is checked once however often it is validated or used."""
    if flag._hyperbolic_inverse() is not None:
        return []
    return ["adapted basis Gram matrix is not the split form"]


def random_flag(q: int, seed: int) -> IsotropicFlag:
    """A valid flag, deterministic per seed; seed 0 is the standard flag."""
    if q < 2:
        raise InputError("flags need q >= 2")
    return IsotropicFlag(hyperbolic_basis(BilinearForm(q), seed))


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

    def transform(self, m: list[Vector]) -> "FlagSystem":
        return FlagSystem(tuple(f.transform(m) for f in self.flags))


def pardeg_from_profile(profile: tuple[int, ...], beta_row: tuple[Fraction, ...]) -> Fraction:
    """sum_i beta_i (profile[i] - profile[i-1]) for one puncture."""
    total = Fraction(0)
    for i in range(1, len(profile)):
        jump = profile[i] - profile[i - 1]
        if jump:
            total += beta_row[i - 1] * jump
    return total


def pardeg_subspace(sub: Subspace, fs: FlagSystem, w: Weight) -> Fraction:
    """Parabolic degree of a subspace of Q(i)^q relative to s flags and a
    weight, from the flag profiles.  The one degree computation: N pardeg on
    the Hilbert-Mumford side (Linearization.n_pardeg) is taken from it."""
    require_valid(w)
    if w.q != fs.q or w.s != fs.s:
        raise InputError("weight and flag system shapes disagree")
    if sub.ambient != fs.q:
        raise InputError("subspace ambient dimension does not match flags")
    total = Fraction(0)
    for j, flag in enumerate(fs.flags):
        total += pardeg_from_profile(flag.profile(sub), w.beta[j])
    return total


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
    row = t.rows[0]
    if row[1].is_zero():
        return n_abs_alpha       # T = U
    if row[0].is_zero():
        return -n_abs_alpha      # T = U'
    raise InputError("so2_score: line is not a coordinate isotropic line")
