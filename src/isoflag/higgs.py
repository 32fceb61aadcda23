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

The line oracle below computes the exact maximum over isotropic *lines*.  It
enumerates flag-position tuples (i_1, ..., i_s) and, per tuple, looks for an
isotropic line inside Y = T ^ F_{i_1}^1 ^ ... ^ F_{i_s}^s.  Exactness rests
on a one-line lemma: every line in Y has jump positions <= i_j, hence pardeg
>= the tuple's score sum_j beta_{i_j}^j (beta is non-increasing); since the
optimal line's own tuple is enumerated and any found witness is a true line,
the best witness value equals the true maximum.  Witnesses are produced over
Q(i), or over a single quadratic extension Q(i)(sqrt(delta)) when a rank-two
restriction of the form does not split (the two isotropic lines of a binary
form live in a conjugate pair with equal pardeg).

For q <= 3 every nonzero isotropic subspace is a line, so the oracle decides
condition (2) completely and the verdict is never Undetermined.  For q >= 4
exact maximization over higher-dimensional isotropic subspaces across several
flags is not attempted; the verdict carries certified bounds instead: from
below, the best explicit isotropic witness (the line oracle's line, or the
radical of T or of some T ^ F_i^j), which is sound because every witness is a
true isotropic subspace of T; from above, a per-flag greedy relaxation, which
no witness enters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalConsistencyError
from .flags import FlagSystem, pardeg_subspace, validate_flag
from .linalg import (
    BilinearForm,
    Subspace,
    Vector,
    is_zero_vector,
    isotropy_classify,
    max_isotropic_dimension,
    orthocomplement,
    vadd,
    vscale,
)
from .scalars import Scalar
from .weights import Weight, region_membership, require_valid


@dataclass(frozen=True)
class HiggsTuple:
    """The s-2 row vectors of an instance (the lower Higgs block; the upper
    block vanishes identically in the admissible weight regime and is not
    stored).  The rows are coefficient vectors against a basis of sections;
    that basis itself never needs to be materialized."""

    q: int
    s: int
    rows: tuple[Vector, ...]

    def __post_init__(self):
        if self.s < 3:
            raise InputError("need at least 3 punctures")
        if len(self.rows) != self.s - 2:
            raise InputError(f"expected {self.s - 2} rows, got {len(self.rows)}")
        for r in self.rows:
            if len(r) != self.q:
                raise InputError("row length does not match q")

    def span(self) -> Subspace:
        return Subspace.from_vectors([r for r in self.rows], self.q)


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class ExtensionLine:
    """The line spanned by base + sqrt(delta) * twist over Q(i)(sqrt(delta)),
    delta a non-square.  Its intersection pattern with rational subspaces is
    computed componentwise: the line lies in a rational subspace iff both
    base and twist do."""

    ambient: int
    base: Vector
    twist: Vector
    delta: Scalar

    def jump_positions(self, fs: FlagSystem) -> tuple[int, ...]:
        return tuple(f.vector_jump([self.base, self.twist]) for f in fs.flags)

    def pardeg(self, fs: FlagSystem, w: Weight) -> Fraction:
        return sum(
            (w.beta[j][i - 1] for j, i in enumerate(self.jump_positions(fs))),
            Fraction(0),
        )

    def contained_in(self, sub: Subspace) -> bool:
        return sub.contains(self.base) and sub.contains(self.twist)

    def is_isotropic(self, form: BilinearForm) -> bool:
        rational = form.pair(self.base, self.base) + self.delta * form.pair(self.twist, self.twist)
        cross = form.pair(self.base, self.twist)
        return rational.is_zero() and cross.is_zero()


LineWitness = Subspace | ExtensionLine


def witness_pardeg(witness: LineWitness, fs: FlagSystem, w: Weight) -> Fraction:
    if isinstance(witness, ExtensionLine):
        return witness.pardeg(fs, w)
    return pardeg_subspace(witness, fs, w)


# ---------------------------------------------------------------------------
# condition (1)


def condition1_isotropic_span(a: HiggsTuple) -> tuple[bool, Subspace]:
    """True iff no isotropic subspace contains every row (see module docstring
    for the reduction to 'the form does not vanish on the span')."""
    span = a.span()
    form = BilinearForm(a.q)
    isotropic, _, _ = isotropy_classify(span, form)
    return not isotropic, span


# ---------------------------------------------------------------------------
# the line oracle


def _line(v: Vector, ambient: int) -> Subspace:
    return Subspace.from_vectors([v], ambient)


def _isotropic_line_in(y: Subspace, form: BilinearForm,
                       rng: random.Random) -> LineWitness | None:
    """Some isotropic line inside y, or None when y has none over C.

    Over C a nonzero isotropic vector exists iff dim y >= 2 or the restricted
    form vanishes; in the nondegenerate rank-two case the two isotropic lines
    may only exist over a quadratic extension, which is returned explicitly.
    """
    if y.dim == 0:
        return None
    _, radical, rank = isotropy_classify(y, form)
    if radical.dim > 0:
        return _line(radical.rows[0], y.ambient)
    if y.dim == 1:
        return None  # nondegenerate line: Q(t, t) != 0
    for row in y.rows:
        if form.pair(row, row).is_zero():
            return _line(row, y.ambient)
    fallback: ExtensionLine | None = None
    basis = list(y.rows)
    planes = [(basis[k], basis[l]) for k in range(len(basis)) for l in range(k + 1, len(basis))]
    for _ in range(4):  # a few extra planes improve the odds of a rational hit
        if len(basis) < 2:
            break
        coeffs = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in basis[1:]]
        mixed = basis[0]
        for c, b in zip(coeffs, basis[1:]):
            mixed = vadd(mixed, vscale(c, b))
        planes.append((mixed, basis[-1]))
    for b1, b2 in planes:
        g11 = form.pair(b1, b1)
        g12 = form.pair(b1, b2)
        g22 = form.pair(b2, b2)
        if g11.is_zero():
            if not is_zero_vector(b1):
                return _line(b1, y.ambient)
            continue
        disc = g12 * g12 - g11 * g22
        if disc.is_zero():
            # rank-one plane: the repeated root gives a rational isotropic line
            v = vadd(vscale(-g12, b1), vscale(g11, b2))
            if not is_zero_vector(v):
                return _line(v, y.ambient)
            continue
        root = disc.sqrt()
        if root is not None:
            v = vadd(vscale(-g12 + root, b1), vscale(g11, b2))
            return _line(v, y.ambient)
        if fallback is None:
            line = ExtensionLine(
                ambient=y.ambient,
                base=vadd(vscale(-g12, b1), vscale(g11, b2)),
                twist=b1,
                delta=disc,
            )
            if not line.is_isotropic(form):
                raise InternalConsistencyError("extension line construction failed")
            fallback = line
    return fallback


@dataclass(frozen=True)
class LineOracleResult:
    value: Fraction | None          # None when no isotropic line exists in T
    witness: LineWitness | None


def line_oracle(t_sub: Subspace, fs: FlagSystem, w: Weight, seed: int = 0) -> LineOracleResult:
    """Exact maximum of pardeg over isotropic lines of C^q contained in T."""
    require_valid(w)
    if t_sub.ambient != fs.q:
        raise InputError("subspace ambient dimension does not match flags")
    form = BilinearForm(fs.q)
    rng = random.Random(seed)
    q, s = fs.q, fs.s

    suffix_best = [Fraction(0)] * (s + 1)
    for j in range(s - 1, -1, -1):
        suffix_best[j] = suffix_best[j + 1] + w.beta[j][0]

    best: list = [None, None]  # value, witness
    handled: dict[Subspace, Fraction | None] = {}

    def handle_leaf(y: Subspace) -> None:
        if y in handled:
            return
        witness = _isotropic_line_in(y, form, rng)
        if witness is None:
            handled[y] = None
            return
        value = witness_pardeg(witness, fs, w)
        handled[y] = value
        better = best[0] is None or value > best[0]
        tie_upgrade = (
            best[0] is not None and value == best[0]
            and isinstance(best[1], ExtensionLine) and isinstance(witness, Subspace)
        )
        if better or tie_upgrade:
            best[0], best[1] = value, witness

    def visit(j: int, y: Subspace, partial: Fraction) -> None:
        if y.dim == 0:
            return
        if best[0] is not None and partial + suffix_best[j] < best[0]:
            return
        if j == s:
            handle_leaf(y)
            return
        flag = fs.flags[j]
        profile = flag.profile(y)
        for i in range(1, q + 1):
            if profile[i] == profile[i - 1]:
                continue  # same intersection as position i-1, dominated
            child = y if profile[i] == y.dim else flag.intersect_piece(y, i)
            visit(j + 1, child, partial + w.beta[j][i - 1])

    visit(0, t_sub, Fraction(0))
    return LineOracleResult(value=best[0], witness=best[1])


# ---------------------------------------------------------------------------
# bounded maximization over all isotropic subspaces


@dataclass(frozen=True)
class PardegBounds:
    lower: Fraction | None          # best certified value (None: no candidates)
    witness: LineWitness | None
    upper: Fraction | None
    exact: bool


def _per_flag_upper(k: int, profile: tuple[int, ...], beta_row: tuple[Fraction, ...]) -> Fraction:
    """Greedy relaxation: the best score a k-dimensional subspace W <= T could
    achieve at one flag, subject only to dim(W ^ F_i) <= min(k, dim(T ^ F_i)).
    Abel summation turns the jump sum into sum_i d_i (beta_i - beta_{i+1}) with
    beta_{q+1} = 0 and d_q = k; the differences are nonnegative, so taking
    d_i maximal is optimal."""
    q = len(beta_row)
    total = Fraction(0)
    for i in range(1, q):
        total += min(k, profile[i]) * (beta_row[i - 1] - beta_row[i])
    total += k * beta_row[q - 1]
    return total


def _seed_members(t_sub: Subspace, fs: FlagSystem) -> list[Subspace]:
    """T and its nonzero intersections T ^ F_i^j with the flag pieces."""
    members = {t_sub}
    for flag in fs.flags:
        for i in range(1, fs.q):
            piece = flag.intersect_piece(t_sub, i)
            if piece.dim > 0:
                members.add(piece)
    return sorted(members, key=lambda m: (m.dim, repr(m.rows)))


def max_pardeg_isotropic_in(t_sub: Subspace, fs: FlagSystem, w: Weight,
                            seed: int = 0) -> PardegBounds:
    """Bounds on sup{pardeg(W) : 0 != W <= T isotropic}, exact when possible.

    The lower bound is the best of explicit isotropic witnesses: the line
    oracle's line and, when nu >= 2, the radicals (of dimension >= 2) of T and
    of each T ^ F_i^j.  Every witness is a true isotropic subspace of T, so
    the lower bound is sound whichever candidates are tried; more candidates
    could only raise it.  The upper bound decouples the flags and maximizes
    each greedily (a sound relaxation that uses no witness).  When T admits
    no isotropic subspace of dimension 2 the line oracle is already the exact
    supremum.
    """
    require_valid(w)
    form = BilinearForm(fs.q)
    if t_sub.dim == 0:
        return PardegBounds(None, None, None, True)
    nu = max_isotropic_dimension(t_sub, form)
    if nu == 0:
        return PardegBounds(None, None, None, True)

    oracle = line_oracle(t_sub, fs, w, seed)
    lower, witness = oracle.value, oracle.witness

    if nu == 1:
        return PardegBounds(lower, witness, lower, True)

    for member in _seed_members(t_sub, fs):
        _, radical, _ = isotropy_classify(member, form)
        if radical.dim >= 2:
            value = pardeg_subspace(radical, fs, w)
            if lower is None or value > lower:
                lower, witness = value, radical

    profiles = [flag.profile(t_sub) for flag in fs.flags]
    upper = None
    for k in range(1, nu + 1):
        bound = sum(
            (_per_flag_upper(k, profiles[j], w.beta[j]) for j in range(fs.s)),
            Fraction(0),
        )
        if upper is None or bound > upper:
            upper = bound
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


def _check_inputs(a: HiggsTuple, fs: FlagSystem, w: Weight) -> None:
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
    _check_inputs(a, fs, w)
    form = BilinearForm(a.q)

    holds, span = condition1_isotropic_span(a)
    if not holds:
        return Verdict("Unstable", Certificate("isotropic_span", span=span))

    t_sub = orthocomplement(span, form)
    if t_sub.dim == 0:
        return Verdict("Stable")

    bounds = max_pardeg_isotropic_in(t_sub, fs, w, seed=seed)
    if bounds.lower is None:
        return Verdict("Stable", exact=True)

    def unstable() -> Verdict:
        witness = bounds.witness
        coiso = None
        if isinstance(witness, Subspace):
            coiso = orthocomplement(witness, form)
        cert = Certificate("positive_coisotropic", witness=witness,
                           coisotropic=coiso, pardeg=bounds.lower)
        return Verdict("Unstable", cert, bounds.lower, bounds.upper, bounds.exact)

    if bounds.exact:
        if bounds.lower > 0:
            return unstable()
        if bounds.lower < 0:
            return Verdict("Stable", None, bounds.lower, bounds.upper, True)
        cert = Certificate("positive_coisotropic", witness=bounds.witness,
                           coisotropic=orthocomplement(bounds.witness, form)
                           if isinstance(bounds.witness, Subspace) else None,
                           pardeg=bounds.lower)
        return Verdict("StrictlySemistable", cert, bounds.lower, bounds.upper, True)

    if bounds.lower > 0:
        return unstable()
    if bounds.upper < 0:
        return Verdict("Stable", None, bounds.lower, bounds.upper, False)
    return Verdict("Undetermined", None, bounds.lower, bounds.upper, False)


def verify_certificate(verdict: Verdict, a: HiggsTuple, fs: FlagSystem, w: Weight) -> bool:
    """Independent recomputation of an Unstable certificate."""
    cert = verdict.certificate
    if verdict.tag != "Unstable" or cert is None:
        return False
    form = BilinearForm(a.q)
    if cert.kind == "isotropic_span":
        span = cert.span
        iso, _, _ = isotropy_classify(span, form)
        return iso and all(span.contains(r) for r in a.rows)
    if cert.kind == "positive_coisotropic":
        witness = cert.witness
        span = a.span()
        perp = orthocomplement(span, form)
        if isinstance(witness, ExtensionLine):
            ok = witness.is_isotropic(form) and witness.contained_in(perp)
            return ok and witness.pardeg(fs, w) > 0
        iso, _, _ = isotropy_classify(witness, form)
        if not (iso and perp.contains_subspace(witness)):
            return False
        value = pardeg_subspace(witness, fs, w)
        if cert.coisotropic is not None:
            # V' must be the orthocomplement, contain the rows, and share pardeg
            if cert.coisotropic != orthocomplement(witness, form):
                return False
            if not all(cert.coisotropic.contains(r) for r in a.rows):
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
    rows: list[Vector] = []
    perm = list(range(q))
    rng.shuffle(perm)
    # triangular relative to the permuted pivot order, so the rank is q
    for i in range(q):
        row = [Scalar(0)] * q
        row[perm[i]] = Scalar(Fraction(rng.randint(1, 5)))
        for jj in range(i):
            if rng.random() < 0.5:
                row[perm[jj]] = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        rows.append(tuple(row))
    for _ in range(s - 2 - q):
        rows.append(tuple(
            Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(q)
        ))
    a = HiggsTuple(q, s, tuple(rows))
    verdict = decide_stability(a, fs, w)
    if verdict.tag != "Stable":
        raise InternalConsistencyError("spanning instance did not come out stable")
    return a
