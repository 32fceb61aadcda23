"""One-parameter subgroups, isotropic filtrations and Hilbert-Mumford weights.

The acting group is the product of the rank-one split orthogonal group on C^2
(all of whose one-parameter subgroups are t -> diag(t^l, t^-l) in the fixed
basis (u, u') with u the distinguished isotropic line) and the split
orthogonal group on C^q.  A one-parameter subgroup of the latter is encoded
by a non-increasing, antisymmetric integer weight vector together with a
hyperbolic eigenbasis; it induces the decreasing isotropic filtration
V_n = span{v_i : m_i >= n}, which satisfies V_n = (V_{1-n})^perp.

The weight fixes the linearization: every Hilbert-Mumford weight below is an
integer combination of N|alpha| (Weight.n_abs_alpha) and N pardeg of
subspaces (flags.n_pardeg), N the lcm of the weight's denominators; the
rank-one summand is read off l alone, with no subspace of C^2 (hm_flag_total).

Everything here runs on Gaussian integers, as the decision does.  A OnePS
holds its eigenbasis as Z[i] rows over one denominator, the matrix form of
linalg and of a flag's basis: a destabilizer's is the hyperbolic completion
of W's stored rows D R over W's D (complete_to_hyperbolic), and one read
from a file is parsed straight into that form; io writes it from the
integers.  Its filtration pieces are eliminated from those rows, and the
degree of a piece is N beta summed at its echelon ends against each flag, a
line's one end read with no echelon (IsotropicFlag.ends).

Every destabilizer's weight is computed twice, by its closed form and summand
by summand over its filtration (hm_total): a disagreement raises
InternalConsistencyError in the destabilizer search, and consistency_check
reports it as an inconsistency.

Two destabilizing shapes, each built from an isotropic W (destabilizing_oneps),
serve the certificates and the search alike: shape 1 is l = 1 with
V_1 = W, weighing -4N(|alpha| + pardeg W), and shape 2 is l = 0 with
V_1 = W = V'^perp, weighing -4N pardeg V' (pardeg V'^perp = pardeg V').
For an admissible weight no other filtration destabilizes where these two
do not, so the destabilizer search is one scan of candidate isotropics (the
lemma in bounded_destabilizer_search).  The sign convention for the rank-one
factor (u carries weight +l) is pinned by these identities, and the test
suite enforces them.
"""

from __future__ import annotations

from .errors import InputError, InternalConsistencyError
from .flags import FlagSystem, n_pardeg, require_weight_for
from .higgs import (Certificate, HiggsTuple, check_inputs, decide_stability, isotropic_radicals,
                    verify_certificate)
from .linalg import (
    BilinearForm,
    Subspace,
    ZiRow,
    _least,
    _zi_hyperbolic,
    complete_to_hyperbolic,
    isotropy_classify,
    order_key,
    orthocomplement,
)
from .weights import Weight


class _Infinite:
    """Tagged +infinity sentinel for Hilbert-Mumford weights (never a float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"


INFINITE = _Infinite()


# ---------------------------------------------------------------------------
# one-parameter subgroups and filtrations


class OnePS:
    """so2_weight l (eigenvalues (l, -l) on (u, u')), a non-increasing
    antisymmetric integer weight vector m, and a hyperbolic eigenbasis.

    The eigenbasis is held as Gaussian-integer rows over one denominator,
    basis = zi_rows / den with den the lcm of the entries' reduced
    denominators: a destabilizer's is the hyperbolic completion of W's
    stored rows, and one read from a file is parsed straight into it.  The
    constructor takes the rows over any positive denominator and puts them
    over the least one (linalg._least), as tuples, so that form is
    canonical and == and the hash compare it directly.  It checks the
    weights and, on the integers, that the basis is hyperbolic
    (B J B^T = J, linalg._zi_hyperbolic), and raises InputError.
    Immutable; equal when l, m and the basis are.
    """

    __slots__ = ("l", "m", "zi_rows", "den", "_v_pieces")

    def __init__(self, l: int, m: tuple[int, ...], zi_rows: list[ZiRow], den: int):
        q = len(m)
        if len(zi_rows) != q:
            raise InputError("eigenbasis size does not match weight vector")
        for i in range(q - 1):
            if m[i] < m[i + 1]:
                raise InputError("weights must be non-increasing")
        for i in range(q):
            if m[i] + m[q - 1 - i] != 0:
                raise InputError("weights must be antisymmetric")
        if q < 1:
            raise InputError("form dimension must be positive")
        if any(len(re) != q or len(im) != q for re, im in zi_rows):
            raise InputError("vector length does not match form dimension")
        if den < 1:
            raise InputError("eigenbasis denominator must be positive")
        zi_rows, den = _least(zi_rows, den)
        if not _zi_hyperbolic(zi_rows, den):
            raise InputError("eigenbasis is not hyperbolic")
        self.l, self.m = l, m
        self.zi_rows = tuple((tuple(re), tuple(im)) for re, im in zi_rows)
        self.den = den
        # v_piece by its number of basis rows
        self._v_pieces: dict[int, Subspace] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, OnePS):
            return NotImplemented
        return ((self.l, self.m, self.den, self.zi_rows)
                == (other.l, other.m, other.den, other.zi_rows))

    def __hash__(self) -> int:
        return hash((self.l, self.m, self.den, self.zi_rows))

    def __repr__(self) -> str:
        return f"OnePS(l={self.l}, m={self.m}, den={self.den})"

    @property
    def q(self) -> int:
        return len(self.m)

    def v_piece(self, n: int) -> Subspace:
        """The span of the eigenbasis rows with weight m_i >= n, built once
        per number of such rows: the Hilbert-Mumford weights ask for the
        same pieces several times."""
        count = sum(1 for mi in self.m if mi >= n)
        piece = self._v_pieces.get(count)
        if piece is None:
            piece = self._v_pieces[count] = Subspace.from_zi_rows(self.zi_rows[:count], self.q)
        return piece

    @classmethod
    def trivial(cls, q: int) -> "OnePS":
        return cls(0, (0,) * q, Subspace.full(q).zi_rows, 1)


# ---------------------------------------------------------------------------
# Hilbert-Mumford weights


def hm_flag_total(lam: OnePS, fs: FlagSystem, w: Weight,
                  audit: list | None = None) -> int:
    """Total weight of the flag-system factor:

        sum_n ( -2 xi_n - 2 N pardeg(V_n) )

    where xi_n = N|alpha| (2 dim(U_n ^ U) - dim U_n) is the rank-one score.
    U_n holds u when l >= n and u' when -l >= n, so both are read off l:
    u_dim = [l >= n] + [-l >= n] and xi_n = N|alpha| ([l >= n] - [-l >= n]).
    The audit records u_dim and the two scores of each nonzero summand under
    "xi" and "n_pardeg".

    Lemma.  Only lo < n < hi contribute (lo = min(-|l|, m_q, 0), hi =
    max(|l|, m_1, 0) + 1): U_lo = C^2 and V_lo = C^q score 0 (pardeg C^q =
    sum beta = 0 by antisymmetry), and U_hi = V_hi = 0.  The range is empty
    for the trivial subgroup, so the weight is checked up front.
    """
    if lam.q != fs.q:
        raise InputError("one-parameter subgroup and flags have different q")
    require_weight_for(fs, w)
    lo = min(-abs(lam.l), lam.m[-1], 0)
    hi = max(abs(lam.l), lam.m[0], 0) + 1
    total = 0
    for n in range(lo + 1, hi):
        has_u, has_u_prime = lam.l >= n, -lam.l >= n
        vn = lam.v_piece(n)
        u_score = w.n_abs_alpha * (has_u - has_u_prime)
        v_score = n_pardeg(vn, fs, w)
        term = -2 * u_score - 2 * v_score
        if audit is not None and (u_score or v_score):
            audit.append({"n": n, "u_dim": has_u + has_u_prime, "v_dim": vn.dim,
                          "xi": u_score, "n_pardeg": v_score, "term": term})
        total += term
    return total


def hm_base(lam: OnePS, a: HiggsTuple):
    """0 when every row is compatible with the filtration, +inf otherwise.

    The base factor's weight is finite iff the limit of the row tuple exists,
    i.e. iff the dual maps send U_n into V_n for all n.  Since the dual map
    of a row sends the distinguished line U = <u> (weight l) to the span of
    the row, the condition collapses to: every row lies in V_l, that is, the
    span of the rows lies in V_l (one containment check).
    """
    if lam.q != a.q:
        raise InputError("one-parameter subgroup and row tuple have different q")
    if lam.v_piece(lam.l).contains_subspace(a.span()):
        return 0
    return INFINITE


def hm_total(lam: OnePS, a: HiggsTuple, fs: FlagSystem, w: Weight,
             audit: list | None = None):
    """Additivity over the factors: base weight plus flag-system weight, with
    +inf absorbing.  The weight is checked first, so an invalid one is
    rejected even where the base weight is already +inf."""
    require_weight_for(fs, w)
    base = hm_base(lam, a)
    if base is INFINITE:
        return INFINITE
    return base + hm_flag_total(lam, fs, w, audit=audit)


# ---------------------------------------------------------------------------
# destabilizing constructions


def destabilizing_oneps(kind: str, vprime: Subspace, fs: FlagSystem,
                        w: Weight) -> tuple[OnePS, int]:
    """The two standard destabilizing shapes built from a subspace V' through
    an isotropic W of dimension k: weights m = (1^k, 0^(q-2k), (-1)^k) on the
    hyperbolic completion of W read off its canonical rows
    (complete_to_hyperbolic), rank-one weight l and predicted weight
    -4(l N|alpha| + N pardeg W).  W is checked isotropic here, once; the
    filtration's pieces are W and W^perp, so the weight does not depend on
    which completion is used.

    shape1 (V' isotropic, meant to contain every row): l = 1, W = V';
        U_n = C^2 (n<=-1), U (n=0,1), 0 (n>=2);
        V_n = C^q (n<=-1), V'^perp (n=0), V' (n=1), 0 (n>=2);
        predicted weight -4N(|alpha| + pardeg V').

    shape2 (V' coisotropic, meant to contain every row): l = 0, W = V'^perp;
        U_n = C^2 (n<=0), 0 (n>=1);
        V_n = C^q (n<=-1), V' (n=0), V'^perp (n=1), 0 (n>=2);
        predicted weight -4N pardeg V' (= -4N pardeg W by perp-duality).
    """
    require_weight_for(fs, w)
    form = BilinearForm(fs.q)
    if kind == "shape1":
        w_iso, l, needs = vprime, 1, "an isotropic"
    elif kind == "shape2":
        w_iso, l, needs = orthocomplement(vprime, form), 0, "a coisotropic"
    else:
        raise InputError(f"unknown shape {kind!r}")
    iso, _, _ = isotropy_classify(w_iso, form)
    if not iso:
        raise InputError(f"{kind} needs {needs} subspace")

    k = w_iso.dim
    m = (1,) * k + (0,) * (fs.q - 2 * k) + (-1,) * k
    lam = OnePS(l, m, *complete_to_hyperbolic(w_iso))
    if lam.v_piece(1) != w_iso:
        raise InternalConsistencyError("constructed filtration misses its subspace")
    return lam, -4 * (l * w.n_abs_alpha + n_pardeg(w_iso, fs, w))


def certificate_oneps(cert: Certificate, fs: FlagSystem,
                      w: Weight) -> tuple[OnePS, int] | None:
    """The destabilizing one-parameter subgroup of a certificate and its
    predicted weight: shape 1 on an isotropic span, shape 2 on a rational
    coisotropic subspace.  None for a witness line over an extension field,
    which spans no rational filtration."""
    if cert.kind == "isotropic_span":
        return destabilizing_oneps("shape1", cert.span, fs, w)
    if cert.coisotropic is not None:
        return destabilizing_oneps("shape2", cert.coisotropic, fs, w)
    return None


# ---------------------------------------------------------------------------
# bounded destabilizer search


def _candidate_isotropics(a: HiggsTuple, fs: FlagSystem) -> list[Subspace]:
    """The nonzero radicals that isotropic_radicals harvests from the row
    span's orthocomplement T and the T ^ F_i^j (min_dim 1), sorted by
    order_key; none when T is 0.  Each lies in T.  T's isotropy_classify is
    kept with T, which the bound stage classified already.  The row span
    needs no classifying of its own: rad(span) = span ^ span^perp =
    rad(span^perp).  An isotropic flag piece F_k^j inside T is T ^ F_k^j
    with 2k <= q, its own radical, so the harvest already holds it."""
    t_sub = a.span_perp()
    if t_sub.dim == 0:
        return []
    harvest = isotropic_radicals(t_sub, isotropy_classify(t_sub, BilinearForm(a.q))[1], fs, 1)
    return sorted(harvest, key=order_key)


def bounded_destabilizer_search(a: HiggsTuple, fs: FlagSystem,
                                w: Weight) -> tuple[OnePS, int] | None:
    """The first destabilizing one-parameter subgroup built on the candidate
    isotropics (_candidate_isotropics) and its weight, or None.

    A filtration with rank-one weight l and a chain of candidates with
    integer thresholds t_1 > ... > t_r > 0 is finite iff the rows lie in V_l,
    and then weighs -4 (l N|alpha| + sum_{t >= 1} N pardeg I(t)), with I(t)
    the largest member of threshold >= t (0 if none).  For an admissible
    weight, the first negative one is one of the two shapes, found by one
    scan:

    - rows 0: shape 1 on 0;
    - otherwise, for the first candidate I (each lies in T = span(A)^perp)
      with N pardeg I > 0 or with the rows in I: shape 2 on I^perp if
      N pardeg I > 0, else shape 1 on I.

    Lemma.  Admissibility (alpha^j > |beta^j|) gives
    -N|beta| <= N pardeg <= N|beta| < N|alpha| for every subspace.
    - l >= 1: V_l contains the rows and is an isotropic member, or 0.  Then
      shape 1 on that member weighs -4(N|alpha| + N pardeg) < 0, and for rows
      equal to 0 the empty chain weighs -4N|alpha| < 0.
    - l = -a <= 0: the rows lie in V_l = I(1 + a)^perp, so the members with
      threshold >= 1 + a lie in T, and the thresholds t <= a contribute at
      most a N|beta| < a N|alpha| (nothing when a = 0).  So a negative weight
      needs some I(t) inside T with N pardeg I(t) > 0.
    Among patterns ordered by their largest |weight|, then by candidate, then
    with l = 0 before l = 1, the scan's hit is therefore the first negative
    one.  It is re-evaluated summand by summand (hm_total), and the two
    routes must agree.

    Lemma (no hit off Unstable).  On a verdict that is not Unstable the
    search returns None.  Every candidate is a nonzero isotropic radical
    inside T.  A radical line scores at most the line oracle's exact
    maximum, and a radical of dim >= 2 is one of the bound stage's
    witnesses, so every candidate has pardeg <= the verdict's lower bound
    <= 0, and shape 2 never fires.  A shape 1 hit needs the rows inside an
    isotropic candidate; then the row span is isotropic, and
    decide_stability has already returned Unstable by its first condition.
    So consistency_check reports a hit off Unstable as an inconsistency.
    The same argument shows that the check of a Stable verdict re-reads the
    bound stage's own harvest: it checks that code against itself, not the
    supremum.
    """
    check_inputs(a, fs, w)
    span = a.span()

    def hit(kind: str, vprime: Subspace) -> tuple[OnePS, int]:
        lam, mu = destabilizing_oneps(kind, vprime, fs, w)
        if mu >= 0 or hm_total(lam, a, fs, w) != mu:
            raise InternalConsistencyError(
                f"{kind} hit does not re-evaluate to its negative weight {mu}")
        return lam, mu

    if span.dim == 0:
        return hit("shape1", span)
    for iso in _candidate_isotropics(a, fs):
        if n_pardeg(iso, fs, w) > 0:
            return hit("shape2", orthocomplement(iso, BilinearForm(fs.q)))
        if iso.contains_subspace(span):
            return hit("shape1", iso)
    return None


def consistency_check(a: HiggsTuple, fs: FlagSystem, w: Weight,
                      seed: int = 0) -> dict:
    """Cross-check one instance's verdict against the Hilbert-Mumford side.

    Unstable verdicts must re-verify and (for witnesses over Q(i)) yield a
    destabilizing one-parameter subgroup whose total weight is negative and
    matches the closed form.  Every other verdict must survive the bounded
    destabilizer search, which by its lemma finds nothing off Unstable, so a
    hit is an inconsistency, on an Undetermined verdict too.
    StrictlySemistable verdicts must also attain weight zero.
    """
    verdict = decide_stability(a, fs, w, seed=seed)
    out: dict = {"verdict": verdict.tag, "consistent": True, "mu": None,
                 "witness_field": "rational"}

    if verdict.tag == "Unstable":
        if not verify_certificate(verdict, a, fs, w):
            out["consistent"] = False
            out["reason"] = "certificate failed re-verification"
            return out
    else:
        found = bounded_destabilizer_search(a, fs, w)
        if found is not None:
            out["mu"] = found[1]
            out["consistent"] = False
            out["reason"] = f"search found a negative weight for a {verdict.tag} verdict"
            return out
        if verdict.tag != "StrictlySemistable":
            return out

    packaged = certificate_oneps(verdict.certificate, fs, w)
    if packaged is None:
        out["witness_field"] = "extension"
        return out
    lam, predicted = packaged
    mu = hm_total(lam, a, fs, w)
    if verdict.tag == "Unstable":
        out["mu"] = predicted
        if mu is INFINITE or mu != predicted or mu >= 0:
            out["consistent"] = False
            out["reason"] = f"destabilizer weight {mu!r} != predicted {predicted}"
    else:
        out["mu"] = mu if mu is not INFINITE else None
        if mu is INFINITE or mu != 0 or predicted != 0:
            out["consistent"] = False
            out["reason"] = "zero-pardeg witness did not attain weight zero"
    return out
