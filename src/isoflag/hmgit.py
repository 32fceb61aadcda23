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
subspaces (flags.n_pardeg), N the lcm of the weight's denominators.

Weights of the linearized line bundles are evaluated in two independent ways
wherever a second formula is available, and any disagreement raises
InternalConsistencyError: these identities are the package's cross-check of
the whole degree bookkeeping.

A filtration with rank-one weight l and an isotropic chain I_1 < ... < I_r
with thresholds t_1 > ... > t_r > 0 has the closed-form total weight
(_chain_weight)

    mu = -4 l N|alpha| - 4 sum_j (N pardeg I_j)(t_j - t_{j+1}),  t_{r+1} = 0,

and one function (_package_oneps) turns such a chain into an explicit
one-parameter subgroup.  The two standard destabilizing shapes are its
one-link case: shape 1 is l = 1 with chain [(1, W)] and weight
-4N(|alpha| + pardeg W), shape 2 is l = 0 with chain [(1, V'^perp)] and
weight -4N pardeg V' (pardeg V'^perp = pardeg V').  The sign convention for
the rank-one factor (u carries weight +l) is pinned by these identities, and
the test suite enforces them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, InternalConsistencyError
from .flags import FlagSystem, n_pardeg, require_weight_for, so2_score
from .higgs import Certificate, HiggsTuple, decide_stability, isotropic_radicals, verify_certificate
from .linalg import (
    BilinearForm,
    Subspace,
    Vector,
    complete_to_hyperbolic,
    isotropy_classify,
    meet_join,
    orthocomplement,
    standard_basis,
)
from .weights import Weight, require_valid


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


@dataclass(frozen=True)
class OnePS:
    """so2_weight l (eigenvalues (l, -l) on (u, u')), a non-increasing
    antisymmetric integer weight vector m, and a hyperbolic eigenbasis."""

    l: int
    m: tuple[int, ...]
    basis: tuple[Vector, ...]

    def __post_init__(self):
        q = len(self.m)
        if len(self.basis) != q:
            raise InputError("eigenbasis size does not match weight vector")
        for i in range(q - 1):
            if self.m[i] < self.m[i + 1]:
                raise InputError("weights must be non-increasing")
        for i in range(q):
            if self.m[i] + self.m[q - 1 - i] != 0:
                raise InputError("weights must be antisymmetric")
        if not BilinearForm(q).is_standard_gram(list(self.basis)):
            raise InputError("eigenbasis is not hyperbolic")

    @property
    def q(self) -> int:
        return len(self.m)

    def v_piece(self, n: int) -> Subspace:
        count = sum(1 for mi in self.m if mi >= n)
        return Subspace.from_vectors(list(self.basis[:count]), self.q)

    def u_piece(self, n: int) -> Subspace:
        vecs = []
        e1, e2 = standard_basis(2)
        if self.l >= n:
            vecs.append(e1)
        if -self.l >= n:
            vecs.append(e2)
        return Subspace.from_vectors(vecs, 2)

    @classmethod
    def trivial(cls, q: int) -> "OnePS":
        return cls(0, tuple(0 for _ in range(q)), tuple(standard_basis(q)))


# ---------------------------------------------------------------------------
# Hilbert-Mumford weights


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
        piece = lam.u_piece
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


def hm_flag_total(lam: OnePS, fs: FlagSystem, w: Weight,
                  audit: list | None = None) -> int:
    """Total weight of the flag-system factor:

        sum_n ( -2 so2_score(U_n) - 2 N pardeg(V_n) )

    where so2_score(U_n) is the rank-one score (N|alpha|, -N|alpha| or 0).
    The audit records the two scores of each nonzero summand under "xi" and
    "n_pardeg".
    """
    if lam.q != fs.q:
        raise InputError("one-parameter subgroup and flags have different q")
    lo = min(-abs(lam.l), lam.m[-1], 0)
    hi = max(abs(lam.l), lam.m[0], 0) + 1
    total = 0
    for n in range(lo, hi + 1):
        un = lam.u_piece(n)
        vn = lam.v_piece(n)
        u_score = so2_score(un, w.n_abs_alpha)
        v_score = n_pardeg(vn, fs, w)
        term = -2 * u_score - 2 * v_score
        if audit is not None and (u_score or v_score):
            audit.append({"n": n, "u_dim": un.dim, "v_dim": vn.dim,
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


def _chain_weight(l: int, n_abs_alpha: int, links: list[tuple[int, int]]) -> int:
    """Closed-form total weight -4 (l N|alpha| + sum_j n_j (t_j - t_{j+1})) of
    the filtration with rank-one weight l whose links (t_j, n_j) pair the
    descending thresholds with N pardeg I_j of an isotropic chain; t_{r+1} = 0."""
    total = l * n_abs_alpha
    for j, (t, degree) in enumerate(links):
        t_next = links[j + 1][0] if j + 1 < len(links) else 0
        total += degree * (t - t_next)
    return -4 * total


def destabilizing_oneps(kind: str, vprime: Subspace, fs: FlagSystem,
                        w: Weight) -> tuple[OnePS, int]:
    """The two standard destabilizing shapes built from a subspace V', each
    the one-link chain [(1, W)] of an isotropic W.

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

    chain = [(1, w_iso)] if w_iso.dim else []
    lam = _package_oneps(l, chain, fs.q, form)
    if lam.v_piece(1) != w_iso:
        raise InternalConsistencyError("constructed filtration misses its subspace")
    return lam, _chain_weight(l, w.n_abs_alpha,
                              [(t, n_pardeg(piece, fs, w)) for t, piece in chain])


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
    """The isotropic radicals that isotropic_radicals harvests from the row
    span's orthocomplement T and the T ^ F_i^j, plus the isotropic flag
    pieces F_k^j (1 <= k <= q/2), sorted.  The row span needs no classifying
    of its own: rad(span) = span ^ span^perp = rad(span^perp)."""
    span_perp = a.span_perp()
    harvest = isotropic_radicals(span_perp, isotropy_classify(span_perp, BilinearForm(a.q))[1], fs)
    pieces = {flag.piece(k) for flag in fs.flags for k in range(1, fs.q // 2 + 1)}
    return sorted(pieces.union(harvest), key=lambda s_: (s_.dim, repr(s_.rows)))


def bounded_destabilizer_search(a: HiggsTuple, fs: FlagSystem, w: Weight,
                                weight_bound: int = 3) -> tuple[OnePS, int] | None:
    """First one-parameter subgroup with finite negative total weight among
    candidate filtrations built from the instance's subspace lattice and
    integer weight patterns up to the bound, or None.

    A candidate is a rank-one weight l and a chain of at most two candidate
    isotropics with descending thresholds; its weight is _chain_weight, by
    perp-duality of the filtration and pardeg(I^perp) = pardeg(I).  Any
    candidate found this way is re-packaged as an explicit one-parameter
    subgroup and re-evaluated summand by summand, and the two routes must
    agree.  Patterns with entries in {-1, 0, 1} are enumerated first, then
    the bound grows; the scan order is deterministic, so the first hit is
    reproducible.
    """
    require_valid(w)
    if weight_bound < 1:
        raise InputError(f"weight bound must be at least 1, got {weight_bound}")
    form = BilinearForm(fs.q)
    span = a.span()

    isotropics = _candidate_isotropics(a, fs)
    # I -> (N pardeg I, (rows lie in I^perp, rows lie in I)); the rows lie in
    # I^perp exactly when I lies in span^perp
    info = {iso: (n_pardeg(iso, fs, w),
                  (a.span_perp().contains_subspace(iso), iso.contains_subspace(span)))
            for iso in isotropics}

    chains: list[list[Subspace]] = [[]]
    chains.extend([iso] for iso in isotropics)
    for i1 in isotropics:
        for i2 in isotropics:
            if i1.dim < i2.dim and i2.contains_subspace(i1):
                chains.append([i1, i2])

    def evaluate(l: int, chain: list[Subspace], thresholds: tuple[int, ...]):
        # hm_base: every row must lie in V_l.  V_l is the largest member I
        # with threshold >= l when l >= 1 (0 if there is none), and I^perp
        # for the largest with threshold >= 1 - l when l <= 0 (C^q if none).
        reached = [c for c, t in zip(chain, thresholds) if t >= max(l, 1 - l)]
        holds = info[reached[-1]][1] if reached else (True, span.dim == 0)
        if not holds[l >= 1]:
            return None
        return _chain_weight(l, w.n_abs_alpha,
                             [(t, info[c][0]) for t, c in zip(thresholds, chain)])

    for top in range(1, weight_bound + 1):  # the largest |weight| in the pattern
        for chain in chains:
            # the deepest (smallest) chain member carries the largest threshold
            for thresholds in itertools.combinations(range(top, 0, -1), len(chain)):
                for l in _l_values(top):
                    if max((abs(l),) + thresholds) != top:
                        continue  # already scanned at a smaller top
                    mu = evaluate(l, chain, thresholds)
                    if mu is not None and mu < 0:
                        lam = _package_oneps(l, list(zip(thresholds, chain)), fs.q, form)
                        if hm_total(lam, a, fs, w) != mu:
                            raise InternalConsistencyError(
                                "filtration weight and packaged weight disagree")
                        return lam, mu
    return None


def consistency_check(a: HiggsTuple, fs: FlagSystem, w: Weight,
                      bound: int = 3, seed: int = 0) -> dict:
    """Cross-check one instance's verdict against the Hilbert-Mumford side.

    Unstable verdicts must re-verify and (for witnesses over Q(i)) yield a
    destabilizing one-parameter subgroup whose total weight is negative and
    matches the closed form.  Stable verdicts must survive the bounded
    destabilizer search.  StrictlySemistable verdicts must attain weight zero
    and admit nothing negative.  Undetermined verdicts are not claims; a
    search hit is recorded as extra information, never an inconsistency.
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
        found = bounded_destabilizer_search(a, fs, w, weight_bound=bound)
        if found is not None:
            out["mu"] = found[1]
            if verdict.tag == "Undetermined":
                out["resolved"] = "unstable_by_search"
            else:
                claim = "Stable" if verdict.tag == "Stable" else "semistable"
                out["consistent"] = False
                out["reason"] = f"search found a negative weight for a {claim} verdict"
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


def _l_values(top: int) -> list[int]:
    vals = [0]
    for v in range(1, top + 1):
        vals.extend([v, -v])
    return vals


def _package_oneps(l: int, weighted_chain: list[tuple[int, Subspace]], q: int,
                   form: BilinearForm) -> OnePS:
    """Build the OnePS with eigenbasis adapted to the chain and the given
    thresholds as weights.  weighted_chain pairs descending thresholds with
    ascending subspaces."""
    ordered = sorted(weighted_chain, key=lambda t: -t[0])
    pieces = [p for _, p in ordered]
    thresholds = [t for t, _ in ordered]
    basis = complete_to_hyperbolic(pieces, form)
    k = pieces[-1].dim if pieces else 0
    m = [0] * q
    dims = [p.dim for p in pieces]
    for idx in range(k):
        level = next(li for li, d in enumerate(dims) if idx < d)
        m[idx] = thresholds[level]
        m[q - 1 - idx] = -thresholds[level]
    return OnePS(l, tuple(m), basis)
