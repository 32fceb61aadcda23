"""One-parameter subgroups, isotropic filtrations and Hilbert-Mumford weights.

The acting group is the product of the rank-one split orthogonal group on C^2
(all of whose one-parameter subgroups are t -> diag(t^l, t^-l) in the fixed
basis (u, u') with u the distinguished isotropic line) and the split
orthogonal group on C^q.  A one-parameter subgroup of the latter is encoded
by a non-increasing, antisymmetric integer weight vector together with a
hyperbolic eigenbasis; it induces the decreasing isotropic filtration
V_n = span{v_i : m_i >= n}, which satisfies V_n = (V_{1-n})^perp.

Weights of the linearized line bundles are evaluated in two independent ways
wherever a second formula is available, and any disagreement raises
InternalConsistencyError: these identities are the package's cross-check of
the whole degree bookkeeping.

The sign convention for the rank-one factor (u carries weight +l) is pinned
by the destabilizer identities: the two standard destabilizing filtration
shapes must produce total weights -4N(|alpha| + pardeg V') and
-4N pardeg V' exactly, and the test suite enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalConsistencyError
from .flags import FlagSystem, pardeg_from_profile, so2_score
from .higgs import HiggsTuple
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
# linearization data


@dataclass(frozen=True)
class Linearization:
    """Integer twisting data cleared by N = lcm of the weight denominators:
    a^j = 2 N alpha^j, b_i^j = N(beta_i^j - beta_{i+1}^j), xi^j = (-N alpha^j,
    N alpha^j), zeta_i^j = -N beta_i^j.  Both xi and zeta sum to zero."""

    n: int
    a: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]
    xi: tuple[tuple[int, int], ...]
    zeta: tuple[tuple[int, ...], ...]

    @property
    def n_abs_alpha(self) -> int:
        return sum(x[1] for x in self.xi)

    def n_pardeg_from_profile(self, j: int, profile: tuple[int, ...]) -> int:
        """N * pardeg contribution of puncture j, in exact integers."""
        total = 0
        for i in range(1, len(profile)):
            jump = profile[i] - profile[i - 1]
            if jump:
                total -= self.zeta[j][i - 1] * jump
        return total


def build_linearization(w: Weight) -> Linearization:
    require_valid(w)
    denoms = [a.denominator for a in w.alpha]
    for row in w.beta:
        denoms.extend(b.denominator for b in row)
    n = 1
    for d in denoms:
        g = _gcd(n, d)
        n = n // g * d
    a = tuple(int(2 * n * w.alpha[j]) for j in range(w.s))
    b = tuple(
        tuple(int(n * (w.beta[j][i] - w.beta[j][i + 1])) for i in range(w.q - 1))
        for j in range(w.s)
    )
    xi = tuple((int(-n * w.alpha[j]), int(n * w.alpha[j])) for j in range(w.s))
    zeta = tuple(tuple(int(-n * bb) for bb in w.beta[j]) for j in range(w.s))
    if sum(x[0] + x[1] for x in xi) != 0 or any(sum(z) != 0 for z in zeta):
        raise InternalConsistencyError("linearization data does not sum to zero")
    return Linearization(n, a, b, xi, zeta)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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
        e1, e2 = standard_basis(2)
        ordered = (e1, e2) if lam.l >= 0 else (e2, e1)

        def piece(n: int, _ordered=ordered, _w=weights) -> Subspace:
            vecs = [v for mi, v in zip(_w, _ordered) if mi >= n]
            return Subspace.from_vectors(vecs, 2)
    else:
        raise InputError("subspace ambient matches neither factor")

    lo, hi = weights[-1], weights[0]
    total = 0
    for n in range(lo, hi + 1):
        un = piece(n)
        meet, _ = meet_join(un, f)
        total += i * un.dim - p * meet.dim
    mu1 = Fraction(2 * m, p) * total
    if mu1.denominator != 1:
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
    return int(mu1)


def hm_flag_total(lam: OnePS, fs: FlagSystem, lin: Linearization, w: Weight,
                  audit: list | None = None) -> int:
    """Total weight of the flag-system factor:

        sum_n ( -2 |xi(U_n ^ point)| - 2 |zeta(V_n ^ F)| )

    where |xi(U_n ^ point)| is the rank-one score (N|alpha|, -N|alpha| or 0)
    and |zeta(V_n ^ F)| equals N times the parabolic degree of V_n.
    """
    if lam.q != fs.q:
        raise InputError("one-parameter subgroup and flags have different q")
    lo = min(-abs(lam.l), lam.m[-1], 0)
    hi = max(abs(lam.l), lam.m[0], 0) + 1
    total = 0
    for n in range(lo, hi + 1):
        un = lam.u_piece(n)
        vn = lam.v_piece(n)
        xi_term = so2_score(un, w, lin.n)
        zeta_term = sum(
            lin.n_pardeg_from_profile(j, fs.flags[j].profile(vn))
            for j in range(fs.s)
        )
        term = -2 * xi_term - 2 * zeta_term
        if audit is not None and (xi_term or zeta_term):
            audit.append({"n": n, "u_dim": un.dim, "v_dim": vn.dim,
                          "xi": xi_term, "n_pardeg": zeta_term, "term": term})
        total += term
    return total


def hm_base(lam: OnePS, a: HiggsTuple):
    """0 when every row is compatible with the filtration, +inf otherwise.

    The base factor's weight is finite iff the limit of the row tuple exists,
    i.e. iff the dual maps send U_n into V_n for all n.  Since the dual map
    of a row sends the distinguished line U = <u> (weight l) to the span of
    the row, the condition collapses to: every row lies in V_l.
    """
    if lam.q != a.q:
        raise InputError("one-parameter subgroup and row tuple have different q")
    vl = lam.v_piece(lam.l)
    if all(vl.contains(r) for r in a.rows):
        return 0
    return INFINITE


def hm_total(lam: OnePS, a: HiggsTuple, fs: FlagSystem, lin: Linearization,
             w: Weight, audit: list | None = None):
    """Additivity over the factors: base weight plus flag-system weight, with
    +inf absorbing."""
    base = hm_base(lam, a)
    if base is INFINITE:
        return INFINITE
    return base + hm_flag_total(lam, fs, lin, w, audit=audit)


# ---------------------------------------------------------------------------
# destabilizing constructions


def destabilizing_oneps(kind: str, vprime: Subspace, fs: FlagSystem,
                        lin: Linearization, w: Weight) -> tuple[OnePS, int]:
    """The two standard destabilizing shapes built from a subspace V'.

    shape1 (V' isotropic, meant to contain every row):
        U_n = C^2 (n<=-1), U (n=0,1), 0 (n>=2);
        V_n = C^q (n<=-1), V'^perp (n=0), V' (n=1), 0 (n>=2);
        predicted weight -4N(|alpha| + pardeg V').

    shape2 (V' coisotropic, meant to contain every row):
        U_n = C^2 (n<=0), 0 (n>=1);
        V_n = C^q (n<=-1), V' (n=0), V'^perp (n=1), 0 (n>=2);
        predicted weight -4N pardeg V'.
    """
    form = BilinearForm(fs.q)
    if kind == "shape1":
        iso, _, _ = isotropy_classify(vprime, form)
        if not iso:
            raise InputError("shape1 needs an isotropic subspace")
        w_iso = vprime
        l = 1
    elif kind == "shape2":
        w_iso = orthocomplement(vprime, form)
        iso, _, _ = isotropy_classify(w_iso, form)
        if not iso:
            raise InputError("shape2 needs a coisotropic subspace")
        l = 0
    else:
        raise InputError(f"unknown shape {kind!r}")

    basis = complete_to_hyperbolic([w_iso] if w_iso.dim else [], form)
    k = w_iso.dim
    m = (1,) * k + (0,) * (fs.q - 2 * k) + (-1,) * k
    lam = OnePS(l, m, basis)
    if lam.v_piece(1) != w_iso:
        raise InternalConsistencyError("constructed filtration misses its subspace")

    n_pardeg = sum(
        lin.n_pardeg_from_profile(j, fs.flags[j].profile(vprime))
        for j in range(fs.s)
    )
    if kind == "shape1":
        predicted = -4 * (lin.n_abs_alpha + n_pardeg)
    else:
        predicted = -4 * n_pardeg
    return lam, predicted


# ---------------------------------------------------------------------------
# bounded destabilizer search


def _candidate_isotropics(a: HiggsTuple, fs: FlagSystem, cap: int = 64) -> list[Subspace]:
    """Isotropic subspaces harvested from the lattice generated by the span of
    the rows, its orthocomplement and the flag pieces: the members themselves
    when isotropic, radicals otherwise, plus radicals of one round of meets
    of the row span's orthocomplement with flag pieces.

    The flags must be valid: a flag piece's radical is read off the flag
    (F_i is isotropic for i <= q/2, and otherwise F_i ^ F_i^perp = F_{q-i}),
    not computed."""
    form = BilinearForm(a.q)
    q = fs.q
    span = a.span()
    span_perp = orthocomplement(span, form)
    piece_radicals = [flag.piece(min(i, q - i)) for flag in fs.flags for i in range(1, q)]
    extra = [flag.intersect_piece(span_perp, i) for flag in fs.flags for i in range(1, q)]
    members = ([(span, False), (span_perp, False)]
               + [(r, True) for r in piece_radicals]
               + [(x, False) for x in extra])
    isotropics: set[Subspace] = set()
    for member, known_isotropic in members:
        if not member.dim or len(isotropics) >= cap:
            continue
        if known_isotropic:
            target = member
        else:
            iso, radical, _ = isotropy_classify(member, form)
            target = member if iso else radical
        if target.dim:
            isotropics.add(target)
    return sorted(isotropics, key=lambda s_: (s_.dim, repr(s_.rows)))


def bounded_destabilizer_search(a: HiggsTuple, fs: FlagSystem, w: Weight,
                                weight_bound: int = 3) -> tuple[OnePS, int] | None:
    """First one-parameter subgroup with finite negative total weight among
    candidate filtrations built from the instance's subspace lattice and
    integer weight patterns up to the bound, or None.

    For a filtration with rank-one weight l and isotropic chain pieces I_j
    carrying thresholds t_1 > ... > t_r > t_{r+1} := 0, the total weight has
    the closed form

        mu = -4 l N|alpha| - 4 sum_j (N pardeg I_j)(t_j - t_{j+1}),

    by perp-duality of the filtration and pardeg(I^perp) = pardeg(I); any
    candidate found this way is re-packaged as an explicit one-parameter
    subgroup and re-evaluated summand by summand, and the two routes must
    agree.  Patterns with entries in {-1, 0, 1} are enumerated first, then
    the bound grows; the scan order is deterministic, so the first hit is
    reproducible.
    """
    require_valid(w)
    lin = build_linearization(w)
    form = BilinearForm(fs.q)
    q = fs.q
    n_abs_alpha = lin.n_abs_alpha

    isotropics = _candidate_isotropics(a, fs)
    rows_zero = all(all(x.is_zero() for x in r) for r in a.rows)
    info: dict[Subspace, tuple[int, bool, bool]] = {}
    for iso in isotropics:
        np_val = sum(
            lin.n_pardeg_from_profile(j, fs.flags[j].profile(iso))
            for j in range(fs.s)
        )
        perp = orthocomplement(iso, form)
        info[iso] = (
            np_val,
            all(iso.contains(r) for r in a.rows),
            all(perp.contains(r) for r in a.rows),
        )

    chains: list[list[Subspace]] = [[]]
    chains.extend([iso] for iso in isotropics)
    for i1 in isotropics:
        for i2 in isotropics:
            if i1.dim < i2.dim and i2.contains_subspace(i1):
                chains.append([i1, i2])

    def evaluate(l: int, chain: list[Subspace], thresholds: tuple[int, ...]):
        # hm_base containment: every row must lie in V_l
        if l >= 1:
            piece_idx = None
            for j in range(len(chain)):
                if thresholds[j] >= l:
                    piece_idx = j
            if piece_idx is None:
                if not rows_zero:
                    return None
            elif not info[chain[piece_idx]][1]:
                return None
        else:
            m = 1 - l
            piece_idx = None
            for j in range(len(chain)):
                if thresholds[j] >= m:
                    piece_idx = j
            if piece_idx is not None and not info[chain[piece_idx]][2]:
                return None
        total = l * n_abs_alpha
        for j in range(len(chain)):
            t_next = thresholds[j + 1] if j + 1 < len(chain) else 0
            total += info[chain[j]][0] * (thresholds[j] - t_next)
        return -4 * total

    for cap in range(1, weight_bound + 1):
        for chain in chains:
            for thresholds in _descending_tuples(len(chain), cap):
                # deepest (smallest) chain member carries the largest threshold
                for l in _l_values(cap):
                    if max([abs(l)] + list(thresholds), default=0) != cap:
                        continue  # already scanned at a smaller cap
                    mu = evaluate(l, chain, thresholds)
                    if mu is not None and mu < 0:
                        lam = _package_oneps(l, list(zip(thresholds, chain)), q, form)
                        if hm_total(lam, a, fs, lin, w) != mu:
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
    from .higgs import decide_stability, verify_certificate

    verdict = decide_stability(a, fs, w, seed=seed)
    lin = build_linearization(w)
    out: dict = {"verdict": verdict.tag, "consistent": True, "mu": None,
                 "witness_field": "rational"}

    if verdict.tag == "Unstable":
        if not verify_certificate(verdict, a, fs, w):
            out["consistent"] = False
            out["reason"] = "certificate failed re-verification"
            return out
        cert = verdict.certificate
        if cert.kind == "isotropic_span":
            lam, predicted = destabilizing_oneps("shape1", cert.span, fs, lin, w)
        elif cert.coisotropic is not None:
            lam, predicted = destabilizing_oneps("shape2", cert.coisotropic, fs, lin, w)
        else:
            out["witness_field"] = "extension"
            return out
        mu = hm_total(lam, a, fs, lin, w)
        out["mu"] = predicted
        if mu is INFINITE or mu != predicted or mu >= 0:
            out["consistent"] = False
            out["reason"] = f"destabilizer weight {mu!r} != predicted {predicted}"
        return out

    if verdict.tag == "Stable":
        found = bounded_destabilizer_search(a, fs, w, weight_bound=bound)
        if found is not None:
            out["consistent"] = False
            out["mu"] = found[1]
            out["reason"] = "search found a negative weight for a Stable verdict"
        return out

    if verdict.tag == "StrictlySemistable":
        found = bounded_destabilizer_search(a, fs, w, weight_bound=bound)
        if found is not None:
            out["consistent"] = False
            out["mu"] = found[1]
            out["reason"] = "search found a negative weight for a semistable verdict"
            return out
        witness = verdict.certificate.witness if verdict.certificate else None
        if isinstance(witness, Subspace):
            vprime = orthocomplement(witness, BilinearForm(fs.q))
            lam, predicted = destabilizing_oneps("shape2", vprime, fs, lin, w)
            mu = hm_total(lam, a, fs, lin, w)
            out["mu"] = mu if mu is not INFINITE else None
            if mu is INFINITE or mu != 0 or predicted != 0:
                out["consistent"] = False
                out["reason"] = "zero-pardeg witness did not attain weight zero"
        else:
            out["witness_field"] = "extension"
        return out

    # Undetermined
    found = bounded_destabilizer_search(a, fs, w, weight_bound=bound)
    if found is not None:
        out["mu"] = found[1]
        out["resolved"] = "unstable_by_search"
    return out


def _descending_tuples(r: int, cap: int) -> list[tuple[int, ...]]:
    """Strictly decreasing r-tuples of thresholds in [1, cap]."""
    if r == 0:
        return [()]
    out = []

    def rec(prefix: list[int], lo: int):
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        for v in range(lo, 0, -1):
            rec(prefix + [v], v - 1)

    rec([], cap)
    return [t for t in out if len(t) == r]


def _l_values(cap: int) -> list[int]:
    vals = [0]
    for v in range(1, cap + 1):
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
