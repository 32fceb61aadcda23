import gc
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from isoflag.errors import InputError, InternalConsistencyError
from isoflag.flags import FlagSystem, IsotropicFlag, n_pardeg, random_flag
from isoflag.higgs import Certificate, ExtensionLine, decide_stability, line_oracle
from isoflag.hmgit import (
    INFINITE,
    OnePS,
    _candidate_isotropics,
    bounded_destabilizer_search,
    certificate_oneps,
    consistency_check,
    destabilizing_oneps,
    hm_base,
    hm_flag_total,
    hm_total,
)
from isoflag.io import oneps_from_json, oneps_to_json
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    isotropy_classify,
    orthocomplement,
)
from isoflag.randgen import (
    mixed_mode,
    random_flag_system,
    random_instance,
    random_isotropic_subspace,
    random_weight,
)
from isoflag.weights import Weight

from helpers import (completion_rows, flag_from_rows, gaussian_matrix, higgs_from_rows, higgs_rows,
                     hm_grassmannian, hyperbolic_basis, oneps_basis, oneps_from_rows, random_scalar,
                     pardeg_from_profile, random_vector, sc, so2_score, standard_basis, u_piece)
from test_pinned_outputs import CENSUS_SHAPES, CROSSCHECK_POOLS, _instances

W_Q2 = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)
W_Q4 = Weight.make(4, 4, [F(1, 8)] * 4,
                   [(F(1, 16), F(1, 32), F(-1, 32), F(-1, 16))] * 4)
# alpha[1] above 1/2
W_BAD_Q2 = Weight.make(2, 4, [F(3, 4)] + [F(1, 8)] * 3, [(F(1, 16), F(-1, 16))] * 4)


def vec(*entries):
    return tuple(sc(x) for x in entries)


def random_oneps(q: int, seed: int, bound: int = 3) -> OnePS:
    rng = random.Random(seed)
    h = q // 2
    top = sorted((rng.randint(0, bound) for _ in range(h)), reverse=True)
    m = tuple(top) + ((0,) if q % 2 else ()) + tuple(-x for x in reversed(top))
    basis = hyperbolic_basis(BilinearForm(q), rng.randint(0, 10 ** 6))
    return oneps_from_rows(rng.randint(-bound, bound), m, basis)


@dataclass(frozen=True)
class Filtration:
    """The map n -> (U_n, V_n) of a one-parameter subgroup, with its finitely
    many jumps listed explicitly.  Nothing in the package needs the whole
    filtration at once; the tests use it to check the pieces OnePS gives."""

    u_pieces: tuple[tuple[int, Subspace], ...]  # (n, U_n) at each jump and between
    v_pieces: tuple[tuple[int, Subspace], ...]
    lo: int
    hi: int

    def u_at(self, n: int) -> Subspace:
        return _piece_at(self.u_pieces, n, 2)

    def v_at(self, n: int) -> Subspace:
        q = self.v_pieces[0][1].ambient if self.v_pieces else 0
        return _piece_at(self.v_pieces, n, q)


def _piece_at(pieces: tuple[tuple[int, Subspace], ...], n: int, ambient: int) -> Subspace:
    if not pieces:
        return Subspace.full(ambient)
    if n < pieces[0][0]:
        return Subspace.full(ambient)
    last = Subspace.zero(ambient)
    for thr, piece in pieces:
        if n >= thr:
            last = piece
        else:
            break
    return last


def filtration_of(lam: OnePS) -> Filtration:
    """Materialize U_n and V_n at every integer in the active range."""
    lo = min(-abs(lam.l), lam.m[-1], 0)
    hi = max(abs(lam.l), lam.m[0], 0) + 1
    u_pieces = tuple((n, u_piece(lam, n)) for n in range(lo, hi + 1))
    v_pieces = tuple((n, lam.v_piece(n)) for n in range(lo, hi + 1))
    filt = Filtration(u_pieces, v_pieces, lo, hi)
    form = BilinearForm(lam.q)
    for n in range(lo, hi + 1):
        if filt.v_at(n) != orthocomplement(filt.v_at(1 - n), form):
            raise InternalConsistencyError("filtration violates perp-duality")
    return filt




def _xi_table(w, n):
    """(-N alpha^j, N alpha^j) per puncture, the rank-one twisting data."""
    return [(int(-n * a), int(n * a)) for a in w.alpha]


def _zeta_table(w, n):
    """zeta_i^j = -N beta_i^j, the flag twisting data."""
    return [[int(-n * b) for b in row] for row in w.beta]


def _build_linearization(w):
    """(N, N|alpha|, N beta) as hmgit.build_linearization computed N and
    N|alpha| before the weight owned them: the reference for Weight.n,
    n_abs_alpha and n_beta."""
    n = math.lcm(*(a.denominator for a in w.alpha),
                 *(b.denominator for row in w.beta for b in row))
    return n, int(n * sum(w.alpha)), tuple(tuple(int(n * b) for b in row) for row in w.beta)


class TestLinearization:
    def test_q2_example(self):
        assert W_Q2.n == 16
        assert W_Q2.n_abs_alpha == 8

    def test_q4_example(self):
        assert W_Q4.n == 32
        assert W_Q4.n_abs_alpha == 16
        assert W_Q4.n_beta == ((2, 1, -1, -2),) * 4

    def test_zero_weight(self):
        w = Weight.make(2, 3, [F(0)] * 3, [(F(0), F(0))] * 3)
        assert w.n == 1
        assert w.n_abs_alpha == 0
        assert n_pardeg(Subspace.from_vectors([vec(1, 0)], 2),
                        FlagSystem.standard(2, 3), w) == 0

    def test_matches_reference_build(self):
        # seeded weights of every admissible shape used elsewhere, both
        # regions, plus an alpha whose denominator carries a prime (7) that
        # no beta denominator has
        weights = [random_weight(q, s, seed, region)
                   for q in range(2, 9) for s in (3, 4, 6) for seed in range(3)
                   for region in ("W", "Wprime")]
        weights.append(Weight.make(4, 3, [F(1, 7), F(1, 8), F(1, 8)],
                                   [(F(1, 16), F(1, 32), F(-1, 32), F(-1, 16))] * 3))
        for w in weights:
            ref = _build_linearization(w)
            assert (w.n, w.n_abs_alpha, w.n_beta) == ref, w
            assert all(type(x) is int for x in (w.n, w.n_abs_alpha) + sum(w.n_beta, ()))
        assert weights[-1].n == 7 * 32

    def test_xi_zeta_sums_vanish(self):
        # the twisting tables N clears sum to zero, and N|alpha| is the
        # positive half of the rank-one table
        for seed in range(20):
            w = random_weight(seed % 4 + 2, seed % 3 + 3, seed)
            xi = _xi_table(w, w.n)
            assert sum(x[0] + x[1] for x in xi) == 0
            assert all(sum(row) == 0 for row in _zeta_table(w, w.n))
            assert w.n_abs_alpha == sum(x[1] for x in xi)
            assert isinstance(w.n_abs_alpha, int)

    def test_n_pardeg_matches_profile_reference(self):
        # N pardeg through pardeg_subspace against the integer sums over the
        # -N beta table, on isotropic and on arbitrary subspaces
        for seed in range(24):
            q, s = seed % 5 + 2, seed % 3 + 3
            w = random_weight(q, s, seed)
            fs = random_flag_system(q, s, seed)
            rng = random.Random(seed)
            subs = [random_isotropic_subspace(q, k, seed) for k in range(q // 2 + 1)]
            subs += [Subspace.from_vectors(
                [tuple(random_scalar(rng) for _ in range(q)) for _ in range(k)], q)
                for k in range(q + 1)]
            for sub in subs:
                value = n_pardeg(sub, fs, w)
                assert isinstance(value, int)
                assert value == _profile_n_pardeg(w, sub, fs), (seed, sub.dim)


class TestFiltration:
    def test_trivial(self):
        lam = OnePS.trivial(3)
        filt = filtration_of(lam)
        assert filt.v_at(0).dim == 3 and filt.v_at(1).dim == 0

    def test_q4_jumps(self):
        lam = oneps_from_rows(1, (2, 0, 0, -2), standard_basis(4))
        filt = filtration_of(lam)
        assert filt.v_at(-2).dim == 4
        assert filt.v_at(-1).dim == 3 and filt.v_at(0).dim == 3
        assert filt.v_at(1).dim == 1 and filt.v_at(2).dim == 1
        assert filt.v_at(3).dim == 0

    def test_so2_side(self):
        lam = oneps_from_rows(1, (1, -1), standard_basis(2))
        filt = filtration_of(lam)
        assert filt.u_at(-1).dim == 2
        assert filt.u_at(0).dim == 1 and filt.u_at(1).dim == 1
        assert filt.u_at(2).dim == 0

    def test_perp_duality_random(self):
        form_cache = {}
        for seed in range(40):
            q = seed % 5 + 2
            lam = random_oneps(q, seed)
            filt = filtration_of(lam)  # raises internally if duality fails
            form = form_cache.setdefault(q, BilinearForm(q))
            for n in range(-3, 4):
                assert filt.v_at(n) == orthocomplement(filt.v_at(1 - n), form)

    def test_rejects_bad_weights(self):
        with pytest.raises(InputError):
            oneps_from_rows(0, (0, 1), standard_basis(2))
        with pytest.raises(InputError):
            oneps_from_rows(0, (1, 0), standard_basis(2))


class TestIntegerOnePS:
    """A subgroup is held as its eigenbasis over the least common
    denominator: the one written out and read back, and the one built from
    the Scalar rows, are the same subgroup, and the constructor runs the
    same checks whichever rows it is given."""

    @staticmethod
    def _twin(lam: OnePS) -> OnePS:
        return oneps_from_json(oneps_to_json(lam))

    def test_same_pieces_and_weights(self):
        rng = random.Random(31)
        for trial in range(40):
            q, s = rng.randint(2, 6), rng.randint(3, 5)
            a, fs, w = random_instance(q, s, trial, mode=mixed_mode(trial))
            lam = random_oneps(q, 200 + trial)
            twin = self._twin(lam)
            assert twin == lam and hash(twin) == hash(lam)
            basis = oneps_basis(lam)
            assert oneps_basis(twin) == basis
            for n in range(-4, 5):
                count = sum(1 for mi in lam.m if mi >= n)
                assert twin.v_piece(n) == Subspace.from_vectors(list(basis[:count]), q)
                assert twin.v_piece(n) == lam.v_piece(n)
                # kept per number of rows: the same object on every read
                assert twin.v_piece(n) is twin.v_piece(n)
            audits = [], []
            assert hm_total(twin, a, fs, w, audit=audits[0]) == \
                hm_total(lam, a, fs, w, audit=audits[1]), trial
            assert audits[0] == audits[1]

    @pytest.mark.parametrize("m,spoil,message", [
        ((0, 1, -1, 0), False, "weights must be non-increasing"),
        ((1, 1, 0, 0), False, "weights must be antisymmetric"),
        ((1, 0, 0, -1), True, "eigenbasis is not hyperbolic"),
    ])
    def test_same_rejections(self, m, spoil, message):
        basis = [list(row) for row in oneps_basis(random_oneps(4, 5))]
        if spoil:
            basis[0][0] = basis[0][0] + sc(F(7, 3))
        basis = tuple(tuple(row) for row in basis)
        rows, den = gaussian_matrix(list(basis))
        with pytest.raises(InputError) as scalar_error:
            oneps_from_rows(1, m, basis)
        with pytest.raises(InputError) as integer_error:
            OnePS(1, m, rows, den)
        assert str(scalar_error.value) == str(integer_error.value) == message

    @pytest.mark.parametrize("sign,den", [(0, 0), (-1, -1)],
                             ids=["zero-basis-over-0", "hyperbolic-over-minus-1"])
    def test_denominator_below_one_rejected(self, sign, den):
        # sign times the identity over den: the zero basis over 0 passed the
        # Gram check, and -I over -1 is hyperbolic
        rows = [([sign * (i == j) for j in range(4)], [0] * 4) for i in range(4)]
        with pytest.raises(InputError, match="eigenbasis denominator must be positive"):
            OnePS(1, (1, 0, 0, -1), rows, den)

    def test_imaginary_parts_checked(self):
        # a missing row, and a short or a long imaginary part of one row
        # (a short one used to raise IndexError, a long one to be cut by zip
        # and accepted)
        lam = random_oneps(4, 5)
        with pytest.raises(InputError, match="eigenbasis size does not match weight vector"):
            OnePS(lam.l, lam.m, lam.zi_rows[:3], lam.den)
        re, im = lam.zi_rows[1]
        for spoilt in (im[:3], im + (0,)):
            rows = list(lam.zi_rows)
            rows[1] = (re, spoilt)
            with pytest.raises(InputError, match="vector length does not match form dimension"):
                OnePS(lam.l, lam.m, rows, lam.den)

    def test_reduced_to_least_denominator(self):
        # the identity over 1 and the doubled identity over 2 are one
        # subgroup, so == and the hash are value equality
        least = OnePS(1, (1, -1), [([1, 0], [0, 0]), ([0, 1], [0, 0])], 1)
        doubled = OnePS(1, (1, -1), [([2, 0], [0, 0]), ([0, 2], [0, 0])], 2)
        assert doubled == least and hash(doubled) == hash(least)
        assert (doubled.zi_rows, doubled.den) == ((((1, 0), (0, 0)), ((0, 1), (0, 0))), 1)

    def test_destabilizer_round_trips_through_scalars(self):
        # the completion's D is the least common denominator of its rows
        a, fs, w = random_instance(4, 4, 9, "shared_flag")
        lam, _ = certificate_oneps(decide_stability(a, fs, w).certificate, fs, w)
        assert lam.den > 1
        assert lam == oneps_from_rows(lam.l, lam.m, oneps_basis(lam))


class TestGrassmannianWeight:
    def test_trivial(self):
        lam = OnePS.trivial(3)
        sub = Subspace.from_vectors([vec(1, 2, 3)], 3)
        assert hm_grassmannian(lam, sub, 1, 2) == 0

    def test_rank_two_examples(self):
        lam = oneps_from_rows(0, (1, -1), standard_basis(2))
        v1 = Subspace.from_vectors([vec(1, 0)], 2)
        v2 = Subspace.from_vectors([vec(0, 1)], 2)
        assert hm_grassmannian(lam, v1, 1, 1) == -2
        assert hm_grassmannian(lam, v2, 1, 1) == 2

    def test_dimension_precondition(self):
        lam = OnePS.trivial(2)
        with pytest.raises(InputError):
            hm_grassmannian(lam, Subspace.full(2), 1, 1)

    @pytest.mark.parametrize("l", range(-2, 3))
    def test_rank_one_factor(self, l):
        # a subspace of C^2 with q != 2 is weighed on the rank-one factor,
        # by both formulas, at every subspace of C^2 and twist m
        lam = OnePS(l, (0, 0, 0), Subspace.full(3).zi_rows, 1)
        lines = [vec(1, 0), vec(0, 1), vec(1, 1), (sc(1), sc(0, 1)), vec(2, -3)]
        subs = [(Subspace.zero(2), 0), (Subspace.full(2), 2)]
        subs += [(Subspace.from_vectors([v], 2), 1) for v in lines]
        for sub, i in subs:
            for m in (1, 2):
                hm_grassmannian(lam, sub, i, m)  # raises when the formulas disagree
        # at U = <u> the weight is hm_flag_total with every weight on C^q 0,
        # its rank-one summand: sum_n -2 xi_n = 2 N|alpha| sum_n (dim U_n -
        # 2 dim(U_n ^ U))
        _, fs, w = random_instance(3, 4, l + 2)
        u = Subspace.from_vectors([vec(1, 0)], 2)
        assert hm_flag_total(lam, fs, w) == 2 * w.n_abs_alpha * hm_grassmannian(lam, u, 1, 1)
        assert hm_grassmannian(lam, u, 1, 1) == -2 * l

    def test_two_formulas_random(self):
        rng = random.Random(0)
        done = 0
        while done < 120:
            q = rng.choice([2, 3, 4, 5, 6])
            lam = random_oneps(q, rng.randint(0, 10 ** 6))
            i = rng.randint(1, q)
            sub = Subspace.from_vectors(
                [random_vector(rng, q) for _ in range(i)], q)
            if sub.dim != i:
                continue
            hm_grassmannian(lam, sub, i, rng.randint(1, 3))  # asserts agreement
            done += 1


class TestBaseWeight:
    def test_trivial_always_finite(self):
        lam = OnePS.trivial(2)
        a = higgs_from_rows(2, 4, (vec(1, 2), vec(3, 4)))
        assert hm_base(lam, a) == 0

    def test_contained_row(self):
        lam = oneps_from_rows(1, (1, -1), standard_basis(2))
        a = higgs_from_rows(2, 3, (vec(5, 0),))
        assert hm_base(lam, a) == 0

    def test_escaping_row(self):
        lam = oneps_from_rows(1, (1, -1), standard_basis(2))
        a = higgs_from_rows(2, 3, (vec(0, 1),))
        assert hm_base(lam, a) is INFINITE


    def test_every_row_counts(self):
        lam = oneps_from_rows(1, (1, -1), standard_basis(2))
        assert hm_base(lam, higgs_from_rows(2, 4, (vec(5, 0), vec(2, 0)))) == 0
        assert hm_base(lam, higgs_from_rows(2, 4, (vec(5, 0), vec(0, 1)))) is INFINITE


def _reference_audit(lam, fs, w):
    """hm_flag_total's total and audit rows summed over lo <= n <= hi, from
    the references: U_n as a subspace of C^2 with its score (helpers.u_piece,
    so2_score), and N pardeg V_n as the jump sum of its profiles
    (helpers.pardeg_from_profile)."""
    lo = min(-abs(lam.l), lam.m[-1], 0)
    hi = max(abs(lam.l), lam.m[0], 0) + 1
    total, rows = 0, []
    for n in range(lo, hi + 1):
        un, vn = u_piece(lam, n), lam.v_piece(n)
        xi = so2_score(un, w.n_abs_alpha)
        v_score = sum(pardeg_from_profile(flag.profile(vn), row)
                      for flag, row in zip(fs.flags, w.n_beta))
        term = -2 * xi - 2 * v_score
        if xi or v_score:
            rows.append({"n": n, "u_dim": un.dim, "v_dim": vn.dim,
                         "xi": xi, "n_pardeg": v_score, "term": term})
        total += term
    return total, rows


class TestFlagTotal:
    def test_trivial(self):
        lam = OnePS.trivial(4)
        fs = FlagSystem.standard(4, 4)
        assert hm_flag_total(lam, fs, W_Q4) == 0
        # no summand to compute, and an invalid weight is still rejected
        with pytest.raises(InputError, match="invalid weight"):
            hm_flag_total(OnePS.trivial(2), FlagSystem.standard(2, 4), W_BAD_Q2)

    def test_shape2_value(self):
        fs = FlagSystem.standard(4, 4)
        e1 = Subspace.from_vectors([vec(1, 0, 0, 0)], 4)
        vprime = orthocomplement(e1, BilinearForm(4))
        lam, predicted = destabilizing_oneps("shape2", vprime, fs, W_Q4)
        assert predicted == -32
        assert hm_flag_total(lam, fs, W_Q4) == -32

    def test_shape1_value(self):
        fs = FlagSystem.standard(4, 4)
        e1 = Subspace.from_vectors([vec(1, 0, 0, 0)], 4)
        lam, predicted = destabilizing_oneps("shape1", e1, fs, W_Q4)
        assert predicted == -96
        assert hm_flag_total(lam, fs, W_Q4) == -96

    def test_matches_full_range(self):
        # the summands at n = lo (U = C^2, V = C^q) and n = hi (both 0) are
        # zero, so the sum over lo < n < hi gives the full-range total and
        # the same audit rows
        rng = random.Random(23)
        for trial in range(30):
            q, s = rng.randint(2, 6), rng.randint(3, 5)
            _, fs, w = random_instance(q, s, trial, mode=mixed_mode(trial))
            lam = random_oneps(q, 100 + trial)
            audit = []
            total = hm_flag_total(lam, fs, w, audit=audit)
            assert (total, audit) == _reference_audit(lam, fs, w), trial

    def test_audit_matches_references_on_crosscheck_pool(self):
        # the rank-one summand is read off l and N pardeg off echelon ends,
        # for l in -3..3 on a subgroup drawn per instance
        checked = 0
        for q, s, mixed, pool in CROSSCHECK_POOLS:
            for seed in range(pool):
                _, fs, w = random_instance(q, s, seed, mixed_mode(seed) if mixed else "generic")
                base = random_oneps(q, 300 + seed)
                for l in range(-3, 4):
                    lam = OnePS(l, base.m, base.zi_rows, base.den)
                    audit = []
                    total = hm_flag_total(lam, fs, w, audit=audit)
                    assert (total, audit) == _reference_audit(lam, fs, w), (q, s, seed, l)
                    checked += len(audit)
        assert checked > 1000


class TestTotalWeight:
    def test_additivity(self):
        rng = random.Random(14)
        for trial in range(40):
            q, s = rng.randint(2, 5), rng.randint(3, 5)
            a, fs, w = random_instance(q, s, trial, mode=mixed_mode(trial))
            lam = random_oneps(q, trial + 1, bound=2)
            total = hm_total(lam, a, fs, w)
            base = hm_base(lam, a)
            if base is INFINITE:
                assert total is INFINITE
            else:
                assert total == base + hm_flag_total(lam, fs, w)

    def test_infinite_absorbs(self):
        lam = oneps_from_rows(2, (1, -1), standard_basis(2))
        a = higgs_from_rows(2, 4, (vec(0, 1), vec(0, 1)))
        fs = FlagSystem.standard(2, 4)
        assert hm_total(lam, a, fs, W_Q2) is INFINITE

    @pytest.mark.parametrize("l", [1, 2])
    def test_invalid_weight_rejected(self, l):
        # l = 2 makes hm_base +inf before any degree is computed; the weight
        # is still checked
        a = higgs_from_rows(2, 4, (vec(1, 0), vec(1, 0)))
        fs = FlagSystem.standard(2, 4)
        lam = oneps_from_rows(l, (1, -1), standard_basis(2))
        assert (hm_base(lam, a) is INFINITE) == (l == 2)
        with pytest.raises(InputError, match="invalid weight"):
            hm_total(lam, a, fs, W_BAD_Q2)


class TestDestabilizingShapes:
    def test_shape2_full_space_predicts_zero(self):
        fs = FlagSystem.standard(4, 4)
        lam, predicted = destabilizing_oneps("shape2", Subspace.full(4), fs, W_Q4)
        assert predicted == 0
        assert all(x == 0 for x in lam.m)

    def test_wrong_isotropy_class(self):
        fs = FlagSystem.standard(2, 4)
        aniso = Subspace.from_vectors([vec(1, 1)], 2)
        with pytest.raises(InputError):
            destabilizing_oneps("shape1", aniso, fs, W_Q2)
        with pytest.raises(InputError):
            destabilizing_oneps("shape2", aniso, fs, W_Q2)

    @pytest.mark.parametrize("kind, vprime", [("shape1", Subspace.zero(2)),
                                              ("shape2", Subspace.full(2))])
    def test_invalid_weight_rejected(self, kind, vprime):
        with pytest.raises(InputError, match="invalid weight"):
            destabilizing_oneps(kind, vprime, FlagSystem.standard(2, 4), W_BAD_Q2)

    def test_identities_random(self):
        for trial in range(40):
            rng = random.Random(trial)
            q, s = rng.choice([2, 3, 4, 5, 6]), rng.choice([4, 5])
            w = random_weight(q, s, trial + 2)
            fs = random_flag_system(q, s, trial + 3)
            k = rng.randint(1, q // 2)
            iso = random_isotropic_subspace(q, k, trial + 5)
            rows = []
            for _ in range(s - 2):
                v = tuple(sc(0) for _ in range(q))
                for b in iso.rows:
                    c = random_scalar(rng, 2)
                    v = tuple(x + c * y for x, y in zip(v, b))
                rows.append(v)
            a = higgs_from_rows(q, s, rows)
            lam1, p1 = destabilizing_oneps("shape1", iso, fs, w)
            assert hm_total(lam1, a, fs, w) == p1
            co = orthocomplement(iso, BilinearForm(q))
            lam2, p2 = destabilizing_oneps("shape2", co, fs, w)
            assert hm_total(lam2, a, fs, w) == p2


def _classified_candidate_isotropics(a, fs):
    """_candidate_isotropics as it once was, with every flag piece sent
    through isotropy_classify.  Kept here as the reference for reading the
    pieces' radicals off the flag."""
    form = BilinearForm(a.q)
    span = a.span()
    span_perp = orthocomplement(span, form)
    pool = [span, span_perp]
    for flag in fs.flags:
        for i in range(1, fs.q):
            pool.append(flag.piece(i))
    extra = []
    for flag in fs.flags:
        for i in range(1, fs.q):
            extra.append(flag.intersect_piece(span_perp, i))
    isotropics = set()
    for member in pool + extra:
        if not member.dim:
            continue
        iso, radical, _ = isotropy_classify(member, form)
        target = member if iso else radical
        if target.dim:
            isotropics.add(target)
    return sorted(isotropics, key=lambda s_: (s_.dim, repr(s_.rows)))


class TestFlagPieceRadicals:
    def test_closed_form(self):
        for q in range(3, 9):
            form = BilinearForm(q)
            for seed in range(4):
                flag = random_flag(q, seed)
                for i in range(1, q):
                    iso, radical, _ = isotropy_classify(flag.piece(i), form)
                    assert iso == (2 * i <= q)
                    assert radical == flag.piece(min(i, q - i)), (q, seed, i)

    def test_candidates_match_classified_reference(self):
        # the crosscheck workload's shapes, in every mixed_mode mode: the
        # candidates are the reference's members inside T = span^perp
        modes = ("generic", "low_rank", "isotropic_span", "shared_flag")
        for q, s in ((3, 4), (3, 5), (4, 4), (4, 5), (4, 6)):
            for mode in modes:
                for seed in range(2):
                    a, fs, _ = random_instance(q, s, seed, mode=mode)
                    t_sub = a.span_perp()
                    assert _candidate_isotropics(a, fs) == \
                        [iso for iso in _classified_candidate_isotropics(a, fs)
                         if t_sub.contains_subspace(iso)], (q, s, mode, seed)


class TestBoundedSearch:
    def test_invalid_flag_rejected(self):
        bad = flag_from_rows((vec(1, F(1, 2)), vec(0, 1)))
        fs = FlagSystem((bad,) + FlagSystem.standard(2, 3).flags)
        a = higgs_from_rows(2, 4, (vec(1, 0), vec(0, 1)))
        with pytest.raises(InputError):
            bounded_destabilizer_search(a, fs, W_Q2)

    def test_stable_instance_finds_nothing(self):
        a = higgs_from_rows(2, 4, (vec(1, 0), vec(0, 1)))
        assert bounded_destabilizer_search(a, FlagSystem.standard(2, 4), W_Q2) is None

    def test_condition1_failure_found(self):
        a = higgs_from_rows(2, 4, (vec(1, 0), vec(1, 0)))
        found = bounded_destabilizer_search(a, FlagSystem.standard(2, 4), W_Q2)
        assert found is not None and found[1] < 0

    def test_positive_coisotropic_found(self):
        fs = FlagSystem.standard(4, 4)
        a = higgs_from_rows(4, 4, (vec(0, 1, 0, 0), vec(0, 0, 1, 0)))
        found = bounded_destabilizer_search(a, fs, W_Q4)
        assert found is not None
        lam, mu = found
        assert mu < 0
        assert hm_total(lam, a, fs, W_Q4) == mu

    def test_weight_outside_region_rejected(self):
        # a valid weight with alpha^j < |beta^j|: the search's lemma needs
        # the admissible region, as decide_stability does
        w = Weight.make(2, 4, [F(1, 32)] * 4, [(F(1, 16), F(-1, 16))] * 4)
        a = higgs_from_rows(2, 4, (vec(1, 0), vec(1, 0)))
        with pytest.raises(InputError, match="admissible region"):
            bounded_destabilizer_search(a, FlagSystem.standard(2, 4), w)

    def test_deterministic_first_hit(self):
        fs = FlagSystem.standard(4, 4)
        a = higgs_from_rows(4, 4, (vec(0, 1, 0, 0), vec(0, 0, 1, 0)))
        f1 = bounded_destabilizer_search(a, fs, W_Q4)
        f2 = bounded_destabilizer_search(a, fs, W_Q4)
        assert f1[1] == f2[1] and f1[0] == f2[0]

    def test_zero_orthocomplement_scans_nothing(self, monkeypatch):
        # rows spanning C^q leave T = span(A)^perp = 0: no candidate, and no
        # echelon of zero rows against any flag
        a, fs, w = random_instance(3, 5, 0)
        assert a.span_perp().dim == 0

        def refuse(*args):
            raise AssertionError("echelon taken with T = 0")

        monkeypatch.setattr(IsotropicFlag, "zi_echelon", refuse)
        assert _candidate_isotropics(a, fs) == []
        assert bounded_destabilizer_search(a, fs, w) is None

    def test_orthocomplement_classified_once(self, monkeypatch):
        # the bound stage, the line oracle's witness and the candidate scan
        # share T's isotropy_classify: it is classified, its result kept with
        # it, once, whether the Gram matrix has full rank mod p or not
        from isoflag import higgs, hmgit, linalg
        real = linalg.isotropy_classify
        classified = []

        def counting(y, form):
            if y._isotropy is None:
                classified.append(y)
            return real(y, form)

        for module in (higgs, hmgit, linalg):
            monkeypatch.setattr(module, "isotropy_classify", counting)
        checked = 0
        for seed in range(7):
            a, fs, w = random_instance(4, 4, seed)
            if consistency_check(a, fs, w)["verdict"] != "Stable" or a.span_perp().dim == 0:
                continue
            assert sum(1 for y in classified if y is a.span_perp()) == 1, seed
            checked += 1
        assert checked >= 3


class TestNoHitOffUnstable:
    """bounded_destabilizer_search's lemma: on a verdict that is not
    Unstable the search finds nothing, so consistency_check reports a hit
    there as an inconsistency."""

    def test_benchmark_pools_and_census(self):
        census = [(q, s, seed, mixed_mode(seed)) for q, s in CENSUS_SHAPES for seed in range(12)]
        # generic q4 s3 and q5 s3 hold StrictlySemistable verdicts, which the
        # pools and the census lack
        generic_s3 = [(q, 3, seed, "generic") for q in (4, 5) for seed in range(12)]
        cases = _instances() + census + generic_s3
        tags = Counter()
        for q, s, seed, mode in cases:
            a, fs, w = random_instance(q, s, seed, mode)
            tag = decide_stability(a, fs, w).tag
            tags[tag] += 1
            if tag != "Unstable":
                assert bounded_destabilizer_search(a, fs, w) is None, (q, s, seed, mode)
        assert tags["Stable"] and tags["StrictlySemistable"] and tags["Undetermined"], tags

    @pytest.mark.parametrize("args", [(6, 4, 0), (5, 5, 0)])
    def test_hit_is_an_inconsistency(self, args, monkeypatch):
        # an Undetermined (q6 s4) and a Stable (q5 s5) verdict with a forged hit
        a, fs, w = random_instance(*args)
        tag = decide_stability(a, fs, w).tag
        assert tag in ("Undetermined", "Stable")
        monkeypatch.setattr("isoflag.hmgit.bounded_destabilizer_search",
                            lambda *_: (None, -4))
        res = consistency_check(a, fs, w)
        assert res["verdict"] == tag and not res["consistent"] and res["mu"] == -4
        assert res["reason"] == f"search found a negative weight for a {tag} verdict"
        assert "resolved" not in res


class TestConsistency:
    def test_leaves_no_cyclic_garbage(self):
        # with the collector off, a decision and a check must free what they
        # built by reference counting alone (the line oracle's search stack
        # and the flags' cached echelons included), also when the search
        # raises mid-walk: T an isotropic line, walked flag by flag until
        # flag 1, whose integer basis is doubled (Gram 4J), rejects it
        a, fs, w = random_instance(6, 4, 0)
        line = random_isotropic_subspace(5, 1, 3)
        _, fs5, w5 = random_instance(5, 5, 0)
        flags = list(fs5.flags)
        flags[1] = IsotropicFlag([([2 * x for x in re], [2 * y for y in im])
                                  for re, im in flags[1].zi_rows], flags[1].den)
        fs5 = FlagSystem(tuple(flags))
        gc.collect()
        gc.disable()
        try:
            decide_stability(a, fs, w)
            assert gc.collect() == 0
            consistency_check(a, fs, w)
            assert gc.collect() == 0
            for _ in range(10):
                try:
                    line_oracle(line, fs5, w5)
                except InputError:
                    pass
                else:
                    raise AssertionError("the doubled flag was not rejected")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_examples(self):
        fs2 = FlagSystem.standard(2, 4)
        assert consistency_check(higgs_from_rows(2, 4, (vec(1, 0), vec(0, 1))), fs2, W_Q2)["consistent"]
        res = consistency_check(higgs_from_rows(2, 4, (vec(1, 0), vec(1, 0))), fs2, W_Q2)
        assert res["consistent"] and res["mu"] < 0

    def test_strictly_semistable_attains_zero(self):
        w3 = Weight.make(3, 4, [F(1, 8)] * 4, [(F(0), F(0), F(0))] * 4)
        fs = FlagSystem.standard(3, 4)
        a = higgs_from_rows(3, 4, (vec(0, 1, 0), vec(0, 1, 0)))
        res = consistency_check(a, fs, w3)
        assert res["verdict"] == "StrictlySemistable"
        assert res["consistent"] and res["mu"] == 0

    def test_random_batch(self):
        for trial in range(30):
            q = [2, 3][trial % 2]
            a, fs, w = random_instance(q, 4 + trial % 3, trial, mode=mixed_mode(trial))
            res = consistency_check(a, fs, w)
            assert res["consistent"], res


# ---------------------------------------------------------------------------
# the destabilizing shapes with a weight formula per shape, and the search
# as an enumeration of chains and threshold patterns, kept as references


def _profile_n_pardeg(w, sub, fs):
    """N pardeg(sub) in integers, summed puncture by puncture from the
    profiles against the -N beta table."""
    zeta = _zeta_table(w, w.n)
    total = 0
    for j, flag in enumerate(fs.flags):
        profile = flag.profile(sub)
        for i in range(1, len(profile)):
            jump = profile[i] - profile[i - 1]
            if jump:
                total -= zeta[j][i - 1] * jump
    return total


def _shape_formula_oneps(kind, vprime, fs, w):
    """destabilizing_oneps with its hand-built weight vector and its two
    per-shape weight formulas on V'."""
    form = BilinearForm(fs.q)
    if kind == "shape1":
        iso, _, _ = isotropy_classify(vprime, form)
        if not iso:
            raise InputError("shape1 needs an isotropic subspace")
        w_iso, l = vprime, 1
    else:
        w_iso = orthocomplement(vprime, form)
        iso, _, _ = isotropy_classify(w_iso, form)
        if not iso:
            raise InputError("shape2 needs a coisotropic subspace")
        l = 0
    basis = completion_rows(w_iso)
    k = w_iso.dim
    m = (1,) * k + (0,) * (fs.q - 2 * k) + (-1,) * k
    degree = _profile_n_pardeg(w, vprime, fs)
    if kind == "shape1":
        return oneps_from_rows(l, m, basis), -4 * (w.n_abs_alpha + degree)
    return oneps_from_rows(l, m, basis), -4 * degree


def _recursive_descending_tuples(r, cap):
    """Strictly decreasing r-tuples of thresholds in [1, cap]."""
    if r == 0:
        return [()]
    out = []

    def rec(prefix, lo):
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        for v in range(lo, 0, -1):
            rec(prefix + [v], v - 1)

    rec([], cap)
    return [t for t in out if len(t) == r]


def _l_values(top):
    vals = [0]
    for v in range(1, top + 1):
        vals.extend([v, -v])
    return vals


def _package_chain(l, weighted_chain, q):
    """The one-parameter subgroup with the given thresholds as weights on the
    completion of the chain's top member; weighted_chain pairs descending
    thresholds with ascending subspaces.  The eigenbasis is adapted to the
    top member only, so the filtration is the chain's when it has at most
    one link, as the search's first hit does (asserted by the test)."""
    ordered = sorted(weighted_chain, key=lambda t: -t[0])
    pieces = [p for _, p in ordered]
    thresholds = [t for t, _ in ordered]
    basis = completion_rows(pieces[-1] if pieces else Subspace.zero(q))
    k = pieces[-1].dim if pieces else 0
    m = [0] * q
    dims = [p.dim for p in pieces]
    for idx in range(k):
        level = next(li for li, d in enumerate(dims) if idx < d)
        m[idx] = thresholds[level]
        m[q - 1 - idx] = -thresholds[level]
    return oneps_from_rows(l, tuple(m), basis)


def _two_branch_search(a, fs, w, weight_bound):
    """bounded_destabilizer_search as an enumeration of every rank-one weight
    l and chain of at most two candidate isotropics with descending
    thresholds, the largest |weight| growing up to the bound, with the
    containment rule in two branches, rows checked one at a time and the
    closed form written inline."""
    form = BilinearForm(fs.q)
    isotropics = _candidate_isotropics(a, fs)
    rows = higgs_rows(a)
    rows_zero = all(all(x.is_zero() for x in r) for r in rows)
    info = {}
    for iso in isotropics:
        perp = orthocomplement(iso, form)
        info[iso] = (_profile_n_pardeg(w, iso, fs),
                     all(iso.contains(r) for r in rows),
                     all(perp.contains(r) for r in rows))
    chains = [[]] + [[iso] for iso in isotropics]
    for i1 in isotropics:
        for i2 in isotropics:
            if i1.dim < i2.dim and i2.contains_subspace(i1):
                chains.append([i1, i2])

    def evaluate(l, chain, thresholds):
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
            piece_idx = None
            for j in range(len(chain)):
                if thresholds[j] >= 1 - l:
                    piece_idx = j
            if piece_idx is not None and not info[chain[piece_idx]][2]:
                return None
        total = l * w.n_abs_alpha
        for j in range(len(chain)):
            t_next = thresholds[j + 1] if j + 1 < len(chain) else 0
            total += info[chain[j]][0] * (thresholds[j] - t_next)
        return -4 * total

    for cap in range(1, weight_bound + 1):
        for chain in chains:
            for thresholds in _recursive_descending_tuples(len(chain), cap):
                for l in _l_values(cap):
                    if max([abs(l)] + list(thresholds)) != cap:
                        continue
                    mu = evaluate(l, chain, thresholds)
                    if mu is not None and mu < 0:
                        return _package_chain(l, list(zip(thresholds, chain)), fs.q), mu
    return None


def _rank_one_piece(lam, n):
    """hm_grassmannian's own rank-one filtration piece, before it used
    helpers.u_piece."""
    weights = (abs(lam.l), -abs(lam.l))
    e1, e2 = standard_basis(2)
    ordered = (e1, e2) if lam.l >= 0 else (e2, e1)
    return Subspace.from_vectors([v for mi, v in zip(weights, ordered) if mi >= n], 2)


class TestChainReferences:
    def test_shapes_match_shape_formulas(self):
        done = {"shape1": 0, "shape2": 0}
        for trial in range(60):
            rng = random.Random(700 + trial)
            q, s = rng.choice([2, 3, 4, 5, 6]), rng.choice([3, 4, 5])
            w = random_weight(q, s, trial + 11)
            fs = random_flag_system(q, s, trial + 13)
            form = BilinearForm(q)
            iso = random_isotropic_subspace(q, rng.randint(1, q // 2), trial + 17)
            for kind, vprime in (("shape1", iso), ("shape2", orthocomplement(iso, form)),
                                 ("shape1", Subspace.zero(q)), ("shape2", Subspace.full(q))):
                lam, predicted = destabilizing_oneps(kind, vprime, fs, w)
                ref, ref_predicted = _shape_formula_oneps(kind, vprime, fs, w)
                # the search builds its subgroup from integers, the
                # reference from Scalars
                assert (lam, predicted) == (ref, ref_predicted), (trial, kind)
                done[kind] += 1
        assert done == {"shape1": 120, "shape2": 120}

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_search_first_hit_matches_reference(self, bound):
        hits = 0
        for q in (2, 3, 4):
            for s in (3, 4, 5):
                for seed in range(10):
                    a, fs, w = random_instance(q, s, seed, mode=mixed_mode(seed))
                    found = bounded_destabilizer_search(a, fs, w)
                    ref = _two_branch_search(a, fs, w, bound)
                    if ref is None:
                        assert found is None, (q, s, seed)
                        continue
                    hits += 1
                    (lam, mu), (ref_lam, ref_mu) = found, ref
                    # the lemma: the enumeration's first hit is the empty
                    # chain or one link at threshold 1, with l = 0 or 1
                    assert max(ref_lam.m) <= 1 and ref_lam.l in (0, 1), (q, s, seed)
                    assert (lam, mu) == (ref_lam, ref_mu), (q, s, seed)
        # the comparison covers hits, not only instances with nothing to find
        assert hits >= 10

    def test_rank_one_pieces(self):
        for l in range(-4, 5):
            lam = oneps_from_rows(l, (1, -1), standard_basis(2))
            for n in range(-6, 7):
                assert u_piece(lam, n) == _rank_one_piece(lam, n), (l, n)


class TestCertificateOneps:
    def test_extension_line_has_none(self):
        # a witness line over an extension field is never a rational
        # subspace, so the certificate carries no coisotropic V'
        line = ExtensionLine(2, base=vec(1, 0), twist=vec(0, 1), delta=sc(3))
        cert = Certificate("positive_coisotropic", witness=line, pardeg=F(1, 8))
        fs = FlagSystem.standard(2, 4)
        assert certificate_oneps(cert, fs, W_Q2) is None

    def test_shapes_by_certificate_kind(self):
        fs = FlagSystem.standard(4, 4)
        e1 = Subspace.from_vectors([vec(1, 0, 0, 0)], 4)
        co = orthocomplement(e1, BilinearForm(4))
        span_cert = Certificate("isotropic_span", span=e1)
        co_cert = Certificate("positive_coisotropic", witness=e1, coisotropic=co)
        assert certificate_oneps(span_cert, fs, W_Q4) == \
            destabilizing_oneps("shape1", e1, fs, W_Q4)
        assert certificate_oneps(co_cert, fs, W_Q4) == \
            destabilizing_oneps("shape2", co, fs, W_Q4)
