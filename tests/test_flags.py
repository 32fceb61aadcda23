import math
import random
from fractions import Fraction as F
from math import gcd

import pytest

from isoflag.cli import main
from isoflag.errors import InputError, InternalConsistencyError
from isoflag.flags import (
    FlagSystem,
    IsotropicFlag,
    pardeg_subspace,
    random_flag,
    validate_flag,
)
import isoflag.flags as flags_mod
from isoflag.hmgit import OnePS, hm_flag_total
import isoflag.linalg as linalg_mod
from isoflag.io import InstanceFile, serialize_instance
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    invert_matrix,
    isotropy_classify,
    meet_join,
    orthocomplement,
)
from isoflag.higgs import decide_stability
from isoflag.randgen import (
    mixed_mode,
    random_flag_system,
    random_instance,
    random_isotropic_subspace,
    random_weight,
)
from isoflag.weights import Weight, weight_stats

from helpers import (flag_basis, flag_from_rows, flag_inverse, gram, isometry_rows, mat_mul,
                     pardeg_from_profile, random_scalar, random_vector, sc, so2_score,
                     standard_basis, transform_flag, transform_flags, transform_subspace)

W_Q4 = Weight.make(4, 4, [F(1, 8)] * 4,
                   [(F(1, 16), F(1, 32), F(-1, 32), F(-1, 16))] * 4)


def vec(*entries):
    return tuple(sc(x) for x in entries)


class TestValidateFlag:
    def test_standard_ok(self):
        for q in range(2, 7):
            assert validate_flag(IsotropicFlag.standard(q)) == []

    def test_swapped_basis_still_a_flag(self):
        # both complete isotropic flags of C^2 are legitimate
        flag = flag_from_rows((vec(0, 1), vec(1, 0)))
        assert validate_flag(flag) == []

    def test_bad_gram(self):
        flag = flag_from_rows((vec(1, F(1, 2)), vec(0, 1)))
        assert validate_flag(flag) != []

    def test_bad_gram_has_no_flag_coordinates(self):
        # invertible, but not hyperbolic: the pairings with its rows are not
        # its flag coordinates, so anything read in flag coordinates must
        # refuse instead of guessing
        flag = flag_from_rows((vec(1, F(1, 2)), vec(0, 1)))
        line = Subspace.from_vectors([vec(1, 1)], 2)
        with pytest.raises(InputError):
            flag.profile(line)
        with pytest.raises(InputError):
            flag.intersect_piece(line, 1)
        assert validate_flag(flag) != []

    def test_one_wrong_off_diagonal_pair(self):
        # w_a + t w_b, with b neither a, nor a's partner, nor its own partner,
        # pairs wrongly with w_{q-1-b} alone: the Gram matrix differs from J
        # in one off-diagonal pair, above or below the diagonal in row order
        form = BilinearForm(8)
        seen = set()
        for q in range(3, 9):
            form = BilinearForm(q)
            basis = list(flag_basis(random_flag(q, q)))
            for a in range(q):
                for b in range(q):
                    if b in (a, q - 1 - a) or 2 * b == q - 1:
                        continue
                    spoiled = list(basis)
                    spoiled[a] = tuple(x + sc(F(1, 3), 1) * y for x, y in zip(basis[a], basis[b]))
                    gram_matrix = gram(form, spoiled)
                    wrong = {(i, j) for i in range(q) for j in range(q)
                             if gram_matrix[i][j] != (sc(1) if i + j == q - 1 else sc(0))}
                    assert wrong == {(a, q - 1 - b), (q - 1 - b, a)}, (q, a, b)
                    seen.add(a < q - 1 - b)
                    assert validate_flag(flag_from_rows(spoiled)) == \
                        ["adapted basis Gram matrix is not the split form"], (q, a, b)
        assert seen == {True, False}

    def test_inverse_matches_elimination(self):
        for q in range(2, 9):
            for seed in range(6):
                flag = random_flag(q, seed)
                assert flag_inverse(flag) == invert_matrix(list(flag_basis(flag))), (q, seed)

    def test_perp_duality_of_pieces(self):
        form = BilinearForm(5)
        flag = random_flag(5, 3)
        for i in range(6):
            assert orthocomplement(flag.piece(i), form) == flag.piece(5 - i)


class TestRandomFlag:
    def test_always_valid(self):
        for seed in range(30):
            assert validate_flag(random_flag(4, seed)) == []

    def test_seed_zero_standard(self):
        flag = random_flag(3, 0)
        assert flag_basis(flag) == tuple(standard_basis(3))

    def test_distinctness_across_seeds(self):
        first_pieces = {random_flag(4, seed).piece(1) for seed in range(100)}
        assert len(first_pieces) > 50


class TestPardeg:
    def test_first_basis_line(self):
        fs = FlagSystem.standard(4, 4)
        line = Subspace.from_vectors([vec(1, 0, 0, 0)], 4)
        assert pardeg_subspace(line, fs, W_Q4) == F(1, 4)

    def test_full_space_zero(self):
        for seed in range(10):
            q, s = seed % 4 + 2, seed % 3 + 3
            fs = random_flag_system(q, s, seed)
            w = random_weight(q, s, seed + 1)
            assert pardeg_subspace(Subspace.full(q), fs, w) == 0
            assert pardeg_subspace(Subspace.zero(q), fs, w) == 0

    def test_orthocomplement_pair(self):
        fs = FlagSystem.standard(4, 4)
        sub = Subspace.from_vectors(
            [vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0)], 4)
        assert pardeg_subspace(sub, fs, W_Q4) == F(1, 4)

    def test_bounded_by_abs_beta(self):
        from isoflag.weights import weight_stats
        rng = random.Random(9)
        for trial in range(50):
            q, s = rng.randint(2, 6), rng.randint(3, 6)
            fs = random_flag_system(q, s, trial)
            w = random_weight(q, s, trial + 2)
            sub = Subspace.from_vectors(
                [random_vector(rng, q) for _ in range(rng.randint(1, q))], q)
            value = pardeg_subspace(sub, fs, w)
            assert abs(value) <= weight_stats(w).abs_beta

    def test_partial_sum_for_adapted_subspaces(self):
        fs = FlagSystem.standard(4, 4)
        for k in range(1, 5):
            sub = fs.flags[0].piece(k)
            expected = sum((sum(W_Q4.beta[j][:k], F(0)) for j in range(4)), F(0))
            assert pardeg_subspace(sub, fs, W_Q4) == expected

    def test_orbit_invariance(self):
        rng = random.Random(21)
        for trial in range(30):
            q, s = rng.randint(2, 6), rng.randint(3, 5)
            fs = random_flag_system(q, s, trial)
            w = random_weight(q, s, trial + 3)
            sub = random_isotropic_subspace(q, rng.randint(1, q // 2), trial + 5)
            m = isometry_rows(q, trial + 7)
            assert pardeg_subspace(transform_subspace(sub, m), transform_flags(fs, m), w) \
                == pardeg_subspace(sub, fs, w)


class TestConventionOracle:
    """The flag-side degree formula is confirmed against the reverse-flag
    evaluation: the adapted basis carries weights beta_1 >= ... >= beta_q, the
    reverse filtration is V_k = span(w_k, ..., w_q) with beta_k on V_k/V_{k+1},
    and its parabolic part is sum_k (beta_k - beta_{k-1}) dim(V_k ^ S) with
    beta_0 = 0.  The two evaluations agree on the isotropic lattice of C^2
    (both complete flags); they extend differently to anisotropic lines, which
    never enter any stability decision.
    """

    @staticmethod
    def _reverse_eval(flag, beta_row, sub):
        q = flag.q
        total = F(0)
        prev = F(0)
        for k in range(1, q + 1):
            vk = Subspace.from_vectors(list(flag_basis(flag)[k - 1:]), q)
            meet, _ = meet_join(vk, sub)
            total += (beta_row[k - 1] - prev) * meet.dim
            prev = beta_row[k - 1]
        return total

    def test_q2_single_puncture_both_flags(self):
        beta_row = (F(1, 16), F(-1, 16))
        for flag in (IsotropicFlag.standard(2), flag_from_rows((vec(0, 1), vec(1, 0)))):
            lattice = [
                Subspace.zero(2),
                flag.piece(1),
                Subspace.from_vectors([flag_basis(flag)[1]], 2),
                Subspace.full(2),
            ]
            for sub in lattice:
                forward = pardeg_from_profile(flag.profile(sub), beta_row)
                assert forward == self._reverse_eval(flag, beta_row, sub)

    def test_isotropic_agreement_higher_q(self):
        rng = random.Random(4)
        for trial in range(25):
            q = rng.choice([2, 4, 6])
            flag = random_flag(q, trial + 1)
            w = random_weight(q, 3, trial + 2)
            sub = random_isotropic_subspace(q, rng.randint(1, q // 2), trial + 3)
            # adapted subspaces agree between the conventions
            adapted = flag.piece(rng.randint(1, q))
            forward = pardeg_from_profile(flag.profile(adapted), w.beta[0])
            assert forward == self._reverse_eval(flag, w.beta[0], adapted)
            # and the forward value of any isotropic subspace matches its perp
            perp = orthocomplement(sub, BilinearForm(q))
            assert pardeg_from_profile(flag.profile(sub), w.beta[0]) == \
                pardeg_from_profile(flag.profile(perp), w.beta[0])


class TestSo2Score:
    """The rank-one score of the pieces of C^2 (helpers.so2_score, the
    reference), which hm_flag_total reads off l."""

    def test_four_legal_inputs(self):
        w = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)
        n_abs_alpha = w.n_abs_alpha  # N = 16, |alpha| = 1/2
        assert n_abs_alpha == 8
        assert so2_score(Subspace.full(2), n_abs_alpha) == 0
        assert so2_score(Subspace.zero(2), n_abs_alpha) == 0
        u = Subspace.from_vectors([vec(1, 0)], 2)
        uprime = Subspace.from_vectors([vec(0, 1)], 2)
        assert so2_score(u, n_abs_alpha) == 8
        assert so2_score(uprime, n_abs_alpha) == -8
        # U_0 = U_1 = U for l = 1 and U' for l = -1, and V_0 = C^2, V_1 = 0
        # score nothing: the audit holds the two rank-one scores alone
        for l, xi in ((1, 8), (-1, -8)):
            audit = []
            lam = OnePS(l, (0, 0), Subspace.full(2).zi_rows, 1)
            assert hm_flag_total(lam, FlagSystem.standard(2, 4), w, audit=audit) == -4 * xi
            assert [(row["n"], row["u_dim"], row["xi"]) for row in audit] == [(0, 1, xi), (1, 1, xi)]

    def test_spec_values_n32(self):
        w = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)
        n_abs_alpha = int(32 * weight_stats(w).abs_alpha)
        u = Subspace.from_vectors([vec(1, 0)], 2)
        assert so2_score(u, n_abs_alpha) == 16
        uprime = Subspace.from_vectors([vec(0, 1)], 2)
        assert so2_score(uprime, n_abs_alpha) == -16

    def test_generic_line_rejected(self):
        diag = Subspace.from_vectors([vec(1, 1)], 2)
        with pytest.raises(InputError):
            so2_score(diag, 8)


class TestProfiles:
    def test_profile_matches_meets(self):
        """Profiles and flag intersections against generic meets, and against
        the dimension formula dim(sub ^ F_i) = dim sub + i - dim(sub + F_i),
        which needs no meet at all."""
        rng = random.Random(31)
        for trial in range(40):
            q = rng.randint(2, 7)
            flag = random_flag(q, trial)
            vectors = [random_vector(rng, q) for _ in range(rng.randint(0, q))]
            if trial % 2:
                # combinations of a few flag basis vectors meet the flag in
                # more than the generic dimension
                picks = rng.sample(flag_basis(flag), rng.randint(1, q))
                vectors = [tuple(sum((random_scalar(rng, 3) * w[t] for w in picks), sc(0))
                                 for t in range(q))
                           for _ in range(rng.randint(1, len(picks)))]
            sub = Subspace.from_vectors(vectors, q)
            profile = flag.profile(sub)
            for i in range(q + 1):
                meet, _ = meet_join(sub, flag.piece(i))
                joined = Subspace.from_vectors(list(sub.rows) + list(flag_basis(flag)[:i]), q)
                assert profile[i] == meet.dim == sub.dim + i - joined.dim
                inter = flag.intersect_piece(sub, i)
                assert inter == meet and inter.dim == profile[i]
                assert sub.contains_subspace(inter)
                assert flag.piece(i).contains_subspace(inter)


class FractionEchelon:
    """The flag echelon as it was computed over Q(i): flag coordinates by a
    Fraction product with J B^T J, then the rref of the coordinates with the
    columns reversed.  The reference for the Gaussian-integer echelon."""

    def __init__(self, flag):
        q = flag.q
        self.flag = flag
        self.basis = list(flag_basis(flag))
        inv = [tuple(self.basis[q - 1 - j][q - 1 - i] for j in range(q)) for i in range(q)]
        assert mat_mul(self.basis, inv) == standard_basis(q)
        self.inv = inv

    def echelon(self, sub):
        q = self.flag.q
        coords = mat_mul(list(sub.rows), self.inv)
        red = Subspace.from_vectors([tuple(reversed(row)) for row in coords], q)
        return [tuple(reversed(row)) for row in red.rows], [q - 1 - c for c in red.pivots]

    def profile(self, sub):
        _, ends = self.echelon(sub)
        return tuple(sum(1 for e in ends if e < i) for i in range(self.flag.q + 1))

    def intersect_piece(self, sub, i):
        q = self.flag.q
        if i <= 0:
            return Subspace.zero(q)
        if i >= q or sub.dim == 0:
            return sub
        rows, ends = self.echelon(sub)
        inside = [row for row, e in zip(rows, ends) if e < i]
        return Subspace.from_vectors(mat_mul(inside, self.basis), q)


def _echelon_subspaces(flag, other, rng):
    """Zero, full, the pieces of the flag and of another flag, random
    subspaces of every dimension, and their intersections with each other
    and with the other flag's pieces."""
    q = flag.q
    subs = [Subspace.zero(q), Subspace.full(q)]
    subs += [flag.piece(i) for i in range(1, q)] + [other.piece(i) for i in range(1, q)]
    randoms = [Subspace.from_vectors([random_vector(rng, q) for _ in range(k)], q)
               for k in range(1, q + 1)]
    subs += randoms
    for k, sub in enumerate(randoms[:-1]):
        subs.append(meet_join(sub, randoms[-2 - k])[0])
        subs.append(meet_join(sub, other.piece(rng.randint(1, q - 1)))[0])
    return subs


def _zi_combination(coeffs, rows):
    """sum_k c_k rows[k] for Gaussian-integer coefficients (re, im)."""
    return linalg_mod._zi_row_times(tuple(zip(*coeffs)), rows)


def _check_echelon(flag, sub, echelon, pieces):
    """The echelon contract (IsotropicFlag, items 2 and 3): one nonzero
    primitive row per dimension of sub, the ends decreasing and each row's
    own line_end, and the last n rows spanning pieces[i] = sub ^ F_i for
    n = the number of ends below i."""
    rows, ends = echelon
    q = flag.q
    assert len(rows) == len(ends) == sub.dim
    assert ends == sorted(set(ends), reverse=True)
    # gcd 0 would mean a zero row
    assert all(gcd(*re, *im) == 1 for re, im in rows)
    assert [flag.line_end(row) for row in rows] == ends
    spans = {}
    for i in range(q + 1):
        n = sum(1 for e in ends if e < i)
        if n not in spans:
            spans[n] = Subspace.from_zi_rows(rows[len(rows) - n:], q)
        assert spans[n] == pieces[i], i


def _fraction_pieces(flag, sub):
    """sub ^ F_i for i = 0..q, intersected by the Fraction reference."""
    ref = FractionEchelon(flag)
    return [ref.intersect_piece(sub, i) for i in range(flag.q + 1)]


class TestIntegerEchelon:
    def test_matches_fraction_echelon(self):
        # seeded flags, and flags moved by an isometry, whose integer bases
        # carry larger denominators
        rng = random.Random(77)
        compared = dens = 0
        for q in range(2, 10):
            flags = [random_flag(q, 3 * q + seed) for seed in range(3)]
            flags.append(transform_flag(random_flag(q, q + 1), isometry_rows(q, q + 40)))
            for k, flag in enumerate(flags):
                other = random_flag(q, 5 * q + k + 1)
                dens += flag.den > 1
                ref = FractionEchelon(flag)
                for sub in _echelon_subspaces(flag, other, rng):
                    profile = flag.profile(sub)
                    assert profile == ref.profile(sub), (q, k)
                    pieces = [ref.intersect_piece(sub, i) for i in range(q + 1)]
                    _check_echelon(flag, sub, flag.echelon(sub), pieces)
                    assert [flag.intersect_piece(sub, i) for i in range(q + 1)] == pieces, (q, k)
                    compared += 1
        assert dens >= 16
        assert compared >= 700

    def test_inexact_division_raises(self, monkeypatch):
        # a pairing that is not linear in the row (shifted by 1) makes the
        # scan's division by the previous pivot's pairing inexact, which
        # must be an error, not a floored echelon
        real = flags_mod._zi_pair

        def shifted(x, y):
            re, im = real(x, y)
            return re + 1, im

        for q in range(3, 6):
            flag = random_flag(q, q + 1)
            rows = [([int(i == j) + (i + j) % 3 for j in range(q)], [0] * q) for i in range(q)]
            flag.zi_echelon(rows)
            monkeypatch.setattr(flags_mod, "_zi_pair", shifted)
            with pytest.raises(InternalConsistencyError, match="inexact fraction-free division"):
                flag.zi_echelon(rows)
            monkeypatch.undo()

    def test_skipped_coordinates(self):
        # a subspace inside F_m of the same flag is zero at the flag
        # coordinates m..q-1, so the scan reads them and finds no pivot
        rng = random.Random(78)
        for q in range(3, 10):
            flag = transform_flag(random_flag(q, q + 2), isometry_rows(q, q + 50))
            basis = flag.zi_rows
            for m in range(1, q):
                for k in range(1, m + 1):
                    rows = [_zi_combination([(rng.randint(-3, 3), rng.randint(-3, 3))
                                             for _ in range(m)], basis[:m]) for _ in range(k)]
                    sub = Subspace.from_zi_rows(rows, q)
                    echelon = flag.zi_echelon(rows)
                    _check_echelon(flag, sub, echelon, _fraction_pieces(flag, sub))
                    assert echelon[1][0] < m, (q, m)

    def test_dependent_rows_dropped(self):
        # zero rows, repeated rows, multiples and combinations of the other
        # rows leave the echelon of the span: the rows they become are zero
        # and are dropped
        rng = random.Random(79)
        for q in range(2, 10):
            flag = random_flag(q, 4 * q + 1)
            for k in range(1, q + 1):
                sub = Subspace.from_vectors([random_vector(rng, q) for _ in range(k)], q)
                rows = list(sub.zi_rows)
                extra = [([0] * q, [0] * q), rows[-1],
                         ([-2 * x for x in rows[0][1]], [2 * x for x in rows[0][0]]),
                         _zi_combination([(rng.randint(-3, 3), rng.randint(-3, 3))
                                          for _ in rows], rows)]
                mixed = rows + extra
                rng.shuffle(mixed)
                echelon = flag.zi_echelon(mixed)
                _check_echelon(flag, sub, echelon, _fraction_pieces(flag, sub))
                assert echelon[1] == flag.zi_echelon(rows)[1], (q, k)
            assert flag.zi_echelon([([0] * q, [0] * q)] * 2) == ([], [])

    def test_rref_calls(self, monkeypatch):
        # a profile eliminates with no rref; an intersection canonicalises
        # its rows with exactly one
        calls = []
        real = linalg_mod.rref

        def counting(rows):
            calls.append(len(rows))
            return real(rows)

        rng = random.Random(3)
        flag = random_flag(6, 4)
        flag.piece(1)
        subs = [Subspace.from_vectors([random_vector(rng, 6) for _ in range(k)], 6)
                for k in range(1, 6)]
        monkeypatch.setattr(linalg_mod, "rref", counting)
        for sub in subs:
            calls.clear()
            flag.profile(sub)
            assert calls == []
            flag.intersect_piece(sub, 3)
            assert len(calls) == 1


def _radical_subspaces(q, seed):
    """T = C^q, an isotropic T, a degenerate T (an isotropic line plus two
    vectors orthogonal to it) and random T of every dimension."""
    rng = random.Random(seed)
    form = BilinearForm(q)
    line = random_isotropic_subspace(q, 1, seed)
    perp = list(orthocomplement(line, form).rows)
    extra = mat_mul([random_vector(rng, len(perp)) for _ in range(2)], perp)
    degenerate = Subspace.from_vectors(list(line.rows) + extra, q)
    _, radical, rank = isotropy_classify(degenerate, form)
    assert radical.dim and rank, (q, seed)
    return ([Subspace.full(q), random_isotropic_subspace(q, q // 2, seed), degenerate]
            + [Subspace.from_vectors([random_vector(rng, q) for _ in range(k)], q)
               for k in range(1, q)])


class TestGramRadicals:
    """IsotropicFlag item 4: dim rad(sub ^ F_i) is the number of echelon rows
    ending below i less the rank of their block of the echelon rows' Gram
    matrix, and a piece inside F_{q/2} needs no Gram matrix."""

    def test_rows_less_gram_rank(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("Gram matrix built for a piece inside F_{q/2}")

        checked = 0
        for q in range(3, 11):
            form = BilinearForm(q)
            for seed in range(3):
                flag = random_flag(q, 7 * q + seed)
                for sub in _radical_subspaces(q, seed):
                    expected = [isotropy_classify(flag.intersect_piece(sub, i), form)[1].dim
                                for i in range(q + 1)]
                    fresh = IsotropicFlag(flag.zi_rows, flag.den)
                    monkeypatch.setattr(flags_mod, "_zi_gram", refuse)
                    monkeypatch.setattr(flags_mod, "_fp_gram", refuse)
                    assert [fresh.radical_dim(sub, i) for i in range(q // 2 + 1)] == \
                        expected[:q // 2 + 1], (q, seed)
                    monkeypatch.undo()
                    assert [flag.radical_dim(sub, i) for i in range(q + 1)] == expected, (q, seed)
                    checked += 1
        assert checked == 3 * sum(q + 2 for q in range(3, 11))


def _fp(matrix):
    """The image of Gaussian-integer rows (re, im) under a + bi -> a + b r
    mod p."""
    return [[(a + b * linalg_mod._R) % linalg_mod._P for a, b in zip(re, im)]
            for re, im in matrix]


def _fresh(sub):
    """A copy of sub with nothing kept: no isotropy_classify."""
    return Subspace(sub.ambient, sub.den, sub.zi_rows, sub.pivots)


def _gram_answers(cases):
    """isotropy_classify of T = span(A)^perp and of each piece T ^ F_i^j,
    and every radical_dim(T, i), for each (q, s, seed, mode), on fresh flags
    and subspaces."""
    out = []
    for q, s, seed, mode in cases:
        form = BilinearForm(q)
        a, fs, _ = random_instance(q, s, seed, mode)
        t_sub = _fresh(a.span_perp())
        out.append(isotropy_classify(t_sub, form))
        for flag in fs.flags:
            flag = IsotropicFlag(flag.zi_rows, flag.den)
            out.append([flag.radical_dim(t_sub, i) for i in range(q + 1)])
            out += [isotropy_classify(_fresh(flag.intersect_piece(t_sub, i)), form)
                    for i in range(q + 1)]
    return out


class TestGramRanksModP:
    """The full-rank prefilter over F_p (linalg module docstring): full rank
    of phi(G) proves full rank of G, and every other outcome is decided by
    the exact elimination."""

    def test_constants(self):
        p, r = linalg_mod._P, linalg_mod._R
        assert p % 4 == 1 and (r * r + 1) % p == 0
        assert p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))

    def test_never_full_rank_on_singular_blocks(self):
        # an n x n block of rank k < n as the product of n x k and k x n
        # Gaussian-integer matrices, and the Gram matrix of n rows spanning
        # k < n dimensions
        rng = random.Random(37)

        def zi(span):
            return rng.randint(-span, span), rng.randint(-span, span)

        for trial in range(300):
            n = rng.randint(1, 6)
            k = rng.randrange(n)
            left = [[zi(9) for _ in range(k)] for _ in range(n)]
            right = [[zi(9) for _ in range(n)] for _ in range(k)]
            cols = [[row[c] for row in right] for c in range(n)]
            block = [([sum(x[0] * y[0] - x[1] * y[1] for x, y in zip(row, col)) for col in cols],
                      [sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(row, col)) for col in cols])
                     for row in left]
            assert not linalg_mod._fp_full_rank(_fp(block)), trial
            q = rng.randint(max(k, 1), 7)
            basis = [[zi(5 ** (trial % 4)) for _ in range(q)] for _ in range(k)]
            cols = [[row[c] for row in basis] for c in range(q)]
            rows = [([sum(c[0] * x[0] - c[1] * x[1] for c, x in zip(coeffs, col)) for col in cols],
                     [sum(c[0] * x[1] + c[1] * x[0] for c, x in zip(coeffs, col)) for col in cols])
                    for coeffs in ([zi(3) for _ in range(k)] for _ in range(n))]
            assert linalg_mod._fp_gram(rows) == _fp(linalg_mod._zi_gram(rows)), trial
            assert not linalg_mod._fp_full_rank(linalg_mod._fp_gram(rows)), trial

    def test_full_rank_mod_p_is_full_rank(self):
        rng = random.Random(41)
        full = 0
        for trial in range(200):
            n = rng.randint(1, 5)
            rows = [([rng.randint(-3, 3) for _ in range(n)], [rng.randint(-3, 3) for _ in range(n)])
                    for _ in range(n)]
            if linalg_mod._fp_full_rank(_fp(rows)):
                full += 1
                pivots = linalg_mod._zi_eliminate(rows, linalg_mod._zi_entry, range(n))[1]
                assert len(pivots) == n, trial
        assert full > 100

    def test_determinant_a_multiple_of_p(self):
        p = linalg_mod._P
        # the row (0, p, 0) pairs with itself to p^2, 0 mod p
        assert linalg_mod._zi_gram([((0, p, 0), (0, 0, 0))]) == [((p * p,), (0,))]
        assert linalg_mod._fp_gram([((0, p, 0), (0, 0, 0))]) == [[0]]
        # a canonical line whose stored row pairs with itself to p: singular
        # mod p, so it takes the exact path, which finds rank 1 and radical 0
        line = Subspace.from_zi_rows([((1, 1, (p - 1) // 2), (0, 0, 0))], 3)
        assert line.zi_rows == (((1, 1, (p - 1) // 2), (0, 0, 0)),)
        assert linalg_mod._fp_gram(line.zi_rows) == [[0]]
        iso, radical, rank = isotropy_classify(line, BilinearForm(3))
        assert (iso, radical, rank) == (False, Subspace.zero(3), 1)
        flag = IsotropicFlag.standard(3)
        assert [flag.radical_dim(line, i) for i in range(4)] == [0, 0, 0, 0]
        # a plane with Gram matrix diag(2, 2p), determinant 4p: the same, at
        # dimension 2
        plane = Subspace.from_zi_rows([((1, 0, 0, 1), (0, 0, 0, 0)),
                                       ((0, 1, p, 0), (0, 0, 0, 0))], 4)
        assert linalg_mod._zi_gram(plane.zi_rows) == [((2, 0), (0, 0)), ((0, 2 * p), (0, 0))]
        assert not linalg_mod._fp_full_rank(linalg_mod._fp_gram(plane.zi_rows))
        assert isotropy_classify(plane, BilinearForm(4)) == (False, Subspace.zero(4), 2)

    def test_prefilter_off_gives_the_same_answers(self, monkeypatch):
        from test_pinned_outputs import CENSUS_SHAPES, _instances

        cases = _instances() + [(q, s, seed, mixed_mode(seed))
                                for q, s in CENSUS_SHAPES for seed in range(12)]
        subspaces = [(q, seed, sub) for q in range(3, 11) for seed in range(3)
                     for sub in _radical_subspaces(q, seed)]

        def subspace_answers():
            out = []
            for q, seed, sub in subspaces:
                flag = random_flag(q, 7 * q + seed)
                out.append(isotropy_classify(_fresh(sub), BilinearForm(q)))
                out.append([flag.radical_dim(sub, i) for i in range(q + 1)])
            return out

        real = linalg_mod._fp_full_rank
        answers = []

        def recording(m):
            answers.append(real(m))
            return answers[-1]

        for module in (linalg_mod, flags_mod):
            monkeypatch.setattr(module, "_fp_full_rank", recording)
        expected = _gram_answers(cases), subspace_answers()
        assert answers.count(True) > 1000 and answers.count(False) > 100
        for module in (linalg_mod, flags_mod):
            monkeypatch.setattr(module, "_fp_full_rank", lambda m: False)
        assert (_gram_answers(cases), subspace_answers()) == expected

    def test_wide_decide_work(self, monkeypatch):
        # decide on the wide pool's q8 s4 seed 0 took 236 Bareiss steps
        # with every Gram rank exact; an exact Gram-block elimination runs
        # only for a block singular mod p
        steps = []
        real_step = linalg_mod._zi_step

        def counting(*args):
            steps.append(None)
            return real_step(*args)

        real_eliminate = flags_mod._zi_eliminate
        exact_blocks = []

        def eliminate(rows, read, positions, **kwargs):
            if read is linalg_mod._zi_entry:  # radical_dim's Gram block
                assert not linalg_mod._fp_full_rank(_fp(rows))
                exact_blocks.append(rows)
            return real_eliminate(rows, read, positions, **kwargs)

        real_gram = linalg_mod._zi_gram

        def gram_(rows):  # isotropy_classify's exact Gram matrix
            assert not linalg_mod._fp_full_rank(linalg_mod._fp_gram(rows))
            exact_blocks.append(rows)
            return real_gram(rows)

        monkeypatch.setattr(linalg_mod, "_zi_step", counting)
        monkeypatch.setattr(flags_mod, "_zi_eliminate", eliminate)
        monkeypatch.setattr(linalg_mod, "_zi_gram", gram_)
        a, fs, w = random_instance(8, 4, 0)
        assert decide_stability(a, fs, w).tag == "Undetermined"
        assert len(steps) <= 150
        assert exact_blocks


def _perturbed(flag):
    basis = [list(row) for row in flag_basis(flag)]
    basis[0][-1] = basis[0][-1] + sc(1)
    return flag_from_rows(basis)


def _doubled(flag):
    return IsotropicFlag([([2 * x for x in re], [2 * y for y in im]) for re, im in flag.zi_rows],
                         flag.den)


class TestInvalidFlags:
    """An adapted basis that is not hyperbolic is a data error everywhere."""

    @pytest.mark.parametrize("spoil", [_perturbed, _doubled])
    def test_library(self, spoil):
        for q in range(2, 7):
            flag = spoil(random_flag(q, q + 1))
            assert validate_flag(flag) == ["adapted basis Gram matrix is not the split form"]
            line = Subspace.from_vectors([random_vector(random.Random(q), q)], q)
            # a line's profile is read by line_end, which checks the basis too
            with pytest.raises(InputError):
                flag.profile(line)
            with pytest.raises(InputError):
                flag.intersect_piece(line, 1)
            with pytest.raises(InputError):
                flag.radical_dim(line, 1)

    @pytest.mark.parametrize("real,den", [([[0] * 3] * 3, 0), ([[-1, 0], [0, -1]], -1)],
                             ids=["zero-basis-over-0", "hyperbolic-over-minus-1"])
    def test_denominator_below_one_rejected(self, real, den):
        # -I over -1 is the identity, and hyperbolic, but would be written
        # "-1/-1"; the zero basis over 0 passed the Gram check
        with pytest.raises(InputError, match="flag basis denominator must be positive"):
            IsotropicFlag([(re, [0] * len(re)) for re in real], den)

    def test_doubled_gram_is_4j(self):
        flag = _doubled(random_flag(4, 2))
        gram_matrix = gram(BilinearForm(4), list(flag_basis(flag)))
        assert gram_matrix == [tuple(sc(4) if i + j == 3 else sc(0) for j in range(4))
                               for i in range(4)]

    @pytest.mark.parametrize("spoil", [_perturbed, _doubled])
    def test_cli(self, spoil, tmp_path, capsys):
        a, fs, w = random_instance(4, 4, 3)
        flags = list(fs.flags)
        flags[1] = spoil(flags[1])
        path = tmp_path / "bad.instance.json"
        path.write_text(serialize_instance(InstanceFile(w, FlagSystem(tuple(flags)), a)),
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 65
        out = capsys.readouterr().out
        assert "flag 2: adapted basis Gram matrix is not the split form" in out
        assert main(["decide", str(path)]) == 65
        assert "invalid flag" in capsys.readouterr().err


class TestLineEnd:
    """IsotropicFlag.line_end reads one row's end a flag coordinate at a
    time, one pairing each; zi_echelon's one end for the row is its
    reference."""

    def test_matches_echelon(self, monkeypatch):
        rng = random.Random(41)
        below_top = 0
        for q in range(2, 11):
            flags = [random_flag(q, 3 * q + seed) for seed in range(3)]
            flags.append(transform_flag(random_flag(q, q + 1), isometry_rows(q, q + 40)))
            for flag in flags:
                rows = [([rng.randint(-9, 9) for _ in range(q)],
                         [rng.randint(-9, 9) for _ in range(q)]) for _ in range(6)]
                # rows in each piece F_k, ending at k - 1: combinations of
                # the first k rows of B' whose k-th coefficient is nonzero
                for k in range(1, q + 1):
                    coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k - 1)]
                    coeffs.append(rng.choice([(1, 0), (0, 1), (2, -1), (-3, 0)]))
                    re, im = linalg_mod._zi_row_times(tuple(zip(*coeffs)), flag.zi_rows[:k])
                    assert flag.line_end((re, im)) == k - 1, (q, k)
                    rows.append((re, im))
                for row in rows:
                    if not (any(row[0]) or any(row[1])):
                        continue
                    end = flag.zi_echelon([row])[1][0]
                    below_top += end < q - 1
                    read = []
                    monkeypatch.setattr(flags_mod, "_zi_eliminate", _refuse)
                    monkeypatch.setattr(IsotropicFlag, "zi_echelon", _refuse)
                    monkeypatch.setattr(flags_mod, "_zi_pair", _recording(flag, read))
                    assert flag.line_end(row) == end, (q, row)
                    monkeypatch.undo()
                    # one pairing per flag coordinate, from the top to the end
                    assert read == list(range(q - 1, end - 1, -1)), (q, row)
        assert below_top >= 4 * sum(range(1, 10))

    def test_zero_row(self):
        for q in (2, 5):
            with pytest.raises(InternalConsistencyError):
                random_flag(q, 1).line_end(([0] * q, [0] * q))

    @pytest.mark.parametrize("spoil", [_perturbed, _doubled])
    def test_invalid_flag(self, spoil):
        for q in range(2, 7):
            flag = spoil(random_flag(q, q + 1))
            with pytest.raises(InputError, match="invalid flag"):
                flag.line_end(([1] * q, [0] * q))


class TestLineProfile:
    """A line's profile is read off its one end (line_end), and the
    subspace kept in the flag's one-slot cache stays there; zi_echelon's
    profile of the line is the reference."""

    def test_matches_echelon_profile(self, monkeypatch):
        rng = random.Random(43)
        ends = set()
        for q in range(3, 9):
            for seed in range(3):
                flag = random_flag(q, 5 * q + seed)
                lines = [Subspace.from_vectors([random_vector(rng, q)], q) for _ in range(4)]
                # a line inside F_1 (a multiple of w_1) and one of F_q that
                # is in no smaller piece (w_q has a nonzero coefficient)
                for k in (1, q):
                    coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k - 1)]
                    coeffs.append(rng.choice([(1, 0), (0, 1), (2, -1), (-3, 0)]))
                    row = linalg_mod._zi_row_times(tuple(zip(*coeffs)), flag.zi_rows[:k])
                    lines.append(Subspace.from_zi_rows([row], q))
                t_sub = Subspace.from_vectors([random_vector(rng, q) for _ in range(2)], q)
                flag.profile(t_sub)
                kept = flag._last
                for line in lines:
                    (end,) = flag.zi_echelon(list(line.zi_rows))[1]
                    ends.add((q, end))
                    monkeypatch.setattr(flags_mod, "_zi_eliminate", _refuse)
                    monkeypatch.setattr(IsotropicFlag, "zi_echelon", _refuse)
                    assert flag.profile(line) == tuple(int(end < i) for i in range(q + 1))
                    monkeypatch.undo()
                    assert flag._last is kept
        assert {(q, e) for q in range(3, 9) for e in (0, q - 1)} <= ends


def _refuse(*args, **kwargs):
    raise AssertionError("line_end took an echelon or an elimination")


def _recording(flag, read):
    """flags._zi_pair, appending each flag coordinate of flag it reads: the
    pairing with basis row w'_i is coordinate q-1-i."""
    real = flags_mod._zi_pair

    def pairing(row, w):
        read.append(flag.q - 1 - flag.zi_rows.index(w))
        return real(row, w)

    return pairing
