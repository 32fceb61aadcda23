import random
from fractions import Fraction as F

import pytest

from isoflag.errors import InputError
from isoflag.flags import (
    FlagSystem,
    IsotropicFlag,
    pardeg_from_profile,
    pardeg_subspace,
    random_flag,
    so2_score,
    validate_flag,
)
from isoflag.hmgit import build_linearization
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    invert_matrix,
    meet_join,
    orthocomplement,
    random_special_isometry,
    standard_basis,
)
from isoflag.randgen import random_flag_system, random_isotropic_subspace, random_weight
from isoflag.scalars import sc
from isoflag.weights import Weight, weight_stats

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
        flag = IsotropicFlag((vec(0, 1), vec(1, 0)))
        assert validate_flag(flag) == []

    def test_bad_gram(self):
        flag = IsotropicFlag((vec(1, F(1, 2)), vec(0, 1)))
        assert validate_flag(flag) != []

    def test_bad_gram_has_no_flag_coordinates(self):
        # invertible, but not hyperbolic: J B^T J is not its inverse, so
        # anything read in flag coordinates must refuse instead of guessing
        flag = IsotropicFlag((vec(1, F(1, 2)), vec(0, 1)))
        line = Subspace.from_vectors([vec(1, 1)], 2)
        with pytest.raises(InputError):
            flag.profile(line)
        with pytest.raises(InputError):
            flag.intersect_piece(line, 1)
        assert validate_flag(flag) != []

    def test_inverse_matches_elimination(self):
        for q in range(2, 9):
            for seed in range(6):
                flag = random_flag(q, seed)
                assert flag._inv() == invert_matrix(list(flag.basis)), (q, seed)

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
        assert flag.basis == tuple(standard_basis(3))

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
        from isoflag.randgen import random_vector
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
            m = random_special_isometry(q, trial + 7)
            assert pardeg_subspace(sub.transform(m), fs.transform(m), w) \
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
            vk = Subspace.from_vectors(list(flag.basis[k - 1:]), q)
            meet, _ = meet_join(vk, sub)
            total += (beta_row[k - 1] - prev) * meet.dim
            prev = beta_row[k - 1]
        return total

    def test_q2_single_puncture_both_flags(self):
        beta_row = (F(1, 16), F(-1, 16))
        for flag in (IsotropicFlag.standard(2), IsotropicFlag((vec(0, 1), vec(1, 0)))):
            lattice = [
                Subspace.zero(2),
                Subspace.from_vectors([flag.basis[0]], 2),
                Subspace.from_vectors([flag.basis[1]], 2),
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
    def test_four_legal_inputs(self):
        w = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)
        n_abs_alpha = build_linearization(w).n_abs_alpha  # N = 16, |alpha| = 1/2
        assert n_abs_alpha == 8
        assert so2_score(Subspace.full(2), n_abs_alpha) == 0
        assert so2_score(Subspace.zero(2), n_abs_alpha) == 0
        u = Subspace.from_vectors([vec(1, 0)], 2)
        uprime = Subspace.from_vectors([vec(0, 1)], 2)
        assert so2_score(u, n_abs_alpha) == 8
        assert so2_score(uprime, n_abs_alpha) == -8

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
        from isoflag.randgen import random_scalar, random_vector
        rng = random.Random(31)
        for trial in range(40):
            q = rng.randint(2, 7)
            flag = random_flag(q, trial)
            vectors = [random_vector(rng, q) for _ in range(rng.randint(0, q))]
            if trial % 2:
                # combinations of a few flag basis vectors meet the flag in
                # more than the generic dimension
                picks = rng.sample(flag.basis, rng.randint(1, q))
                vectors = [tuple(sum((random_scalar(rng, 3) * w[t] for w in picks), sc(0))
                                 for t in range(q))
                           for _ in range(rng.randint(1, len(picks)))]
            sub = Subspace.from_vectors(vectors, q)
            profile = flag.profile(sub)
            for i in range(q + 1):
                meet, _ = meet_join(sub, flag.piece(i))
                joined = Subspace.from_vectors(list(sub.rows) + list(flag.basis[:i]), q)
                assert profile[i] == meet.dim == sub.dim + i - joined.dim
                inter = flag.intersect_piece(sub, i)
                assert inter == meet and inter.dim == profile[i]
                assert sub.contains_subspace(inter)
                assert flag.piece(i).contains_subspace(inter)
