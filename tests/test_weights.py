import random
from fractions import Fraction as F

import pytest

from isoflag.errors import InputError
from isoflag.randgen import random_weight
from isoflag.weights import (
    Weight,
    compactness_criterion,
    correspondence_caveats,
    j_interval,
    j_interval_bounds,
    monodromy_and_toledo,
    region_membership,
    validate_weight,
    weight_stats,
)


def w_q2(alpha=F(1, 8), b=F(1, 16), s=4):
    return Weight.make(2, s, [alpha] * s, [(b, -b)] * s)


W_Q4 = Weight.make(4, 4, [F(1, 8)] * 4,
                   [(F(1, 16), F(1, 32), F(-1, 32), F(-1, 16))] * 4)


class TestValidate:
    def test_valid_example(self):
        assert validate_weight(w_q2()) == []

    def test_half_boundary_excluded(self):
        w = w_q2(b=F(1, 2))
        assert any("beta_i^j<1/2" in v for v in validate_weight(w))

    def test_increasing_rejected(self):
        w = Weight.make(2, 4, [F(1, 8)] * 4, [(F(-1, 16), F(1, 16))] * 4)
        assert any("non-increasing" in v for v in validate_weight(w))

    def test_antisymmetry(self):
        w = Weight.make(2, 3, [F(1, 8)] * 3, [(F(1, 16), F(1, 16))] * 3)
        assert any("antisymmetry" in v for v in validate_weight(w))

    def test_alpha_range(self):
        w = w_q2(alpha=F(3, 4))
        assert any("alpha" in v for v in validate_weight(w))


class TestValidatedOnce:
    def test_fresh_list_each_call(self):
        w = w_q2(alpha=F(3, 4))
        first = validate_weight(w)
        first.clear()
        assert validate_weight(w) != [] and validate_weight(w) is not validate_weight(w)

    def test_invalid_weight_still_refused_every_time(self):
        w = w_q2(alpha=F(3, 4))
        for _ in range(2):
            with pytest.raises(InputError):
                weight_stats(w)

    def test_region_membership_kept_and_checked(self):
        # crosscheck checks its inputs twice; the region is computed once,
        # and an invalid weight is refused on every call
        w = w_q2()
        assert region_membership(w) is region_membership(w)
        w = w_q2(alpha=F(3, 4))
        for _ in range(2):
            with pytest.raises(InputError):
                region_membership(w)

    @pytest.mark.parametrize("command,q,s,seed", [("decide", 6, 6, 0),
                                                  ("crosscheck", 4, 5, 0)])
    def test_check_runs_once_per_weight_in_a_cli_call(self, monkeypatch, tmp_path,
                                                      command, q, s, seed):
        # every pardeg, N pardeg and stats lookup of the call asks for the
        # weight's validity; the constraint loop runs for the one parsed weight
        from isoflag import weights
        from isoflag.cli import main
        from isoflag.io import InstanceFile, serialize_instance
        from isoflag.randgen import mixed_mode, random_instance

        a, fs, w = random_instance(q, s, seed, mixed_mode(seed))
        path = tmp_path / "x.instance.json"
        path.write_text(serialize_instance(InstanceFile(w, fs, a, seed=seed)))
        real_check, real_require = weights._check_weight, weights.require_valid
        checked, required = [], []

        def counting_check(w_):
            checked.append(id(w_))
            return real_check(w_)

        def counting_require(w_):
            required.append(id(w_))
            return real_require(w_)

        monkeypatch.setattr(weights, "_check_weight", counting_check)
        for module in ("flags", "higgs", "weights"):
            monkeypatch.setattr(f"isoflag.{module}.require_valid", counting_require)
        assert main([command, str(path)]) in (0, 1, 2, 3)
        assert len(checked) == len(set(checked)) == 1
        assert len(required) > 1 and set(required) == set(checked)


class TestStats:
    def test_alpha_sum(self):
        assert weight_stats(w_q2()).abs_alpha == F(1, 2)

    def test_zero_beta(self):
        w = Weight.make(2, 4, [F(1, 8)] * 4, [(F(0), F(0))] * 4)
        st = weight_stats(w)
        assert st.abs_beta == 0 and st.abs_beta1 == 0

    def test_q4_sums(self):
        st = weight_stats(W_Q4)
        assert st.per_puncture_abs_beta[0] == F(3, 32)
        assert st.abs_beta == F(3, 8)
        assert st.abs_beta1 == F(1, 4)

    def test_invalid_weight_refused(self):
        with pytest.raises(InputError):
            weight_stats(w_q2(b=F(1, 2)))

    def test_beta1_at_most_beta(self):
        for seed in range(40):
            w = random_weight(seed % 5 + 2, seed % 3 + 3, seed)
            st = weight_stats(w)
            assert 0 <= st.abs_beta1 <= st.abs_beta


class TestRegions:
    def test_example_in_both(self):
        m = region_membership(w_q2())
        assert m.in_w and m.in_w_prime

    def test_alpha_too_small(self):
        m = region_membership(w_q2(alpha=F(1, 32)))
        assert not m.in_w

    def test_zero_beta_ties(self):
        w = Weight.make(2, 4, [F(1, 8)] * 4, [(F(0), F(0))] * 4)
        m = region_membership(w)
        assert m.in_w and not m.in_w_prime


class TestJInterval:
    def test_example(self):
        res = j_interval_bounds(F(1, 2), F(1, 4))
        assert (res.lower, res.upper) == (F(-9, 8), F(-1, 2))
        assert res.contained_integer == -1

    def test_zero_alpha(self):
        res = j_interval_bounds(F(0), F(1, 8))
        assert res.lower >= -1 and res.contained_integer is None

    def test_large_alpha(self):
        res = j_interval_bounds(F(3, 2), F(0))
        assert (res.lower, res.upper) == (F(-7, 4), F(-3, 2))
        assert res.contained_integer is None

    def test_weight_entry_point(self):
        res = j_interval(w_q2())
        assert res.contained_integer == -1

    def test_contained_implies_minus_one(self):
        # one-directional invariant, unrestricted weights
        rng = random.Random(0)
        for _ in range(2000):
            aa = F(rng.randint(0, 64), rng.randint(1, 32))
            bb = F(rng.randint(0, 64), rng.randint(1, 32))
            res = j_interval_bounds(aa, bb)
            if res.contained_integer is not None:
                assert res.contained_integer == -1
                assert 0 < aa < 1


class TestCompactness:
    def test_example_true(self):
        res = compactness_criterion(w_q2(), -1)
        assert res.eta_forced_zero and res.failing_condition is None

    def test_alpha_equal_beta1_fails_first(self):
        w = w_q2(alpha=F(1, 16), b=F(1, 16))
        res = compactness_criterion(w, -1)
        assert not res.eta_forced_zero and "(1)" in res.failing_condition

    def test_degree_minus_two_fails_third(self):
        res = compactness_criterion(w_q2(), -2)
        assert not res.eta_forced_zero and "(3)" in res.failing_condition

    def test_region_implies_compactness(self):
        for seed in range(60):
            w = random_weight(seed % 5 + 2, seed % 4 + 3, seed)
            assert region_membership(w).in_w
            assert compactness_criterion(w, -1).eta_forced_zero


class TestMonodromy:
    def test_phases_example(self):
        mono = monodromy_and_toledo(w_q2(), -1)
        assert mono.phases[0] == (F(1, 8), F(-1, 8), F(1, 16), F(-1, 16))
        assert mono.all_unit_modulus

    def test_toledo(self):
        assert monodromy_and_toledo(w_q2(), -1).toledo == F(-1, 2)
        zero = Weight.make(2, 3, [F(0)] * 3, [(F(0), F(0))] * 3)
        mono = monodromy_and_toledo(zero, 0)
        assert mono.toledo == 0
        assert all(p == 0 for row in mono.phases for p in row)

    def test_phase_window_and_beta_block_sum(self):
        for seed in range(40):
            w = random_weight(seed % 4 + 2, seed % 3 + 3, seed)
            mono = monodromy_and_toledo(w, -1)
            for row in mono.phases:
                assert all(F(-1, 2) < p <= F(1, 2) for p in row)
                assert sum(row[2:], F(0)) == 0


class TestCaveats:
    def test_boundary_alpha_flagged_not_forbidden(self):
        w = w_q2(alpha=F(1, 2), b=F(1, 16))
        assert validate_weight(w) == []
        notes = correspondence_caveats(w)
        assert any("1/2" in n for n in notes)

    def test_alpha_meets_beta(self):
        w = w_q2(alpha=F(1, 16), b=F(1, 16))
        assert any("equals" in n for n in correspondence_caveats(w))
