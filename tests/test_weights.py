import math
import random
from fractions import Fraction as F

import pytest

from isoflag.errors import InputError
from isoflag.randgen import random_instance, random_weight
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

    def test_unknown_region_rejected(self):
        # a misspelt region used to draw a weight in W
        with pytest.raises(InputError, match="unknown region 'WPrime'"):
            random_weight(4, 4, 1, region="WPrime")
        with pytest.raises(InputError, match="unknown region 'bogus'"):
            random_instance(4, 4, 1, region="bogus")


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


# ---------------------------------------------------------------------------
# the checks in N units against the Fraction checks they replaced

_HALF = F(1, 2)


def _fraction_check_weight(w):
    """The violations as validate_weight computed them in Fractions."""
    violations = []
    if w.q < 2:
        violations.append("q must be at least 2")
    if w.s < 3:
        violations.append("s must be at least 3")
    if len(w.alpha) != w.s:
        violations.append(f"alpha must have s={w.s} entries, got {len(w.alpha)}")
        return violations
    if len(w.beta) != w.s or any(len(row) != w.q for row in w.beta):
        violations.append("beta must be an s x q array")
        return violations
    for j in range(w.s):
        if not (0 <= w.alpha[j] <= _HALF):
            violations.append(f"alpha[{j + 1}] not in [0, 1/2]")
        row = w.beta[j]
        for i in range(w.q):
            if row[i] >= _HALF:
                violations.append(f"beta_i^j<1/2 fails at (i={i + 1}, j={j + 1})")
            if i + 1 < w.q and row[i] < row[i + 1]:
                violations.append(f"non-increasing fails at (i={i + 1}, j={j + 1})")
        for i in range(w.q):
            if row[i] + row[w.q - 1 - i] != 0:
                violations.append(f"antisymmetry fails at (i={i + 1}, j={j + 1})")
                break
    return violations


def _fraction_stats(w):
    per = tuple(sum((b for b in row if b >= 0), F(0)) for row in w.beta)
    return (sum(w.alpha, F(0)), sum(per, F(0)), sum((row[0] for row in w.beta), F(0)), per)


def _fraction_membership(w):
    """(in_w, in_w_prime) as region_membership computed them in Fractions."""
    abs_alpha, abs_beta, _, per = _fraction_stats(w)
    in_w = all(w.alpha[j] > per[j] for j in range(w.s)) and abs_alpha + abs_beta < 1
    strict = all(all(row[i] > row[i + 1] for i in range(w.q - 1)) for row in w.beta)
    return in_w, in_w and strict


_PRIMES = [p for p in range(3, 400) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _coprime_weight(rng, q, s):
    """A weight whose entries have pairwise coprime denominators (an
    antisymmetric pair shares one), so that N is their product: each
    positive beta_i^j and each alpha^j is c / p with p a fresh prime, alpha^j
    just above |beta^j| (at or below it one time in twenty), so that region
    membership falls both ways."""
    primes = iter(rng.sample(_PRIMES[8:], s * (q // 2 + 1)))
    scale = rng.choice([1, 2, 3, 4])
    alpha, beta = [], []
    for _ in range(s):
        top = sorted((F(rng.randint(1, scale), next(primes)) for _ in range(q // 2)),
                     reverse=True)
        beta.append(tuple(top + [F(0)] * (q % 2) + [-b for b in reversed(top)]))
        p = next(primes)
        bump = 0 if rng.random() < 0.05 else rng.randint(1, scale)
        c = math.floor(sum(top, F(0)) * p) + bump
        alpha.append(min(F(c, p), _HALF))
    return Weight(q, s, tuple(alpha), tuple(beta))


def _replace(w, alpha=None, beta=None):
    return Weight(w.q, w.s, tuple(alpha or w.alpha), tuple(beta or w.beta))


def _set_beta(w, j, i, value):
    """w with beta_{i+1}^{j+1} = value and its antisymmetric partner -value."""
    row = list(w.beta[j])
    row[i], row[w.q - 1 - i] = value, -value
    return _replace(w, beta=w.beta[:j] + (tuple(row),) + w.beta[j + 1:])


def _boundaries(w, rng):
    """w moved onto and across the boundary of each constraint in turn."""
    q, s = w.q, w.s
    j = rng.randrange(s)
    row = w.beta[j]
    top = sum((b for b in row if b > 0), F(0))
    others = sum(w.alpha, F(0)) - w.alpha[j] + sum(
        (b for r in w.beta for b in r if b > 0), F(0))
    out = []
    for a in (F(0), _HALF, F(-1, 7), F(1, 2) + F(1, 997), top,
              max(F(1) - others, F(0))):  # the last gives |alpha| + |beta| = 1
        out.append(_replace(w, alpha=w.alpha[:j] + (a,) + w.alpha[j + 1:]))
    out.append(_set_beta(w, j, 0, _HALF))
    out.append(_set_beta(w, j, 0, _HALF + F(1, 3)))
    if q >= 4:
        out.append(_set_beta(w, j, 1, row[0]))          # beta_1 = beta_2
        out.append(_set_beta(w, j, 1, row[0] + F(1, 5)))  # beta_1 < beta_2
    if q % 2:
        broken = list(row)
        broken[q // 2] = F(1, 11)                          # the middle entry
        out.append(_replace(w, beta=w.beta[:j] + (tuple(broken),) + w.beta[j + 1:]))
    broken = list(row)
    broken[-1] = broken[-1] - F(1, 13)                     # antisymmetry only
    out.append(_replace(w, beta=w.beta[:j] + (tuple(broken),) + w.beta[j + 1:]))
    out.append(Weight(q, s, w.alpha[:-1], w.beta))
    out.append(Weight(q, s, w.alpha, w.beta[:-1] + (w.beta[-1][:-1],)))
    return out


class TestIntegerChecks:
    """validate_weight and region_membership compare integers in units of
    N; the Fraction comparisons above are their reference."""

    def test_match_fraction_reference(self):
        rng = random.Random(23)
        seen = {"valid": 0, "in_w": 0, "not_in_w": 0, "in_w_prime": 0, "violations": set()}
        on_boundary = dict.fromkeys(["alpha = 0", "alpha = 1/2", "alpha = |beta|",
                                     "|alpha| + |beta| = 1", "beta_i = beta_i+1"], 0)
        for trial in range(160):
            q, s = trial % 9 + 2, trial % 4 + 3
            base = _coprime_weight(rng, q, s)
            dens = {x.denominator for x in base.alpha + sum(base.beta, ())}
            assert base.n == math.prod(dens), trial  # pairwise coprime
            for w in [base] + _boundaries(base, rng):
                want = _fraction_check_weight(w)
                assert validate_weight(w) == want, (trial, w)
                seen["violations"].update(v.split(" ")[0] for v in want)
                if want:
                    continue
                seen["valid"] += 1
                in_w, in_w_prime = _fraction_membership(w)
                got = region_membership(w)
                assert (got.in_w, got.in_w_prime) == (in_w, in_w_prime), (trial, w)
                stats = weight_stats(w)
                assert (stats.abs_alpha, stats.abs_beta, stats.abs_beta1,
                        stats.per_puncture_abs_beta) == _fraction_stats(w), (trial, w)
                seen["in_w" if in_w else "not_in_w"] += 1
                seen["in_w_prime"] += in_w_prime
                per = stats.per_puncture_abs_beta
                on_boundary["alpha = 0"] += 0 in w.alpha
                on_boundary["alpha = 1/2"] += _HALF in w.alpha
                on_boundary["alpha = |beta|"] += any(map(F.__eq__, w.alpha, per))
                on_boundary["|alpha| + |beta| = 1"] += stats.abs_alpha + stats.abs_beta == 1
                on_boundary["beta_i = beta_i+1"] += any(
                    row[i] == row[i + 1] for row in w.beta for i in range(q - 1))
        assert seen["valid"] >= 500 and min(seen["in_w"], seen["not_in_w"]) >= 100
        assert seen["in_w_prime"] >= 50
        assert min(on_boundary.values()) >= 20, on_boundary
        assert seen["violations"] == {"alpha[1]", "alpha[2]", "alpha[3]", "alpha[4]",
                                      "alpha[5]", "alpha[6]", "beta_i^j<1/2",
                                      "non-increasing", "antisymmetry", "alpha", "beta"}

    def test_exact_boundaries(self):
        # one weight at each boundary, with the verdict of the constraint
        half, q4 = F(1, 2), (F(1, 16), F(1, 32), F(-1, 32), F(-1, 16))
        assert validate_weight(Weight.make(4, 3, [0, half, F(1, 5)], [q4] * 3)) == []
        assert validate_weight(Weight.make(2, 3, [F(1, 8)] * 3, [(half, -half)] * 3)) == [
            f"beta_i^j<1/2 fails at (i=1, j={j})" for j in (1, 2, 3)]
        ties = Weight.make(4, 3, [F(3, 16)] * 3, [(F(1, 16), F(1, 16), F(-1, 16), F(-1, 16))] * 3)
        assert validate_weight(ties) == []
        assert region_membership(ties) == type(region_membership(ties))(True, False)
        # alpha^1 = |beta^1| leaves W
        w = Weight.make(2, 3, [F(1, 16), F(1, 8), F(1, 8)], [(F(1, 16), F(-1, 16))] * 3)
        assert not region_membership(w).in_w
        # |alpha| + |beta| = 1 leaves W, just below stays in
        for top, inside in ((F(1, 3) - F(1, 30), False), (F(1, 3) - F(1, 29), True)):
            w = Weight.make(2, 3, [top] * 3, [(F(1, 30), F(-1, 30))] * 3)
            assert region_membership(w).in_w is inside, top
