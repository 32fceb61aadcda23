import random
from fractions import Fraction as F

import pytest

from isoflag.errors import InputError
from isoflag.flags import FlagSystem, pardeg_subspace
from isoflag.higgs import (
    ExtensionLine,
    HiggsTuple,
    condition1_isotropic_span,
    decide_stability,
    generate_stable_instance,
    line_oracle,
    max_pardeg_isotropic_in,
    verify_certificate,
)
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    apply_matrix,
    isotropy_classify,
    max_isotropic_dimension,
    meet_join,
    orthocomplement,
    random_special_isometry,
)
from isoflag.randgen import (
    mixed_mode,
    random_flag_system,
    random_instance,
    random_scalar,
    random_weight,
)
from isoflag.scalars import sc
from isoflag.weights import Weight

W_Q2 = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)
W_Q4 = Weight.make(4, 4, [F(1, 8)] * 4,
                   [(F(1, 16), F(1, 32), F(-1, 32), F(-1, 16))] * 4)


def vec(*entries):
    return tuple(sc(x) for x in entries)


def higgs(q, *rows):
    return HiggsTuple(q, len(rows) + 2, tuple(rows))


class TestCondition1:
    def test_repeated_isotropic_row_fails(self):
        holds, span = condition1_isotropic_span(higgs(2, vec(1, 0), vec(1, 0)))
        assert not holds and span.dim == 1

    def test_spanning_rows_hold(self):
        holds, span = condition1_isotropic_span(higgs(2, vec(1, 0), vec(0, 1)))
        assert holds and span.dim == 2

    def test_anisotropic_line_holds(self):
        holds, span = condition1_isotropic_span(higgs(2, vec(1, 1), vec(1, 1)))
        assert holds and span.dim == 1

    def test_zero_rows_fail(self):
        holds, span = condition1_isotropic_span(higgs(2, vec(0, 0), vec(0, 0)))
        assert not holds and span.dim == 0

    def test_monotone_under_row_extension(self):
        rng = random.Random(1)
        from isoflag.randgen import random_vector
        for trial in range(40):
            q = rng.randint(2, 5)
            rows = [random_vector(rng, q) for _ in range(2)]
            a = HiggsTuple(q, 4, tuple(rows))
            if condition1_isotropic_span(a)[0]:
                extended = HiggsTuple(q, 5, tuple(rows + [random_vector(rng, q)]))
                assert condition1_isotropic_span(extended)[0]


class TestLineOracle:
    def test_q4_hyperbolic_pair(self):
        fs = FlagSystem.standard(4, 4)
        t_sub = Subspace.from_vectors([vec(1, 0, 0, 0), vec(0, 0, 0, 1)], 4)
        res = line_oracle(t_sub, fs, W_Q4)
        assert res.value == F(1, 4)
        assert isinstance(res.witness, Subspace)
        assert res.witness == Subspace.from_vectors([vec(1, 0, 0, 0)], 4)

    def test_anisotropic_line_has_none(self):
        fs = FlagSystem.standard(2, 4)
        t_sub = Subspace.from_vectors([vec(1, -1)], 2)
        res = line_oracle(t_sub, fs, W_Q2)
        assert res.value is None and res.witness is None

    def test_extension_witness(self):
        # T = span(e1 + e3, e2) in q = 3: the restricted form is
        # diag(2, 1), whose isotropic lines need sqrt(-2); both have the same
        # degree, realized at jump position 3 at every standard flag.
        w3 = Weight.make(3, 4, [F(1, 8)] * 4, [(F(1, 16), F(0), F(-1, 16))] * 4)
        fs = FlagSystem.standard(3, 4)
        t_sub = Subspace.from_vectors([vec(1, 0, 1), vec(0, 1, 0)], 3)
        res = line_oracle(t_sub, fs, w3)
        assert isinstance(res.witness, ExtensionLine)
        assert res.witness.is_isotropic(BilinearForm(3))
        assert res.value == 4 * F(-1, 16)

    def test_witness_value_is_its_pardeg(self):
        rng = random.Random(8)
        from isoflag.higgs import witness_pardeg
        from isoflag.randgen import random_vector
        for trial in range(40):
            q, s = rng.randint(2, 5), rng.randint(3, 5)
            fs = random_flag_system(q, s, trial)
            w = random_weight(q, s, trial + 1)
            t_sub = Subspace.from_vectors(
                [random_vector(rng, q) for _ in range(rng.randint(1, q))], q)
            res = line_oracle(t_sub, fs, w)
            if res.value is not None:
                assert witness_pardeg(res.witness, fs, w) == res.value
                if isinstance(res.witness, Subspace):
                    assert t_sub.contains_subspace(res.witness)
                else:
                    assert res.witness.contained_in(t_sub)


class TestMaxPardeg:
    def test_zero_space_sentinel(self):
        fs = FlagSystem.standard(2, 4)
        res = max_pardeg_isotropic_in(Subspace.zero(2), fs, W_Q2)
        assert res.lower is None and res.upper is None and res.exact

    def test_q4_exact_bounds(self):
        fs = FlagSystem.standard(4, 4)
        t_sub = Subspace.from_vectors([vec(1, 0, 0, 0), vec(0, 0, 0, 1)], 4)
        res = max_pardeg_isotropic_in(t_sub, fs, W_Q4)
        assert res.lower == F(1, 4) and res.exact

    def test_anisotropic_sentinel(self):
        fs = FlagSystem.standard(2, 4)
        t_sub = Subspace.from_vectors([vec(1, -1)], 2)
        res = max_pardeg_isotropic_in(t_sub, fs, W_Q2)
        assert res.lower is None and res.exact

    def test_upper_dominates_lower(self):
        rng = random.Random(12)
        from isoflag.randgen import random_vector
        for trial in range(30):
            q, s = rng.randint(2, 6), rng.randint(3, 5)
            fs = random_flag_system(q, s, trial)
            w = random_weight(q, s, trial + 1)
            t_sub = Subspace.from_vectors(
                [random_vector(rng, q) for _ in range(rng.randint(1, q))], q)
            res = max_pardeg_isotropic_in(t_sub, fs, w)
            if res.lower is not None:
                assert res.upper >= res.lower
                if res.exact:
                    assert res.upper == res.lower


def _closure_members(t_sub, fs, cap=128):
    """The meet/join closure of {T} and the T ^ F_i^j inside T, size-capped:
    the candidate set the bound stage once drew its radicals from.  Kept here
    as the reference the seeds-only stage is compared against."""
    seeds = {t_sub}
    for flag in fs.flags:
        for i in range(1, fs.q):
            piece, _ = meet_join(t_sub, flag.piece(i))
            if piece.dim > 0:
                seeds.add(piece)
    members = set(seeds)
    frontier = list(seeds)
    capped = False
    while frontier and not capped:
        new_frontier = []
        for a in frontier:
            for b in list(members):
                meet, join = meet_join(a, b)
                for c in (meet, join):
                    if c.dim > 0 and c not in members:
                        members.add(c)
                        new_frontier.append(c)
                        if len(members) > cap:
                            capped = True
                            break
                if capped:
                    break
            if capped:
                break
        frontier = new_frontier
    return members


class TestSeedsOnlyBoundStage:
    # Generic rows leave nu(T) <= 1 for q <= 5 and s = 4, where the bound
    # stage never runs; rows confined to one line leave dim T = q - 1.
    @pytest.mark.parametrize("q, mode, seed", [
        (4, "isotropic_span", 0), (4, "isotropic_span", 1), (4, "isotropic_span", 2),
        (5, "low_rank", 1), (5, "low_rank", 2), (5, "isotropic_span", 1),
    ])
    def test_closure_radicals_never_beat_seeds(self, q, mode, seed):
        a, fs, w = random_instance(q, 4, seed, mode=mode)
        form = BilinearForm(q)
        t_sub = orthocomplement(a.span(), form)
        assert max_isotropic_dimension(t_sub, form) >= 2
        res = max_pardeg_isotropic_in(t_sub, fs, w)
        for member in _closure_members(t_sub, fs):
            radical = isotropy_classify(member, form)[1]
            if radical.dim >= 2:
                assert pardeg_subspace(radical, fs, w) <= res.lower

    @pytest.mark.parametrize("q, seed, lower, upper", [
        (6, 0, F(-1, 22), F(1, 88)),
        (6, 1, F(-3, 136), F(1, 34)),
        (6, 2, F(-2, 29), F(6, 145)),
        (8, 0, F(-6, 155), F(4, 155)),
    ])
    def test_wide_bounds_pinned(self, q, seed, lower, upper):
        a, fs, w = random_instance(q, 4, seed)
        verdict = decide_stability(a, fs, w, seed=seed)
        assert verdict.tag == "Undetermined"
        assert (verdict.lower, verdict.upper) == (lower, upper)


class TestDecide:
    def test_stable_example(self):
        a = higgs(2, vec(1, 0), vec(0, 1))
        verdict = decide_stability(a, FlagSystem.standard(2, 4), W_Q2)
        assert verdict.tag == "Stable"

    def test_isotropic_span_example(self):
        a = higgs(2, vec(1, 0), vec(1, 0))
        verdict = decide_stability(a, FlagSystem.standard(2, 4), W_Q2)
        assert verdict.tag == "Unstable"
        assert verdict.certificate.kind == "isotropic_span"
        assert verify_certificate(verdict, a, FlagSystem.standard(2, 4), W_Q2)

    def test_positive_coisotropic_example(self):
        fs = FlagSystem.standard(4, 4)
        a = higgs(4, vec(0, 1, 0, 0), vec(0, 0, 1, 0))
        verdict = decide_stability(a, fs, W_Q4)
        assert verdict.tag == "Unstable"
        cert = verdict.certificate
        assert cert.kind == "positive_coisotropic"
        assert cert.pardeg == F(1, 4)
        assert cert.coisotropic == Subspace.from_vectors(
            [vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0)], 4)
        assert verify_certificate(verdict, a, fs, W_Q4)

    def test_strictly_semistable(self):
        w3 = Weight.make(3, 4, [F(1, 8)] * 4, [(F(0), F(0), F(0))] * 4)
        fs = FlagSystem.standard(3, 4)
        a = higgs(3, vec(0, 1, 0), vec(0, 1, 0))
        verdict = decide_stability(a, fs, w3)
        assert verdict.tag == "StrictlySemistable"
        assert verdict.lower == 0 and verdict.exact

    def test_refuses_weight_outside_region(self):
        w = Weight.make(2, 4, [F(1, 32)] * 4, [(F(1, 16), F(-1, 16))] * 4)
        a = higgs(2, vec(1, 0), vec(0, 1))
        with pytest.raises(InputError):
            decide_stability(a, FlagSystem.standard(2, 4), w)

    def test_no_undetermined_for_small_q(self):
        for trial in range(60):
            q = [2, 3][trial % 2]
            a, fs, w = random_instance(q, 4 + trial % 3, trial, mode=mixed_mode(trial))
            verdict = decide_stability(a, fs, w)
            assert verdict.tag != "Undetermined"
            assert verdict.exact

    def test_unstable_always_verifies(self):
        count = 0
        for trial in range(80):
            q = [2, 3][trial % 2]
            a, fs, w = random_instance(q, 4, trial, mode=mixed_mode(trial))
            verdict = decide_stability(a, fs, w)
            if verdict.tag == "Unstable":
                count += 1
                assert verify_certificate(verdict, a, fs, w)
        assert count > 0  # the degenerate modes must actually produce some


class TestGenerator:
    def test_spanning_and_stable(self):
        for (q, s) in ((2, 4), (3, 5), (4, 6)):
            w = random_weight(q, s, 3)
            fs = random_flag_system(q, s, 4)
            a = generate_stable_instance(q, s, fs, w, seed=5)
            assert a.span().dim == q
            assert decide_stability(a, fs, w).tag == "Stable"

    def test_stable_under_many_flag_systems(self):
        q, s = 3, 5
        w = random_weight(q, s, 1)
        a = generate_stable_instance(q, s, random_flag_system(q, s, 0), w, seed=2)
        for seed in range(25):
            fs = random_flag_system(q, s, seed + 100)
            assert decide_stability(a, fs, w).tag == "Stable"

    def test_refuses_small_s(self):
        w = random_weight(3, 4, 0)
        fs = random_flag_system(3, 4, 0)
        with pytest.raises(InputError):
            generate_stable_instance(3, 4, fs, w)


class TestEquivariance:
    def test_verdict_invariance(self):
        for trial in range(30):
            q = [2, 3][trial % 2]
            a, fs, w = random_instance(q, 4, trial, mode=mixed_mode(trial))
            before = decide_stability(a, fs, w)
            m = random_special_isometry(q, trial + 1)
            rng = random.Random(trial)
            t = random_scalar(rng, 3)
            while t.is_zero():
                t = random_scalar(rng, 3)
            rows = tuple(tuple(x / t for x in apply_matrix(r, m)) for r in a.rows)
            after = decide_stability(HiggsTuple(q, a.s, rows), fs.transform(m), w)
            assert after.tag == before.tag
