"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction as F

from isoflag.flags import pardeg_subspace
from isoflag.higgs import decide_stability, generate_stable_instance
from isoflag.hmgit import (
    INFINITE,
    OnePS,
    consistency_check,
    destabilizing_oneps,
    hm_base,
    hm_flag_total,
    hm_total,
)
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    orthocomplement,
)
from isoflag.randgen import (
    mixed_mode,
    random_flag_system,
    random_instance,
    random_isotropic_subspace,
    random_weight,
)
from isoflag.weights import (
    compactness_criterion,
    j_interval,
    j_interval_bounds,
    monodromy_and_toledo,
    region_membership,
    weight_stats,
)

from helpers import (higgs_from_rows, higgs_rows, hm_grassmannian, hyperbolic_basis, isometry_rows,
                     mat_mul, oneps_from_rows, random_scalar, random_vector, sc, transform_flags)


def _report(number: int, description: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.1f}s): {description}")


def _random_oneps(q: int, seed: int, bound: int = 3) -> OnePS:
    rng = random.Random(seed)
    h = q // 2
    top = sorted((rng.randint(0, bound) for _ in range(h)), reverse=True)
    m = tuple(top) + ((0,) if q % 2 else ()) + tuple(-x for x in reversed(top))
    basis = hyperbolic_basis(BilinearForm(q), rng.randint(0, 10 ** 6))
    return oneps_from_rows(rng.randint(-bound, bound), m, basis)


def test_criterion_1_orthocomplement_identity():
    start = time.time()
    rng = random.Random(101)
    for trial in range(500):
        q = rng.randint(2, 6)
        s = rng.randint(3, 6)
        w = random_weight(q, s, trial)
        fs = random_flag_system(q, s, trial + 1)
        iso = random_isotropic_subspace(q, rng.randint(1, q // 2), trial + 2)
        perp = orthocomplement(iso, BilinearForm(q))
        assert pardeg_subspace(iso, fs, w) == pardeg_subspace(perp, fs, w)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(1, "pardeg(V') = pardeg(V'^perp) on 500 random isotropic subspaces", elapsed)


def test_criterion_2_two_formula_agreement():
    start = time.time()
    rng = random.Random(202)
    done = 0
    while done < 500:
        q = rng.choice([2, 3, 4, 5, 6])
        lam = _random_oneps(q, rng.randint(0, 10 ** 7))
        i = rng.randint(1, q)
        sub = Subspace.from_vectors([random_vector(rng, q) for _ in range(i)], q)
        if sub.dim != i:
            continue
        hm_grassmannian(lam, sub, i, rng.randint(1, 3))  # raises on disagreement
        done += 1
    _report(2, "both Grassmannian weight formulas agree on 500 random inputs",
            time.time() - start)


def test_criterion_3_additivity():
    start = time.time()
    checked = 0
    for trial in range(120):
        q, s = trial % 4 + 2, trial % 3 + 4
        a, fs, w = random_instance(q, s, trial, mode=mixed_mode(trial))
        lam = _random_oneps(q, trial + 9, bound=2)
        total = hm_total(lam, a, fs, w)
        base = hm_base(lam, a)
        if base is INFINITE:
            assert total is INFINITE
        else:
            assert total == base + hm_flag_total(lam, fs, w)
        checked += 1
    assert checked == 120
    _report(3, "total weight = base weight + flag weight on every evaluation",
            time.time() - start)


def test_criterion_4_destabilizer_identities():
    start = time.time()
    for trial in range(200):
        rng = random.Random(trial + 404)
        q = rng.choice([2, 3, 4, 5, 6])
        s = rng.choice([4, 5, 6])
        w = random_weight(q, s, trial + 7)
        fs = random_flag_system(q, s, trial + 11)
        k = rng.randint(1, q // 2)
        iso = random_isotropic_subspace(q, k, trial + 13)
        rows = []
        for _ in range(s - 2):
            v = tuple(sc(0) for _ in range(q))
            for b in iso.rows:
                c = random_scalar(rng, 2)
                v = tuple(x + c * y for x, y in zip(v, b))
            rows.append(v)
        a = higgs_from_rows(q, s, rows)

        lam1, predicted1 = destabilizing_oneps("shape1", iso, fs, w)
        n_pardeg = w.n * pardeg_subspace(iso, fs, w)
        assert predicted1 == -4 * (w.n_abs_alpha + n_pardeg)
        assert hm_total(lam1, a, fs, w) == predicted1

        co = orthocomplement(iso, BilinearForm(q))
        lam2, predicted2 = destabilizing_oneps("shape2", co, fs, w)
        assert predicted2 == -4 * w.n * pardeg_subspace(co, fs, w)
        assert hm_total(lam2, a, fs, w) == predicted2
    _report(4, "shape1/shape2 weights match -4N(|alpha|+pardeg) and -4N pardeg, 200 per shape",
            time.time() - start)


def test_criterion_5_stability_equivalence_desk_scale():
    start = time.time()
    verdicts = {"Stable": 0, "StrictlySemistable": 0, "Unstable": 0, "Undetermined": 0}
    inconsistent = 0
    for trial in range(300):
        q = [2, 3][trial % 2]
        s = 4 + (trial // 2) % 4
        a, fs, w = random_instance(q, s, trial, mode=mixed_mode(trial))
        res = consistency_check(a, fs, w, seed=trial)
        verdicts[res["verdict"]] += 1
        if not res["consistent"]:
            inconsistent += 1
        if res["verdict"] == "Unstable":
            # (a) a destabilizing one-parameter subgroup exists and re-verifies
            assert res["mu"] is not None and res["mu"] < 0, res
    elapsed = time.time() - start
    assert inconsistent == 0
    assert verdicts["Unstable"] > 0          # both branches exercised
    assert verdicts["Stable"] > 0
    assert elapsed < 300.0
    _report(5, f"300 instances, verdicts {verdicts}, zero inconsistencies", elapsed)


def test_criterion_6_completeness_small_q():
    start = time.time()
    undetermined = 0
    for trial in range(300):
        q = [2, 3][trial % 2]
        s = 4 + trial % 4
        a, fs, w = random_instance(q, s, trial + 5000, mode=mixed_mode(trial),
                                   region="Wprime")
        verdict = decide_stability(a, fs, w)
        if verdict.tag == "Undetermined":
            undetermined += 1
    assert undetermined == 0
    _report(6, "zero Undetermined verdicts over 300 instances with q <= 3",
            time.time() - start)


def test_criterion_7_spanning_generator():
    start = time.time()
    for (q, s) in ((2, 4), (3, 5), (4, 6)):
        w = random_weight(q, s, q * 100 + s)
        a = generate_stable_instance(q, s, random_flag_system(q, s, 0), w, seed=q + s)
        assert a.span().dim == q
        for seed in range(100):
            fs = random_flag_system(q, s, seed + 1)
            assert decide_stability(a, fs, w).tag == "Stable"
    _report(7, "generated spanning instances stable under 100 random flag systems each",
            time.time() - start)


def test_criterion_8_j_interval_grid():
    start = time.time()
    values = sorted({F(n, d) for d in range(1, 33) for n in range(0, 2 * d + 1)})
    checked = 0
    for aa in values:
        for bb in values:
            res = j_interval_bounds(aa, bb)
            if res.contained_integer is not None:
                assert res.contained_integer == -1
                assert 0 < aa < 1
            if bb < aa:  # the compactness regime sum(alpha^j) > sum(beta_1^j)
                assert (res.contained_integer is not None) == (0 < aa < 1)
                checked += 1
    assert checked > 100000
    # spot-check on materialized weights in the regime
    for seed in range(20):
        w = random_weight(seed % 4 + 2, seed % 3 + 3, seed + 888)
        stats = weight_stats(w)
        res = j_interval(w)
        kernel = j_interval_bounds(stats.abs_alpha, stats.abs_beta1)
        assert (res.lower, res.upper, res.contained_integer) == \
            (kernel.lower, kernel.upper, kernel.contained_integer)
    _report(8, "degree interval contains an integer iff 0<|alpha|<1, always -1, "
               "exhaustively for denominators <= 32", time.time() - start)


def test_criterion_9_region_implication_and_labels():
    start = time.time()
    for trial in range(200):
        q, s = trial % 5 + 2, trial % 4 + 3
        w = random_weight(q, s, trial + 999)
        assert region_membership(w).in_w
        assert compactness_criterion(w, -1).eta_forced_zero
        stats = weight_stats(w)
        for d in (-2, -1, 0, 3):
            mono = monodromy_and_toledo(w, d)
            assert mono.toledo == d + stats.abs_alpha
            assert mono.all_unit_modulus
    _report(9, "admissible weights force the vanishing criterion at d=-1; "
               "labels are d+|alpha|; monodromy phases exact", time.time() - start)


def test_criterion_10_equivariance():
    start = time.time()
    for trial in range(100):
        q = (2, 3, 4)[trial % 3]
        s = 4 + trial % 2
        if q == 4:
            s = max(s, q + 2)
            w = random_weight(q, s, trial)
            fs = random_flag_system(q, s, trial + 1)
            a = generate_stable_instance(q, s, fs, w, seed=trial)
        else:
            a, fs, w = random_instance(q, s, trial, mode=mixed_mode(trial))
        before = decide_stability(a, fs, w)
        m = isometry_rows(q, trial + 17)
        rng = random.Random(trial + 23)
        t = random_scalar(rng, 3)
        while t.is_zero():
            t = random_scalar(rng, 3)
        rows = [tuple(x / t for x in r) for r in mat_mul(list(higgs_rows(a)), m)]
        after = decide_stability(higgs_from_rows(q, a.s, rows), transform_flags(fs, m), w)
        assert after.tag == before.tag, (trial, before.tag, after.tag)
    _report(10, "verdicts invariant under 100 random isometry pairs", time.time() - start)
