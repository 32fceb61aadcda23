import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

import isoflag.flags as flags_mod
import isoflag.higgs as higgs_mod
from isoflag.errors import InputError
from isoflag.flags import FlagSystem, IsotropicFlag, n_pardeg, pardeg_subspace
from isoflag.higgs import (
    Certificate,
    ExtensionLine,
    PardegBounds,
    condition1_isotropic_span,
    decide_stability,
    generate_stable_instance,
    Verdict,
    isotropic_radicals,
    line_oracle,
    max_pardeg_isotropic_in,
    verify_certificate,
)
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    invert_matrix,
    isotropy_classify,
    max_isotropic_dimension,
    meet_join,
    orthocomplement,
)
from isoflag.randgen import (
    mixed_mode,
    random_flag_system,
    random_instance,
    random_isotropic_subspace,
    random_weight,
)
from isoflag.scalars import Scalar
from isoflag.weights import Weight

from helpers import (flag_basis, flag_from_rows, flag_inverse, gram, higgs_from_rows, higgs_rows,
                     isometry_rows, line_parts, mat_mul, pair, pardeg_from_profile, per_flag_upper,
                     random_scalar, random_vector, recombined_rows, recursive_line_oracle, sc,
                     scalar_sqrt, transform_flags, vadd, vscale)
from test_pinned_outputs import CROSSCHECK_POOLS, DECIDE_POOLS

W_Q2 = Weight.make(2, 4, [F(1, 8)] * 4, [(F(1, 16), F(-1, 16))] * 4)
W_Q4 = Weight.make(4, 4, [F(1, 8)] * 4,
                   [(F(1, 16), F(1, 32), F(-1, 32), F(-1, 16))] * 4)


def vec(*entries):
    return tuple(sc(x) for x in entries)


def higgs(q, *rows):
    return higgs_from_rows(q, len(rows) + 2, rows)


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
        for trial in range(40):
            q = rng.randint(2, 5)
            rows = [random_vector(rng, q) for _ in range(2)]
            a = higgs_from_rows(q, 4, rows)
            if condition1_isotropic_span(a)[0]:
                extended = higgs_from_rows(q, 5, rows + [random_vector(rng, q)])
                assert condition1_isotropic_span(extended)[0]


def _parsed(q, s, seed, mode="generic"):
    from isoflag.io import InstanceFile, parse_instance_text, serialize_instance
    a, fs, w = random_instance(q, s, seed, mode)
    return parse_instance_text(serialize_instance(InstanceFile(w, fs, a)))


class TestConversionsLeftTheDecisionPath:
    """No Scalar row becomes a Gaussian-integer row (_gaussian_row), and no
    Gaussian integer becomes a Scalar (_scalar), on the decision path or the
    Hilbert-Mumford side: a parsed instance holds each row of A as Gaussian
    integers already, every subspace after that is read and built on its
    stored integers, and so are sort keys, one-parameter subgroups and
    extension-line witnesses."""

    @staticmethod
    def _count(monkeypatch, names=("_gaussian_row", "_scalar")) -> dict:
        import sys

        from isoflag import linalg
        calls: dict = {name: [] for name in names}
        for name in calls:
            real = getattr(linalg, name)

            def counting(*args, real=real, name=name):
                calls[name].append(args)
                return real(*args)

            for mod_name, module in list(sys.modules.items()):
                if mod_name == "isoflag" or mod_name.startswith("isoflag."):
                    for attr, value in list(vars(module).items()):
                        if value is real:
                            monkeypatch.setattr(module, attr, counting)
        return calls

    @pytest.mark.parametrize("q,s,seed", [(8, 8, 0), (8, 8, 5), (8, 4, 0)])
    def test_one_gaussian_row_per_row_of_a(self, monkeypatch, q, s, seed):
        # q8 s4 seed 0 harvests radicals, whose order is read off integers
        inst = _parsed(q, s, seed)
        calls = self._count(monkeypatch)
        decide_stability(inst.higgs, inst.flags, inst.weight)
        assert calls == {"_gaussian_row": [], "_scalar": []}

    def test_crosscheck_pool(self, monkeypatch):
        from isoflag.hmgit import consistency_check
        insts = [(q, s, seed, _parsed(q, s, seed, mixed_mode(seed)))
                 for q, s in ((3, 4), (3, 5), (4, 4), (4, 5), (4, 6)) for seed in range(10)]
        calls = self._count(monkeypatch)
        seen = set()
        for q, s, seed, inst in insts:
            out = consistency_check(inst.higgs, inst.flags, inst.weight)
            assert out["consistent"], (q, s, seed)
            if (q, mixed_mode(seed), out["verdict"]) == (4, "shared_flag", "Unstable"):
                seen.add("shared_flag Unstable at q = 4")
            if out["verdict"] == "Stable" and inst.higgs.span_perp().dim == 0:
                seen.add("Stable with T = 0")
        assert seen == {"shared_flag Unstable at q = 4", "Stable with T = 0"}
        assert calls == {"_gaussian_row": [], "_scalar": []}


@pytest.mark.parametrize("den", [0, -4])
def test_row_denominator_below_one_rejected(den):
    # a zero denominator used to be accepted and fail only when written, and
    # -4 to be written as "1/-2"
    from isoflag.higgs import HiggsTuple
    with pytest.raises(InputError, match="row denominator must be positive"):
        HiggsTuple(3, 3, [([1, 0, 0], [0, 0, 0])], den)


def test_row_reduced_to_least_denominator():
    # the same rows over a denominator that is not their least one are the
    # same row tuple, so == and the hash are value equality
    from isoflag.higgs import HiggsTuple
    doubled = HiggsTuple(3, 3, [([2, 0, 0], [0, 0, 0])], 2)
    least = HiggsTuple(3, 3, [([1, 0, 0], [0, 0, 0])], 1)
    assert doubled == least and hash(doubled) == hash(least)
    assert (doubled.zi_rows, doubled.den) == ((((1, 0, 0), (0, 0, 0)),), 1)


class TestGenerationBuildsNoScalars:
    """random_instance in every mode, and gen from its weight to its printed
    instance, draw flags and rows straight into Gaussian integers: no Scalar
    is built and no Scalar row is converted (_gaussian_row; the matrix
    converter is a test helper, with no caller in the package)."""

    MODES = ("generic", "low_rank", "isotropic_span", "shared_flag")

    def test_random_instance_and_gen(self, monkeypatch, capsys):
        from isoflag.cli import main
        calls = TestConversionsLeftTheDecisionPath._count(monkeypatch, ("_gaussian_row",))
        built = []
        scalar_init = Scalar.__init__

        def counting_init(self, re=0, im=0):
            built.append(1)
            scalar_init(self, re, im)

        monkeypatch.setattr(Scalar, "__init__", counting_init)
        for q in range(2, 9):
            for k, mode in enumerate(self.MODES):
                for s in (3, q + 1):
                    random_instance(q, s, 5 * q + k, mode)
        for q in (2, 3, 5):
            for region in ("W", "Wprime"):
                assert main(["gen", "--q", str(q), "--s", str(q + 2), "--seed", str(q),
                             "--region", region]) == 0
        monkeypatch.undo()
        assert capsys.readouterr().out.count('"generator": "spanning-rows"') == 6
        assert built == []
        assert calls == {"_gaussian_row": []}


def _pool(shapes, keep) -> list[tuple[int, int, int, str]]:
    """(q, s, seed, mode) for every instance of the pinned pool shapes
    (q, s, mixed, size) that keep(q, s, mixed) accepts."""
    return [(q, s, seed, mixed_mode(seed) if mixed else "generic")
            for q, s, mixed, size in shapes if keep(q, s, mixed) for seed in range(size)]


class TestNoScalarOnTheDecisionPath:
    """From an instance file to its printed verdict, and through the
    Hilbert-Mumford cross-check, no Scalar is built.  The instances are the
    pools of the three benchmark workloads, read from test_pinned_outputs,
    whose copy is checked against the benchmark: narrow q = s in 5..8,
    wide s = 4 at q 6 and 8, and mixed-mode q 3-4 for the cross-check.
    Each pool takes square roots of non-square discriminants (_zi_sqrt),
    the probe that once went through Scalar."""

    POOLS = {
        "narrow": _pool(DECIDE_POOLS, lambda q, s, mixed: q == s),
        "wide": _pool(DECIDE_POOLS, lambda q, s, mixed: s == 4),
        "crosscheck": _pool(CROSSCHECK_POOLS, lambda q, s, mixed: mixed),
    }

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_pool_builds_no_scalar(self, monkeypatch, pool):
        from isoflag.hmgit import consistency_check
        from isoflag.io import InstanceFile, parse_instance_text, serialize_instance, verdict_to_json
        texts = []
        for q, s, seed, mode in self.POOLS[pool]:
            a, fs, w = random_instance(q, s, seed, mode)
            texts.append(serialize_instance(InstanceFile(w, fs, a)))

        built, probes = [], []
        scalar_init, zi_sqrt = Scalar.__init__, higgs_mod._zi_sqrt

        def counting_init(self, re=0, im=0):
            built.append(1)
            scalar_init(self, re, im)

        def counting_sqrt(a, b):
            probes.append(1)
            return zi_sqrt(a, b)

        monkeypatch.setattr(Scalar, "__init__", counting_init)
        monkeypatch.setattr(higgs_mod, "_zi_sqrt", counting_sqrt)
        for text in texts:
            inst = parse_instance_text(text)
            verdict_to_json(decide_stability(inst.higgs, inst.flags, inst.weight))
            if pool == "crosscheck":
                assert consistency_check(inst.higgs, inst.flags, inst.weight)["consistent"]
        assert len(built) == 0
        assert probes


class TestOrderKey:
    """linalg.order_key writes (dim, repr(rows)) from the stored integers;
    the harvest's order, and with it tie-breaks and the first
    Hilbert-Mumford hit, depends on it being that order exactly."""

    def test_matches_repr_order_on_harvests(self):
        from isoflag.linalg import order_key
        rng = random.Random(19)
        checked = 0
        for q in range(3, 9):
            for seed in range(4):
                a, fs, w = random_instance(q, rng.choice([3, 4]), seed, mixed_mode(seed))
                t_sub = a.span_perp()
                form = BilinearForm(q)
                members = {t_sub} | {flag.intersect_piece(t_sub, i)
                                     for flag in fs.flags for i in range(1, q)}
                members |= {isotropy_classify(m, form)[1] for m in list(members)}
                members |= {Subspace.from_vectors([random_vector(rng, q) for _ in range(k)], q)
                            for k in range(1, q + 1)}
                for m in members:
                    assert order_key(m) == (m.dim, repr(m.rows))
                assert sorted(members, key=order_key) == \
                    sorted(members, key=lambda m: (m.dim, repr(m.rows)))
                checked += len(members)
        assert checked > 400


class TestRowSpan:
    @staticmethod
    def _count_row_eliminations(monkeypatch, a):
        """Record every rref of exactly the instance's rows, its
        Gaussian-integer matrix."""
        from isoflag import linalg
        real = linalg.rref
        calls = []
        cleared = list(a.zi_rows)

        def counting(rows):
            if list(rows) == cleared:
                calls.append(1)
            return real(rows)

        monkeypatch.setattr(linalg, "rref", counting)
        return calls

    def test_span_eliminated_once(self, monkeypatch):
        a = higgs(3, vec(1, 2, 0), vec(0, 1, 1), vec(1, 3, 1))
        calls = self._count_row_eliminations(monkeypatch, a)
        spans = [a.span() for _ in range(3)]
        assert len(calls) == 1
        assert spans[0] is spans[1] is spans[2]
        assert spans[0] == Subspace.from_vectors(list(higgs_rows(a)), 3)

    def test_one_elimination_per_crosscheck(self, monkeypatch):
        # decide, certificate check and destabilizer search all ask for the
        # row span; one crosscheck of an instance eliminates its rows once
        from isoflag.hmgit import consistency_check
        kinds = set()
        for seed in (0, 1, 7, 8, 9):
            a, fs, w = random_instance(3, 5, seed, mode=mixed_mode(seed))
            calls = self._count_row_eliminations(monkeypatch, a)
            res = consistency_check(a, fs, w)
            assert res["consistent"] and len(calls) == 1, (seed, len(calls))
            kinds.add(res["verdict"])
            monkeypatch.undo()
        assert "Unstable" in kinds and len(kinds) >= 2

    def test_one_span_perp_per_crosscheck(self, monkeypatch):
        # decide, condition (1), certificate check and destabilizer search all
        # read span^perp; one crosscheck takes the row span's orthocomplement
        # once.  An isotropic span is left out: its certificate is the span
        # itself, which verify_certificate and the shape-1 destabilizer
        # classify again as independent re-checks.
        from isoflag import hmgit, linalg
        from isoflag.hmgit import consistency_check
        real = linalg.orthocomplement
        kinds = set()
        for q, s in ((3, 4), (4, 5)):
            for seed in range(10):
                a, fs, w = random_instance(q, s, seed, mode=mixed_mode(seed))
                span, calls = a.span(), []

                def counting(y, form, span=span, calls=calls):
                    if y is span:
                        calls.append(1)
                    return real(y, form)

                for module in (linalg, higgs_mod, hmgit):
                    monkeypatch.setattr(module, "orthocomplement", counting)
                res = consistency_check(a, fs, w)
                monkeypatch.undo()
                if not a.span_perp().contains_subspace(span):
                    assert res["consistent"] and len(calls) == 1, (q, s, seed, len(calls))
                    kinds.add(res["verdict"])
        assert kinds == {"Stable", "Unstable"}

    def test_span_perp_kept(self):
        a = higgs(3, vec(1, 2, 0), vec(0, 1, 1))
        assert a.span_perp() is a.span_perp()
        assert a.span_perp() == orthocomplement(a.span(), BilinearForm(3))


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

    def test_line_takes_no_echelon(self, monkeypatch):
        """T a line: its one leaf is T itself, so no echelon of T is taken
        for the bound; an isotropic line is walked with line_end and scored
        as pardeg_subspace scores it, a non-isotropic one is never walked."""
        rng = random.Random(25)

        def refuse(*args):
            raise AssertionError("an echelon of a line T was taken")

        for trial in range(30):
            q, s = rng.randint(2, 6), rng.randint(3, 5)
            fs = random_flag_system(q, s, trial)
            w = random_weight(q, s, trial + 1)
            line = random_isotropic_subspace(q, 1, trial) if trial % 2 else \
                Subspace.from_vectors([random_vector(rng, q)], q)
            isotropic = isotropy_classify(line, BilinearForm(q))[0]
            monkeypatch.setattr(IsotropicFlag, "zi_echelon", refuse)
            res = line_oracle(line, fs, w)
            monkeypatch.undo()
            if isotropic:
                assert res.value == pardeg_subspace(line, fs, w) and res.witness == line
            else:
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
        for trial in range(40):
            q, s = rng.randint(2, 5), rng.randint(3, 5)
            fs = random_flag_system(q, s, trial)
            w = random_weight(q, s, trial + 1)
            t_sub = Subspace.from_vectors(
                [random_vector(rng, q) for _ in range(rng.randint(1, q))], q)
            res = line_oracle(t_sub, fs, w)
            if res.value is not None:
                if isinstance(res.witness, Subspace):
                    assert pardeg_subspace(res.witness, fs, w) == res.value
                    assert t_sub.contains_subspace(res.witness)
                else:
                    assert res.witness.pardeg(fs, w) == res.value
                    assert all(map(t_sub.contains, line_parts(res.witness)[:2]))


def _vector_jump(flag, vectors):
    """Smallest i with all the (nonzero) vectors in F_i, from the last
    nonzero flag coordinate of each: the jump rule ExtensionLine.pardeg used
    before it read the jumps off the profiles."""
    inverse = flag_inverse(flag)
    assert inverse == invert_matrix(list(flag_basis(flag)))
    jump = 0
    for row in mat_mul(vectors, inverse):
        for i in range(flag.q - 1, -1, -1):
            if not row[i].is_zero():
                jump = max(jump, i + 1)
                break
    return jump


def _vector_jump_pardeg(line, fs, w):
    return sum((w.beta[j][_vector_jump(flag, list(line_parts(line)[:2])) - 1]
                for j, flag in enumerate(fs.flags)), F(0))


class TestExtensionLinePardeg:
    def test_matches_vector_jumps_on_oracle_witnesses(self, monkeypatch):
        # every extension line _isotropic_line_in returns while the line
        # oracle decides the generic q = s in 5..8 instances
        real = higgs_mod._isotropic_line_in
        seen = []
        for q in range(5, 9):
            for seed in range(4):
                a, fs, w = random_instance(q, q, seed)

                def recording(y, rng, fs=fs, w=w):
                    found = real(y, rng)
                    if isinstance(found, ExtensionLine):
                        seen.append((found, fs, w))
                    return found

                monkeypatch.setattr(higgs_mod, "_isotropic_line_in", recording)
                decide_stability(a, fs, w, seed=seed)
        assert len(seen) >= 10
        for line, fs, w in seen:
            assert line.pardeg(fs, w) == _vector_jump_pardeg(line, fs, w)

    def test_matches_vector_jumps_on_hand_built_lines(self):
        # base and twist are combinations of the first kb and kt vectors of
        # one flag's adapted basis (one coefficient per basis vector, the
        # last one nonzero), so at that flag the jump is max(kb, kt); the
        # trials put it at every position 1..q
        rng = random.Random(5)
        trial = 0
        for q in range(2, 7):
            jumps = set()
            for top in range(1, q + 1):
                for _ in range(2):
                    s = rng.randint(3, 5)
                    fs = random_flag_system(q, s, trial)
                    w = random_weight(q, s, trial)
                    flag = fs.flags[trial % s]
                    ks = [top, rng.randint(1, top)]
                    rng.shuffle(ks)
                    parts = []
                    for k in ks:
                        coeffs = [random_scalar(rng) for _ in range(k)]
                        while coeffs[-1].is_zero():
                            coeffs[-1] = random_scalar(rng)
                        parts.append(mat_mul([tuple(coeffs)], list(flag_basis(flag)[:k]))[0])
                    line = ExtensionLine(q, parts[0], parts[1], sc(2))
                    jump = _vector_jump(flag, parts)
                    assert jump == top, (q, trial)
                    jumps.add(jump)
                    assert line.pardeg(fs, w) == _vector_jump_pardeg(line, fs, w), trial
                    trial += 1
            assert jumps == set(range(1, q + 1)), q

    def test_jump_is_where_both_parts_enter(self):
        # standard flags of C^3: e1 + sqrt(2) e2 enters at position 2
        w3 = Weight.make(3, 4, [F(1, 8)] * 4, [(F(1, 16), F(0), F(-1, 16))] * 4)
        fs = FlagSystem.standard(3, 4)
        line = ExtensionLine(3, vec(1, 0, 0), vec(0, 1, 0), sc(2))
        assert line.pardeg(fs, w3) == 0
        line = ExtensionLine(3, vec(0, 1, 0), vec(1, 0, 0), sc(2))
        assert line.pardeg(fs, w3) == 0
        line = ExtensionLine(3, vec(1, 0, 0), vec(1, 0, 0), sc(2))
        assert line.pardeg(fs, w3) == 4 * F(1, 16)

    def test_weight_shape_mismatch_rejected(self):
        # zip used to cut a weight for 5 punctures to the 4 flags and return
        # a degree of the wrong weight
        w5 = Weight.make(3, 5, [F(1, 8)] * 5, [(F(1, 16), F(0), F(-1, 16))] * 5)
        line = ExtensionLine(3, vec(1, 0, 0), vec(1, 0, 0), sc(2))
        with pytest.raises(InputError, match="weight and flag system shapes disagree"):
            line.pardeg(FlagSystem.standard(3, 4), w5)

    def test_nondegenerate_hull_never_positive(self):
        # the ExtensionLine lemma: lines _isotropic_line_in builds on planes
        # inside F_k of a shared flag system, with k = (q + 3) // 2 the first
        # piece whose form has rank 2, so the jump is k at every flag, the
        # lowest a nondegenerate hull allows; pardeg <= 0 under every weight
        from isoflag.higgs import _isotropic_line_in
        rng = random.Random(17)
        lines = 0
        for trial in range(80):
            q, s = rng.randint(2, 7), rng.randint(3, 5)
            k = (q + 3) // 2
            form = BilinearForm(q)
            fs = random_flag_system(q, s, trial, shared=True)
            coeffs = [[random_scalar(rng, 2) for _ in range(k)] for _ in range(2)]
            y = Subspace.from_vectors(mat_mul(coeffs, list(flag_basis(fs.flags[0])[:k])), q)
            line = _isotropic_line_in(y, rng)
            if not isinstance(line, ExtensionLine):
                continue
            hull = Subspace.from_vectors(list(line_parts(line)[:2]), q)
            assert isotropy_classify(hull, form)[2] == 2
            assert all(flag.profile(hull).index(2) == k for flag in fs.flags)
            lines += 1
            for seed in range(5):
                assert line.pardeg(fs, random_weight(q, s, 5 * trial + seed)) <= 0, trial
        assert lines >= 20


class TestZiSqrt:
    """The root of a Gaussian integer, taken on the integers, is the root
    the Scalar reference takes in Q(i), and exists exactly when that one
    does."""

    @staticmethod
    def _reference(a, b):
        root = scalar_sqrt(Scalar(a, b))
        return None if root is None else (root.re, root.im)

    def test_matches_reference_on_grid(self):
        from isoflag.higgs import _zi_sqrt
        for a in range(-60, 61):
            for b in range(-60, 61):
                assert _zi_sqrt(a, b) == self._reference(a, b), (a, b)

    def test_matches_reference_on_squares(self):
        from isoflag.higgs import _zi_sqrt
        rng = random.Random(43)
        for _ in range(10000):
            x, y = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
            a, b = x * x - y * y, 2 * x * y
            root = _zi_sqrt(a, b)
            assert root in ((x, y), (-x, -y))
            for da, db in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                assert _zi_sqrt(a + da, b + db) == self._reference(a + da, b + db), (a, b)


class TestExtensionLineForm:
    """An extension line holds its parts as Gaussian integers over least
    denominators, whichever constructor made it, and certificate_to_json
    writes them as the Scalar writer writes the same parts."""

    @staticmethod
    def _scalar_certificate_json(cert):
        """certificate_to_json of an extension-line certificate as written
        from Scalar parts: the reference for the integer writer."""
        from helpers import scalar_to_json, vector_to_json
        base, twist, delta = line_parts(cert.witness)
        return {"kind": cert.kind,
                "witness_line": {"base": vector_to_json(base), "twist": vector_to_json(twist),
                                 "delta": scalar_to_json(delta)},
                "pardeg": str(cert.pardeg)}

    def test_from_zi_equals_scalar_line(self):
        from isoflag.linalg import _scalar, _scalar_row
        rng = random.Random(47)

        def row(q):
            return ([rng.randint(-9, 9) for _ in range(q)],
                    [rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(q)])

        for trial in range(300):
            q, den = rng.randint(2, 6), rng.choice([1, 2, 3, 4, 6, 9, 12])
            base, twist, delta = row(q), row(q), (rng.randint(-9, 9), rng.randint(-9, 9))
            line = ExtensionLine.from_zi(q, base, twist, delta, den)
            parts = (_scalar_row(base, den ** 3), _scalar_row(twist, den), _scalar(*delta, den ** 4))
            same = ExtensionLine(q, *parts)
            assert line == same and hash(line) == hash(same), trial
            assert line_parts(line) == parts
            assert line != ExtensionLine(q, parts[0], parts[1], parts[2] + sc(1))

    def test_witness_line_matches_scalar_writer(self):
        import json

        from isoflag.higgs import _isotropic_line_in
        from isoflag.io import certificate_to_json
        rng = random.Random(53)
        lines = 0
        for trial in range(60):
            q = rng.randint(3, 6)
            y = Subspace.from_vectors([random_vector(rng, q) for _ in range(2)], q)
            line = _isotropic_line_in(y, rng)
            if not isinstance(line, ExtensionLine):
                continue
            lines += 1
            cert = Certificate("positive_coisotropic", witness=line, pardeg=F(-trial, 7))
            assert json.dumps(certificate_to_json(cert)) == \
                json.dumps(self._scalar_certificate_json(cert)), trial
        assert lines >= 20

    def test_witness_line_pinned(self):
        # T = span(e1 + e3, e2) in q = 3: Q restricts to diag(2, 1), whose
        # isotropic lines are 2 e2 +- sqrt(-2) (e1 + e3)
        from isoflag.io import certificate_to_json
        w3 = Weight.make(3, 4, [F(1, 8)] * 4, [(F(1, 16), F(0), F(-1, 16))] * 4)
        t_sub = Subspace.from_vectors([vec(F(1, 2), 0, F(1, 2)), vec(0, F(1, 3), 0)], 3)
        res = line_oracle(t_sub, FlagSystem.standard(3, 4), w3)
        cert = Certificate("positive_coisotropic", witness=res.witness, pardeg=res.value)
        zero, one = {"re": "0", "im": "0"}, {"re": "1", "im": "0"}
        assert certificate_to_json(cert) == self._scalar_certificate_json(cert) == {
            "kind": "positive_coisotropic",
            "witness_line": {"base": [zero, {"re": "2", "im": "0"}, zero],
                             "twist": [one, zero, one],
                             "delta": {"re": "-2", "im": "0"}},
            "pardeg": "-1/4"}


def _pairwise_isotropic_line_in(y, form, rng, guard=True):
    """_isotropic_line_in as it was with every pairing a BilinearForm.pair
    Scalar loop and the mixed planes built with vadd/vscale: the reference
    for its witnesses and its rng draws.  guard=False builds the mixed planes
    of a plane too, as _isotropic_line_in once did."""

    def is_zero_vector(v):
        return all(x.is_zero() for x in v)

    if y.dim == 0:
        return None
    _, radical, _ = isotropy_classify(y, form)
    if radical.dim > 0:
        return Subspace.from_vectors([radical.rows[0]], y.ambient)
    if y.dim == 1:
        return None
    for row in y.rows:
        if pair(form, row, row).is_zero():
            return Subspace.from_vectors([row], y.ambient)
    fallback = None
    basis = list(y.rows)
    planes = [(basis[k], basis[l]) for k in range(len(basis)) for l in range(k + 1, len(basis))]
    for _ in range(4 if len(basis) > 2 or not guard else 0):
        coeffs = [sc(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in basis[1:]]
        mixed = basis[0]
        for c, b in zip(coeffs, basis[1:]):
            mixed = vadd(mixed, vscale(c, b))
        planes.append((mixed, basis[-1]))
    for b1, b2 in planes:
        g11, g12, g22 = pair(form, b1, b1), pair(form, b1, b2), pair(form, b2, b2)
        if g11.is_zero():
            if not is_zero_vector(b1):
                return Subspace.from_vectors([b1], y.ambient)
            continue
        disc = g12 * g12 - g11 * g22
        if disc.is_zero():
            v = vadd(vscale(-g12, b1), vscale(g11, b2))
            if not is_zero_vector(v):
                return Subspace.from_vectors([v], y.ambient)
            continue
        root = scalar_sqrt(disc)
        if root is not None:
            return Subspace.from_vectors([vadd(vscale(-g12 + root, b1), vscale(g11, b2))],
                                         y.ambient)
        if fallback is None:
            fallback = ExtensionLine(y.ambient, vadd(vscale(-g12, b1), vscale(g11, b2)),
                                     b1, disc)
    return fallback


class TestIsotropicLineIn:
    def test_matches_pairwise_reference(self):
        # same witness and same rng state afterwards, on subspaces of every
        # dimension, with rational isotropic rows planted in some of them
        from isoflag.higgs import _isotropic_line_in
        rng = random.Random(11)
        kinds = set()
        for trial in range(150):
            q = rng.randint(2, 7)
            form = BilinearForm(q)
            vectors = [random_vector(rng, q, span=2) for _ in range(rng.randint(1, q))]
            if trial % 3 == 0:
                vectors[0] = random_isotropic_subspace(q, 1, trial).rows[0]
            y = Subspace.from_vectors(vectors, q)
            ours, ref = random.Random(trial), random.Random(trial)
            got = _isotropic_line_in(y, ours)
            assert got == _pairwise_isotropic_line_in(y, form, ref), trial
            assert ours.getstate() == ref.getstate(), trial
            kinds.add(type(got).__name__)
        assert kinds == {"NoneType", "Subspace", "ExtensionLine"}

    def test_planes_skip_the_mixed_planes(self):
        # a mixed plane of a plane has the plane's discriminant: skipping it
        # leaves every witness as the unguarded reference gives it and draws
        # nothing from the rng
        from isoflag.higgs import _isotropic_line_in
        rng = random.Random(13)
        kinds = set()
        for trial in range(120):
            q = rng.randint(2, 7)
            form = BilinearForm(q)
            y = Subspace.from_vectors([random_vector(rng, q, span=2) for _ in range(2)], q)
            ours = random.Random(trial)
            before = ours.getstate()
            got = _isotropic_line_in(y, ours)
            assert ours.getstate() == before, trial
            assert got == _pairwise_isotropic_line_in(y, form, random.Random(trial),
                                                      guard=False), trial
            kinds.add(type(got).__name__)
        assert kinds == {"Subspace", "ExtensionLine"}

    @pytest.mark.parametrize("rows,seed", [
        (((-1, -1, 1, -1, 1), (0, 1, -1, -1, 1), (1, 1, 0, 1, 0)), 683),
        (((-1, 1, 1, 1, -1), (0, 1, -1, 1, 0), (1, 0, 1, 1, 1)), 924),
        (((0, 1, 1, -1, 0, -1), (1, 0, 1, -1, 1, -1), (1, 1, 1, -1, 0, 1)), 1236),
    ])
    def test_mixed_plane_hit_matches_reference(self, rows, seed):
        # no basis row is isotropic and no pair of basis rows splits over
        # Q(i), so the rational line comes from one of the mixed planes
        from isoflag.higgs import _isotropic_line_in
        q = len(rows[0])
        form = BilinearForm(q)
        y = Subspace.from_vectors([vec(*r) for r in rows], q)
        got = _isotropic_line_in(y, random.Random(seed))
        assert isinstance(got, Subspace)
        assert got == _pairwise_isotropic_line_in(y, form, random.Random(seed))
        assert isotropy_classify(got, form)[0] and y.contains_subspace(got)


def _per_leaf_line_oracle(t_sub, fs, w, seed=0):
    """line_oracle as it was before it scored its leaves: one rng for the
    whole search, a witness built (with the unguarded mixed planes) and
    scored at every distinct leaf, the first best kept and replaced only by
    a rational line of equal value when it is an extension line.  The
    reference for line_oracle's (value, witness)."""
    form = BilinearForm(fs.q)
    rng = random.Random(seed)
    q, s = fs.q, fs.s
    suffix_best = [F(0)] * (s + 1)
    for j in range(s - 1, -1, -1):
        suffix_best[j] = suffix_best[j + 1] + w.beta[j][0]
    best = [None, None]
    handled = set()

    def handle_leaf(y):
        if y in handled:
            return
        handled.add(y)
        witness = _pairwise_isotropic_line_in(y, form, rng, guard=False)
        if witness is None:
            return
        if isinstance(witness, ExtensionLine):
            value = witness.pardeg(fs, w)
        else:
            value = pardeg_subspace(witness, fs, w)
        tie_upgrade = (value == best[0] and isinstance(best[1], ExtensionLine)
                       and isinstance(witness, Subspace))
        if best[0] is None or value > best[0] or tie_upgrade:
            best[0], best[1] = value, witness

    def visit(j, y, partial):
        if y.dim == 0:
            return
        if best[0] is not None and partial + suffix_best[j] < best[0]:
            return
        if j == s:
            handle_leaf(y)
            return
        flag = fs.flags[j]
        profile = flag.profile(y)
        for i in range(1, q + 1):
            if profile[i] == profile[i - 1]:
                continue
            child = y if profile[i] == y.dim else flag.intersect_piece(y, i)
            visit(j + 1, child, partial + w.beta[j][i - 1])

    visit(0, t_sub, F(0))
    return best[0], best[1]


def _seeded_subspaces(count, seed):
    """(T, flags, weight) of every dimension: random rows with small entries,
    an isotropic row planted in every third T, and in every fourth a shared
    flag system with T holding that flag's first piece."""
    rng = random.Random(seed)
    for trial in range(count):
        q, s = rng.randint(2, 6), rng.randint(3, 5)
        fs = random_flag_system(q, s, trial, shared=(trial % 4 == 0))
        w = random_weight(q, s, trial + 1)
        vectors = [random_vector(rng, q, span=2) for _ in range(rng.randint(1, q))]
        if trial % 3 == 0:
            vectors[0] = random_isotropic_subspace(q, 1, trial).rows[0]
        if trial % 4 == 0:
            vectors[0] = fs.flags[0].piece(1).rows[0]
        yield trial, Subspace.from_vectors(vectors, q), fs, w


def _top_score(y, fs, w):
    """The score of the tuple of positions where y first lies in each flag:
    the score of a best-score leaf y, since y's isotropic lines have pardeg
    at least this and at most the maximum."""
    return sum((row[flag.profile(y).index(y.dim) - 1]
                for row, flag in zip(w.beta, fs.flags)), F(0))


class TestScoredLeaves:
    def test_matches_per_leaf_reference(self):
        kinds, dims = set(), set()
        for trial, t_sub, fs, w in _seeded_subspaces(160, 21):
            res = line_oracle(t_sub, fs, w, seed=trial)
            assert (res.value, res.witness) == _per_leaf_line_oracle(t_sub, fs, w, trial), trial
            dims.add(t_sub.dim)
            if res.witness is None or isinstance(res.witness, ExtensionLine):
                kinds.add(type(res.witness).__name__)
            else:
                kinds.add(("negative", "zero", "positive")[(res.value > 0) - (res.value < 0) + 1])
        assert kinds == {"NoneType", "ExtensionLine", "negative", "zero", "positive"}
        assert dims == set(range(1, 7))

    def test_witness_built_on_best_leaves_only(self, monkeypatch):
        # every leaf handed to _isotropic_line_in is distinct and scores the
        # value, and a positive value takes one call: no extension line has
        # positive pardeg, so the first best leaf gives a rational line
        real = higgs_mod._isotropic_line_in
        positives = 0
        for trial, t_sub, fs, w in _seeded_subspaces(80, 4):
            leaves = []

            def recording(y, rng, leaves=leaves):
                found = real(y, rng)
                leaves.append((y, found))
                return found

            monkeypatch.setattr(higgs_mod, "_isotropic_line_in", recording)
            res = line_oracle(t_sub, fs, w, seed=trial)
            monkeypatch.undo()
            if res.value is None:
                assert not leaves, trial
                continue
            assert len({y for y, _ in leaves}) == len(leaves), trial
            for y, found in leaves:
                assert _top_score(y, fs, w) == res.value, trial
                value = (found.pardeg(fs, w) if isinstance(found, ExtensionLine)
                         else pardeg_subspace(found, fs, w))
                assert value == res.value, trial
            if res.value > 0:
                positives += 1
                assert len(leaves) == 1, trial
        assert positives >= 10


def _subspace_line_oracle(t_sub, fs, w, seed=0):
    """line_oracle as it was when its search held every node as a canonical
    Subspace, taking the children from profile and intersect_piece.  The
    reference for the search on Gaussian-integer rows.  Its bound credits
    every later flag with beta_1, not with beta at T's lowest end there, and
    walks every line to the last flag: the looser bound visits more nodes
    but must give the same value, best-score leaves and witness."""
    form = BilinearForm(fs.q)
    q, s = fs.q, fs.s
    suffix_best = [F(0)] * (s + 1)
    for j in range(s - 1, -1, -1):
        suffix_best[j] = suffix_best[j + 1] + w.beta[j][0]
    best = [None, []]

    def visit(j, y, partial):
        if y.dim == 0:
            return
        if best[0] is not None and partial + suffix_best[j] < best[0]:
            return
        if j == s:
            if y.dim > 1 or gram(form, [y.rows[0]])[0][0].is_zero():
                if best[0] is None or partial > best[0]:
                    best[0], best[1] = partial, []
                best[1].append(y)
            return
        flag = fs.flags[j]
        profile = flag.profile(y)
        for i in range(1, q + 1):
            if profile[i] == profile[i - 1]:
                continue
            child = y if profile[i] == y.dim else flag.intersect_piece(y, i)
            visit(j + 1, child, partial + w.beta[j][i - 1])

    visit(0, t_sub, F(0))
    rng = random.Random(seed)
    extension = None
    for y in dict.fromkeys(best[1]):
        found = higgs_mod._isotropic_line_in(y, rng)
        if isinstance(found, Subspace):
            return best[0], found
        extension = extension or found
    return best[0], extension


def _oracle_pairs(q):
    """(T, flags, weight, seed) for s in 4..8, the generic, low_rank and
    shared_flag modes and seeds 0..3, T = span(A)^perp != 0, each instance
    at its own weight and at two random admissible weights.  low_rank leaves
    dim T = q - 1, where the search is deepest and its integer rows are
    widest."""
    for s in range(4, 9):
        for mode in ("generic", "low_rank", "shared_flag"):
            for seed in range(4):
                a, fs, w = random_instance(q, s, seed, mode)
                t_sub = a.span_perp()
                if t_sub.dim == 0:
                    continue
                for other in (w, random_weight(q, s, 1000 + 7 * seed + q),
                              random_weight(q, s, 2000 + 11 * seed + s)):
                    yield t_sub, fs, other, seed


def _prime_alpha_weight(w):
    """w's beta with every alpha 1/p, p the least prime above 100 that
    divides no beta denominator.  N = lcm of all denominators then carries
    a factor p that N beta does not need, so line_oracle's integer scores
    must come back over N reduced."""
    dens = [b.denominator for row in w.beta for b in row]
    p = next(p for p in (101, 103, 107, 109, 113) if all(d % p for d in dens))
    return Weight.make(w.q, w.s, [F(1, p)] * w.s, w.beta)


class TestIntegerRowSearch:
    # 228 instances with T != 0 (generic rows span C^q at q = 5, s >= 7
    # and at q = 6, s = 8), 684 (instance, weight) pairs in all
    @pytest.mark.parametrize("q, pairs", [(5, 156), (6, 168), (7, 180), (8, 180)])
    def test_matches_subspace_search(self, q, pairs, monkeypatch):
        # the reference first, then line_oracle with the Subspace steps of
        # the flags made to raise: the search must not need them
        cases = list(_oracle_pairs(q))
        assert len(cases) == pairs
        # and every twelfth pair again at a weight whose alpha carries a
        # prime absent from beta
        extra = [(t_sub, fs, _prime_alpha_weight(w), seed)
                 for t_sub, fs, w, seed in cases[::12]]
        cases += extra
        expected = [_subspace_line_oracle(*case) for case in cases]

        def refuse(*args):
            raise AssertionError("line_oracle built a canonical subspace per node")

        monkeypatch.setattr(IsotropicFlag, "profile", refuse)
        monkeypatch.setattr(IsotropicFlag, "intersect_piece", refuse)
        kinds = set()
        for case, want in zip(cases, expected):
            res = line_oracle(*case[:3], seed=case[3])
            assert (res.value, res.witness) == want, case[1:]
            kinds.add(type(res.witness).__name__)
        assert max(t_sub.dim for t_sub, *_ in cases) == q - 1
        assert {"Subspace", "ExtensionLine"} <= kinds

    @pytest.mark.parametrize("q, s", [(5, 6), (5, 4), (6, 5)])
    def test_weight_shape_mismatch_rejected(self, q, s):
        # a weight for more punctures used to be cut to the first s, one for
        # fewer raised IndexError
        a, fs, _ = random_instance(5, 5, 0)
        w = random_weight(q, s, 3)
        for call in (line_oracle, max_pardeg_isotropic_in):
            with pytest.raises(InputError, match="weight and flag system shapes disagree"):
                call(a.span_perp(), fs, w)

    @pytest.mark.parametrize("j", [0, 3])
    def test_non_hyperbolic_flag_rejected(self, j):
        # every flag meets the first path of the search, which is never pruned
        a, fs, w = random_instance(5, 5, 0)
        flags = list(fs.flags)
        flags[j] = flag_from_rows(tuple(sc(2) * x for x in row)
                                  for row in flag_basis(flags[j]))
        with pytest.raises(InputError, match="invalid flag"):
            line_oracle(a.span_perp(), FlagSystem(tuple(flags)), w)


class TestExplicitStackWalk:
    """line_oracle walks the tuple tree on an explicit stack.  Against the
    recursive walk it replaced (helpers.recursive_line_oracle), it must make
    the same zi_echelon and line_end calls in the same order, which pins the
    visit order and the pruned nodes, and return the same value and
    witness."""

    @staticmethod
    def _cases(source):
        if source in TestNoScalarOnTheDecisionPath.POOLS:
            for q, s, seed, mode in TestNoScalarOnTheDecisionPath.POOLS[source]:
                a, fs, w = random_instance(q, s, seed, mode)
                yield a.span_perp(), fs, w, seed
        else:
            yield from _oracle_pairs(source)

    @pytest.mark.parametrize("source", ["crosscheck", "narrow", "wide", 5, 6, 7, 8])
    def test_same_calls_as_recursive_walk(self, monkeypatch, source):
        real_echelon, real_line_end = IsotropicFlag.zi_echelon, IsotropicFlag.line_end
        calls = []

        def echelon(flag, rows):
            calls.append(("zi_echelon", id(flag), tuple(rows)))
            return real_echelon(flag, rows)

        def line_end(flag, row):
            calls.append(("line_end", id(flag), row))
            return real_line_end(flag, row)

        monkeypatch.setattr(IsotropicFlag, "zi_echelon", echelon)
        monkeypatch.setattr(IsotropicFlag, "line_end", line_end)
        walked = 0
        for t_sub, fs, w, seed in self._cases(source):
            runs = []
            for oracle in (recursive_line_oracle, line_oracle):
                for flag in fs.flags:
                    flag._last = None  # each walk takes T's echelons afresh
                calls.clear()
                res = oracle(t_sub, fs, w, seed=seed)
                runs.append((list(calls), res.value, res.witness))
            (want_calls, *want), (got_calls, *got) = runs
            assert got_calls == want_calls, (source, seed)
            assert got == want, (source, seed)
            walked += len(got_calls) > 1
        assert walked


class TestPrunedSearch:
    def test_t_eliminated_once_per_flag(self, monkeypatch):
        # nu >= 2: the line oracle's bound and spine and the harvest read T's
        # echelon at each flag through the flag's cache
        real = IsotropicFlag.zi_echelon
        for q in (6, 8):
            a, fs, w = random_instance(q, 4, 0)
            t_sub = a.span_perp()
            _, radical, rank = isotropy_classify(t_sub, BilinearForm(q))
            assert radical.dim + rank // 2 >= 2, q
            spanning = []

            def counting(flag, rows):
                if Subspace.from_zi_rows(list(rows), q) == t_sub:
                    spanning.append(id(flag))
                return real(flag, rows)

            monkeypatch.setattr(IsotropicFlag, "zi_echelon", counting)
            verdict = decide_stability(a, fs, w)
            monkeypatch.undo()
            assert verdict.tag == "Undetermined", q  # the harvest ran
            assert sorted(spanning) == sorted(id(flag) for flag in fs.flags), q

    def test_t_echelon_reads_down_to_its_lowest_end(self, monkeypatch):
        # the benchmark's narrow pool (generic, q = s in 5..8, seeds 0..7):
        # T's echelon at a flag pairs the rows with no pivot yet with one
        # basis row per flag coordinate, from the top down to T's lowest end
        # and no further, so T, a generic plane, costs three pairings
        # (IsotropicFlag, item 2); a product by the whole inverse of the
        # basis reads every coordinate of every row
        real_echelon, real_pair = IsotropicFlag.zi_echelon, flags_mod._zi_pair
        for q in range(5, 9):
            for seed in range(8):
                a, fs, w = random_instance(q, q, seed)
                t_sub = a.span_perp()
                assert t_sub.dim == 2, (q, seed)
                t_echelons, reads = [], [None]
                calls = [0]

                def echelon(flag, rows):
                    if Subspace.from_zi_rows(list(rows), q) != t_sub:
                        return real_echelon(flag, rows)
                    reads[0] = (flag, [])
                    result = real_echelon(flag, rows)
                    t_echelons.append((reads[0][1], result[1]))
                    reads[0] = None
                    return result

                def pairing(row, w):
                    # the pairing with basis row w'_i reads flag coordinate q-1-i
                    calls[0] += 1
                    if reads[0] is not None:
                        flag, read = reads[0]
                        read.append(q - 1 - flag.zi_rows.index(w))
                    return real_pair(row, w)

                monkeypatch.setattr(IsotropicFlag, "zi_echelon", echelon)
                monkeypatch.setattr(flags_mod, "_zi_pair", pairing)
                decide_stability(a, fs, w)
                monkeypatch.undo()
                assert len(t_echelons) == fs.s, (q, seed)
                for read, ends in t_echelons:
                    assert min(read) == ends[-1], (q, seed)
                    assert read == [q - 1, q - 1, q - 2] and ends == [q - 1, q - 2], (q, seed)
                # nothing else of the decision pairs: each line node is a
                # non-isotropic piece of T, dropped with no line_end
                assert calls[0] == 3 * fs.s, (q, seed)

    def test_node_rows_stay_small(self, monkeypatch):
        # the rows a node hands its children are minors over their gcd, so
        # they do not grow with every flag they pass: on the wide pool (s = 4,
        # q in {6, 8}) no row an echelon takes or gives reaches 2^200
        # (175 bits at most; with a x - c p over its gcd and no exact
        # division, the rows taken alone reach 518)
        real = IsotropicFlag.zi_echelon
        seen = [0, 0]

        def echelon(flag, rows):
            result = real(flag, rows)
            for re, im in (*rows, *result[0]):
                seen[0] = max(seen[0], *(abs(x).bit_length() for x in (*re, *im)))
            seen[1] += len(rows) > 2
            return result

        monkeypatch.setattr(IsotropicFlag, "zi_echelon", echelon)
        for q, seed in ((6, 0), (6, 1), (6, 2), (8, 0)):
            decide_stability(*random_instance(q, 4, seed))
        assert seen[1] >= 20
        assert seen[0] < 200

    def test_narrow_walks_no_line(self, monkeypatch):
        # T is a plane, so every line node of the search is a line piece
        # T ^ F_i^j (the first flag that cuts T down gives it).  None of them
        # is isotropic here, so no line is walked past its first node.
        a, fs, w = random_instance(8, 8, 0)
        t_sub = a.span_perp()
        form = BilinearForm(8)
        assert t_sub.dim == 2
        lines = [flag.intersect_piece(t_sub, i) for flag in fs.flags
                 for i, d in enumerate(flag.profile(t_sub)) if d == 1]
        assert len(lines) >= fs.s
        assert not any(isotropy_classify(line, form)[0] for line in lines)
        expected = decide_stability(a, fs, w)

        def refuse(*args):
            raise AssertionError("a non-isotropic line was walked")

        monkeypatch.setattr(IsotropicFlag, "line_end", refuse)
        assert decide_stability(a, fs, w) == expected
        assert expected.exact


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


def _planted_cases():
    """(q, s, k, m): an isotropic plant of dim k in C^q, s flags, the first m
    of which share one flag whose k-th piece is the plant."""
    return [(q, s, k, m) for q in range(5, 9) for s in (4, 5) for k in (2, 3)
            if 2 * k <= q for m in (0, s // 2, s)]


class TestPlantedWitness:
    @pytest.mark.parametrize("q, s, k, m", _planted_cases())
    def test_bounds_hold_the_plant(self, q, s, k, m):
        # W isotropic and the rows drawn from W^perp, so W lies in T; flags
        # sharing W as a piece give it positive pardeg
        seed = 100 * q + 10 * s + k + m
        rng = random.Random(seed)
        form = BilinearForm(q)
        home = random_flag_system(q, 1, seed).flags[0]
        plant = home.piece(k)
        others = random_flag_system(q, s - m, seed + 1).flags if m < s else ()
        fs = FlagSystem((home,) * m + tuple(others))
        w = random_weight(q, s, seed)
        perp = orthocomplement(plant, form)
        coeffs = [[random_scalar(rng, 3) for _ in perp.rows] for _ in range(s - 2)]
        rows = mat_mul(coeffs, list(perp.rows))
        t_sub = orthocomplement(Subspace.from_vectors(rows, q), form)
        assert t_sub.contains_subspace(plant) and isotropy_classify(plant, form)[0]
        bounds = max_pardeg_isotropic_in(t_sub, fs, w)
        value = pardeg_subspace(plant, fs, w)
        if m == s:
            assert value > 0
        assert bounds.lower is not None and bounds.lower <= bounds.upper
        assert value <= bounds.upper
        if bounds.exact:
            assert value <= bounds.lower
        witness = bounds.witness
        if isinstance(witness, ExtensionLine):
            assert witness.is_isotropic(form)
            assert all(map(t_sub.contains, line_parts(witness)[:2]))
            assert witness.pardeg(fs, w) == bounds.lower
        else:
            assert witness.dim and isotropy_classify(witness, form)[0]
            assert t_sub.contains_subspace(witness)
            assert pardeg_subspace(witness, fs, w) == bounds.lower


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


def _seed_members(t_sub, fs):
    """T and its nonzero intersections T ^ F_i^j with the flag pieces, sorted
    as the bound stage once classified them all."""
    members = {t_sub}
    for flag in fs.flags:
        for i in range(1, fs.q):
            piece = flag.intersect_piece(t_sub, i)
            if piece.dim > 0:
                members.add(piece)
    return sorted(members, key=lambda m: (m.dim, repr(m.rows)))


def _classified_radicals(t_sub, fs):
    """The distinct nonzero radicals of the seed members, each member sent
    through isotropy_classify: the reference for isotropic_radicals."""
    form = BilinearForm(fs.q)
    radicals = []
    for member in _seed_members(t_sub, fs):
        radical = isotropy_classify(member, form)[1]
        if radical.dim and radical not in radicals:
            radicals.append(radical)
    return radicals


def _classified_bounds(t_sub, fs, w, oracle):
    """max_pardeg_isotropic_in as it was before isotropic_radicals: nu from
    max_isotropic_dimension and a classify-every-member loop, given the line
    oracle's result."""
    form = BilinearForm(fs.q)
    nu = max_isotropic_dimension(t_sub, form) if t_sub.dim else 0
    if nu == 0:
        return PardegBounds(None, None, None, True)
    lower, witness = oracle.value, oracle.witness
    if nu == 1:
        return PardegBounds(lower, witness, lower, True)
    for member in _seed_members(t_sub, fs):
        _, radical, _ = isotropy_classify(member, form)
        if radical.dim >= 2:
            value = pardeg_subspace(radical, fs, w)
            if lower is None or value > lower:
                lower, witness = value, radical
    profiles = [flag.profile(t_sub) for flag in fs.flags]
    upper = max(sum((per_flag_upper(k, profiles[j], w.beta[j]) for j in range(fs.s)), F(0))
                for k in range(1, nu + 1))
    return PardegBounds(lower, witness, upper, lower is not None and lower == upper)


class TestIsotropicRadicals:
    @pytest.mark.parametrize("q", range(4, 11))
    def test_matches_classify_every_member(self, q, monkeypatch):
        # seeded instances of every mixed_mode mode for s = 4..6 and q <= 8,
        # generic ones for s = 3 and for q = 9, 10, plus T = C^q, T = 0 and
        # an isotropic T; the line oracle is run once and shared
        oracles = []

        def recording(*args, **kwargs):
            oracles.append(line_oracle(*args, **kwargs))
            return oracles[-1]

        monkeypatch.setattr(higgs_mod, "line_oracle", recording)
        form = BilinearForm(q)
        modes = ("generic", "low_rank", "isotropic_span", "shared_flag")
        shapes = [(3, "generic")]
        if q <= 8:
            shapes += [(s, mode) for s in (4, 5, 6) for mode in modes]
        else:
            shapes += [(4, "generic"), (5, "generic")]
        for s, mode in shapes:
            a, fs, w = random_instance(q, s, q + s, mode=mode)
            t_subs = [orthocomplement(a.span(), form)]
            if mode == "generic":
                t_subs += [Subspace.full(q), Subspace.zero(q),
                           random_isotropic_subspace(q, q // 2, q + s)]
            for t_sub in t_subs:
                oracles.clear()
                bounds = max_pardeg_isotropic_in(t_sub, fs, w)
                oracle = oracles[0] if oracles else None
                assert bounds == _classified_bounds(t_sub, fs, w, oracle), (s, mode)
                t_radical = isotropy_classify(t_sub, form)[1]
                reference = _classified_radicals(t_sub, fs)
                for min_dim in (1, 2):
                    assert isotropic_radicals(t_sub, t_radical, fs, min_dim) == \
                        [r for r in reference if r.dim >= min_dim], (s, mode, min_dim)

    def test_wide_classifies_t_once(self, monkeypatch):
        # isotropy_classify runs on T, then once on each built piece that is
        # not isotropic, and on nothing else; intersect_piece runs once per
        # profile jump below dim T whose piece has a radical of dim >= 2 (the
        # only ones the bound stage reads), and no other.  q6 seeds 0 and 2
        # have no such piece, so they build nothing.
        real_piece = IsotropicFlag.intersect_piece
        for q, seed in ((6, 0), (6, 2), (8, 0)):
            a, fs, w = random_instance(q, 4, seed)
            form = BilinearForm(q)
            t_sub = orthocomplement(a.span(), form)

            def wide(piece):
                return isotropy_classify(piece, form)[1].dim >= 2

            expected = []
            for flag in fs.flags:
                profile = flag.profile(t_sub)
                expected += [(flag, p) for p in (real_piece(flag, t_sub, i) for i in range(1, q)
                                                 if profile[i - 1] < profile[i] < t_sub.dim)
                             if wide(p)]
            rest = {p for _, p in expected if isotropy_classify(p, form)[1] != p}
            oracle = line_oracle(t_sub, fs, w)
            monkeypatch.setattr(higgs_mod, "line_oracle", lambda *args, **kwargs: oracle)
            classified, pieces = [], []

            def classifying(y, form):
                classified.append(y)
                return isotropy_classify(y, form)

            def piece(flag, sub, i):
                pieces.append((flag, real_piece(flag, sub, i)))
                return pieces[-1][1]

            monkeypatch.setattr(higgs_mod, "isotropy_classify", classifying)
            monkeypatch.setattr(IsotropicFlag, "intersect_piece", piece)
            bounds = max_pardeg_isotropic_in(t_sub, fs, w)
            monkeypatch.undo()
            assert not bounds.exact  # nu >= 2: the harvest ran
            assert classified[0] == t_sub, (q, seed)
            assert len(classified) == 1 + len(rest) and set(classified[1:]) == rest, (q, seed)
            assert pieces == expected, (q, seed)
            assert bool(pieces) == (q == 8), (q, seed)

    def test_narrow_builds_no_harvest(self, monkeypatch):
        a, fs, w = random_instance(5, 5, 0)
        t_sub = orthocomplement(a.span(), BilinearForm(5))

        def refuse(*args):
            raise AssertionError("harvest built with nu <= 1")

        monkeypatch.setattr(higgs_mod, "isotropic_radicals", refuse)
        bounds = max_pardeg_isotropic_in(t_sub, fs, w)
        assert bounds.exact and bounds.lower == bounds.upper


class TestEndsAgainstProfiles:
    """N pardeg is N beta summed at a subspace's echelon ends, and the upper
    bound's per-flag term is N beta summed at its k lowest ends.  Against the
    profile references they replaced (helpers.pardeg_from_profile and
    per_flag_upper) on T, the span, every T ^ F_i^j and every harvested
    radical, with every k up to the subspace's dimension."""

    def test_matches_profile_references(self):
        degrees = bounds = 0
        for q, s, seed in itertools.product(range(3, 9), range(3, 7), range(8)):
            a, fs, w = random_instance(q, s, seed, mixed_mode(seed))
            t_sub = a.span_perp()
            subs = [a.span()]
            if t_sub.dim:
                t_radical = isotropy_classify(t_sub, BilinearForm(q))[1]
                subs += _seed_members(t_sub, fs)
                subs += isotropic_radicals(t_sub, t_radical, fs, 1)
            for sub in subs:
                profiles = [flag.profile(sub) for flag in fs.flags]
                assert n_pardeg(sub, fs, w) == sum(
                    pardeg_from_profile(profile, row)
                    for profile, row in zip(profiles, w.n_beta)), (q, s, seed)
                degrees += s
                ends = [flag.ends(sub) for flag in fs.flags]
                for k in range(1, sub.dim + 1):
                    assert higgs_mod._lowest_end_terms(ends, w.n_beta, k) == [
                        per_flag_upper(k, profile, row)
                        for profile, row in zip(profiles, w.n_beta)], (q, s, seed, k)
                    bounds += s
        assert degrees > 10000 and bounds > 24000


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

    def test_isotropic_span_must_hold_every_row(self):
        a = higgs(2, vec(1, 0), vec(1, 0))
        fs = FlagSystem.standard(2, 4)
        for rows in ([vec(0, 1)], [vec(1, 0)]):
            forged = Verdict("Unstable", Certificate("isotropic_span",
                                                     span=Subspace.from_vectors(rows, 2)))
            assert verify_certificate(forged, a, fs, W_Q2) == (rows == [vec(1, 0)])
        b = higgs(2, vec(1, 0), vec(0, 1))
        forged = Verdict("Unstable", Certificate("isotropic_span",
                                                 span=Subspace.from_vectors([vec(1, 0)], 2)))
        assert not verify_certificate(forged, b, fs, W_Q2)

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

    def test_forged_pardeg_rejected(self):
        fs = FlagSystem.standard(4, 4)
        a = higgs(4, vec(0, 1, 0, 0), vec(0, 0, 1, 0))
        verdict = decide_stability(a, fs, W_Q4)
        # with and without the coisotropic V' alongside the witness
        for cert in (verdict.certificate,
                     dataclasses.replace(verdict.certificate, coisotropic=None)):
            assert verify_certificate(dataclasses.replace(verdict, certificate=cert),
                                      a, fs, W_Q4)
            for stated in (F(1, 2), F(1, 8), None):
                forged = dataclasses.replace(cert, pardeg=stated)
                assert not verify_certificate(
                    dataclasses.replace(verdict, certificate=forged), a, fs, W_Q4), stated

    def test_extension_line_certificate_rejected(self):
        # an isotropic extension line inside span(A)^perp, stated with its
        # true pardeg or with a forged positive one: never a destabilizer
        form = BilinearForm(5)
        forged_count = 0
        for seed in range(4):
            a, fs, w = random_instance(5, 5, seed)
            line = line_oracle(a.span_perp(), fs, w).witness
            assert isinstance(line, ExtensionLine)
            assert line.is_isotropic(form)
            assert all(map(a.span_perp().contains, line_parts(line)[:2]))
            for stated in (line.pardeg(fs, w), F(1, 4), None):
                forged = Verdict("Unstable", Certificate("positive_coisotropic",
                                                         witness=line, pardeg=stated))
                assert not verify_certificate(forged, a, fs, w), (seed, stated)
                forged_count += 1
        assert forged_count == 12

    @pytest.mark.parametrize("cert", [Certificate("isotropic_span"),
                                      Certificate("positive_coisotropic", pardeg=F(1, 4))],
                             ids=["isotropic_span", "positive_coisotropic"])
    def test_certificate_without_its_subspace_rejected(self, cert):
        # each used to raise AttributeError on the missing span or witness
        fs = FlagSystem.standard(4, 4)
        a = higgs(4, vec(0, 1, 0, 0), vec(0, 0, 1, 0))
        assert not verify_certificate(Verdict("Unstable", cert), a, fs, W_Q4)

    def test_isotropic_span_of_wrong_ambient_rejected(self):
        # the span is classified against the rows' form, whose shape check
        # reports the mismatch as bad input rather than an IndexError
        fs = FlagSystem.standard(4, 4)
        a = higgs(4, vec(0, 1, 0, 0), vec(0, 0, 1, 0))
        for rows in ([vec(1, 0, 0)], [vec(1, 0, 0, 0, 0)]):
            forged = Verdict("Unstable", Certificate(
                "isotropic_span", span=Subspace.from_vectors(rows, len(rows[0]))))
            with pytest.raises(InputError, match="ambient dimension does not match form"):
                verify_certificate(forged, a, fs, W_Q4)

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


def _permuted_punctures(a, fs, w, rng):
    perm = list(range(fs.s))
    rng.shuffle(perm)
    return (a, FlagSystem(tuple(fs.flags[p] for p in perm)),
            Weight.make(w.q, w.s, [w.alpha[p] for p in perm], [w.beta[p] for p in perm]))


def _isometry_moved(a, fs, w, rng):
    m = isometry_rows(a.q, rng.randrange(1, 10 ** 6))
    return (higgs_from_rows(a.q, a.s, mat_mul(list(higgs_rows(a)), m)), transform_flags(fs, m),
            w)


class TestEquivariance:
    def test_verdict_invariance(self):
        for trial in range(30):
            q = [2, 3][trial % 2]
            a, fs, w = random_instance(q, 4, trial, mode=mixed_mode(trial))
            before = decide_stability(a, fs, w)
            m = isometry_rows(q, trial + 1)
            rng = random.Random(trial)
            t = random_scalar(rng, 3)
            while t.is_zero():
                t = random_scalar(rng, 3)
            rows = [tuple(x / t for x in r) for r in mat_mul(list(higgs_rows(a)), m)]
            after = decide_stability(higgs_from_rows(q, a.s, rows), transform_flags(fs, m), w)
            assert after.tag == before.tag

    @pytest.mark.parametrize("q", range(4, 9))
    def test_search_invariance(self, q):
        # the pruned search reads T's lowest end at each flag and depends on
        # visit order; its value, and decide's tag and exact supremum, must
        # not move when the punctures are permuted, an isometry acts on rows
        # and flags, or the rows are recombined
        tags = set()
        for trial in range(10):
            s = 4 + trial % 3
            seed = 10 * q + trial
            a, fs, w = random_instance(q, s, seed, mode=mixed_mode(seed))
            rng = random.Random(seed)

            def observed(a, fs, w):
                t_sub = a.span_perp()
                value = line_oracle(t_sub, fs, w).value if t_sub.dim else None
                v = decide_stability(a, fs, w)
                return value, v.tag, v.exact, (v.lower, v.upper) if v.exact else None

            before = observed(a, fs, w)
            tags.add(before[1])
            for move in (_permuted_punctures, _isometry_moved, recombined_rows):
                assert observed(*move(a, fs, w, rng)) == before, (q, trial, move.__name__)
        assert {"Unstable", "Stable"} <= tags, q
