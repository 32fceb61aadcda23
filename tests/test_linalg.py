import random
from fractions import Fraction as F
from math import lcm

import pytest

from isoflag.errors import InputError, InternalConsistencyError
from isoflag.linalg import (
    BilinearForm,
    Subspace,
    _gaussian_row,
    _reduced_kernel,
    _scalar_row,
    _zi_eliminate,
    _zi_entry,
    _zi_hyperbolic,
    complete_to_hyperbolic,
    isotropy_classify,
    kernel_basis,
    max_isotropic_dimension,
    meet_join,
    orthocomplement,
    rref,
)
from isoflag.randgen import random_isotropic_subspace
from isoflag.scalars import ONE, Scalar, ZERO

from helpers import (I, completion_rows, gaussian_matrix, gram, hyperbolic_basis, is_standard_gram,
                     isometry_rows, mat_mul, pair, random_scalar, random_vector, reversed_transpose,
                     sc, scalar_sqrt, standard_basis, vscale)


def vec(*entries):
    return tuple(x if isinstance(x, Scalar) else sc(x) for x in entries)


class TestScalar:
    def test_arithmetic(self):
        a = Scalar(F(1, 2), F(1, 3))
        b = Scalar(F(-1, 4), 2)
        assert a + b == Scalar(F(1, 4), F(7, 3))
        assert a * b == Scalar(F(1, 2) * F(-1, 4) - F(1, 3) * 2,
                               F(1, 2) * 2 + F(1, 3) * F(-1, 4))
        assert (a / b) * b == a
        assert I * I == Scalar(-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_sqrt(self):
        # the tests' reference for the package's root in Z[i]
        assert scalar_sqrt(Scalar(4)) == Scalar(2)
        assert scalar_sqrt(Scalar(-9)) == Scalar(0, 3)
        assert scalar_sqrt(Scalar(0, 2)) == Scalar(1, 1)  # (1+i)^2 = 2i
        assert scalar_sqrt(Scalar(2)) is None
        assert scalar_sqrt(Scalar(0, 1)) is None  # sqrt(i) is not in Q(i)
        z = Scalar(F(3, 5), F(-7, 2))
        sq = z * z
        root = scalar_sqrt(sq)
        assert root is not None and root * root == sq


def rank_kernel(rows):
    """Rank of the matrix and its right kernel {x : M x^t = 0}."""
    if not rows:
        raise InputError("empty matrix has no well-defined column count")
    ncols = len(rows[0])
    basis = kernel_basis(list(rows), ncols)
    return ncols - len(basis), Subspace.from_vectors(basis, ncols)


class TestRankKernel:
    def test_identity(self):
        rank, kernel = rank_kernel(standard_basis(3))
        assert rank == 3 and kernel.dim == 0

    def test_zero_matrix(self):
        rows = [vec(0, 0, 0, 0), vec(0, 0, 0, 0)]
        rank, kernel = rank_kernel(rows)
        assert rank == 0 and kernel.dim == 4

    def test_gaussian_rank_one(self):
        # rows (1, i), (i, -1): the second is i times the first
        rows = [vec(1, I), vec(I, sc(-1))]
        rank, kernel = rank_kernel(rows)
        assert rank == 1 and kernel.dim == 1
        # kernel vectors annihilate the matrix exactly
        k = kernel.rows[0]
        for r in rows:
            assert (r[0] * k[0] + r[1] * k[1]).is_zero()
        # x + i y = 0, i.e. the line through (1, i) up to scale
        assert kernel.contains(vec(1, I))

    def test_ragged(self):
        with pytest.raises(InputError):
            rank_kernel([vec(1, 0), vec(1, 0, 0)])


def _fraction_rref(rows):
    """Gauss-Jordan elimination in Scalar (Fraction pair) arithmetic, as rref
    once did it.  Kept here as the reference the Z[i] kernel is compared
    against."""
    work = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((r for r in range(row, len(work)) if not work[r][col].is_zero()), None)
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        inv = ONE / work[row][col]
        work[row] = [inv * x for x in work[row]]
        for r in range(len(work)):
            if r != row and not work[r][col].is_zero():
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return [tuple(r) for r in work[:row]], pivots


def _canonical(m):
    """rref of m's rows, each cleared of its denominators, as the Scalar
    rows D R / D and the pivot columns."""
    den, red, pivots = rref([_gaussian_row(r)[0] for r in m])
    return [_scalar_row(row, den) for row in red], list(pivots)


def _scalar_mat_mul(a, b):
    """Rows of a times b with one Scalar product per term: the reference for
    mat_mul."""
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for coef, brow in zip(row, b):
            for j, entry in enumerate(brow):
                acc[j] = acc[j] + coef * entry
        out.append(tuple(acc))
    return out


def _gaussian_integer(rng):
    """A small Gaussian integer, often of non-unit norm (1+2i, 2-i, 3, ...)."""
    return sc(rng.randint(-3, 3), rng.randint(-3, 3))


def _large_fraction(rng):
    return F(rng.randint(-10 ** 18, 10 ** 18), rng.randint(1, 10 ** 18))


def _random_entry(rng, kind):
    if kind == "gaussian_integer":
        return _gaussian_integer(rng)
    if kind == "large":
        return Scalar(_large_fraction(rng), _large_fraction(rng))
    if kind == "sparse":
        return rng.choice([ZERO, ZERO, ZERO, ONE, -ONE, I, sc(1, 2)])
    return random_scalar(rng, 5)


def _random_matrix(rng, nrows, ncols, kind):
    """A seeded random matrix of one kind, with zero rows, repeated rows,
    purely imaginary columns and low rank mixed in."""
    if kind == "low_rank":
        k = rng.randint(0, min(nrows, ncols) - 1)
        if k == 0:
            return [tuple(ZERO for _ in range(ncols)) for _ in range(nrows)]
        left = [tuple(random_scalar(rng, 3) for _ in range(k)) for _ in range(nrows)]
        right = [tuple(_gaussian_integer(rng) for _ in range(ncols)) for _ in range(k)]
        return _scalar_mat_mul(left, right)
    rows = [[_random_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    for col in range(ncols):
        if rng.random() < 0.2:
            for row in rows:
                row[col] = Scalar(0, row[col].im)
    if nrows > 1 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [ZERO] * ncols
    if nrows > 1 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return [tuple(row) for row in rows]


KINDS = ("rational", "gaussian_integer", "large", "sparse", "low_rank")


class TestKernelReference:
    def test_rref_matches_fraction_reference(self):
        rng = random.Random(23)
        for nrows in range(1, 8):
            for ncols in range(1, 10):
                for kind in KINDS:
                    m = _random_matrix(rng, nrows, ncols, kind)
                    assert _canonical(m) == _fraction_rref(m), (nrows, ncols, kind)

    def test_non_unit_pivots(self):
        # Every pivot after the first is divided by the previous one, here
        # 1+2i, 2-i and 3: exact divisions by non-units of Z[i].
        m = [vec(sc(1, 2), 1, I, 0), vec(2, sc(2, -1), 0, sc(0, 3)),
             vec(sc(0, 1), 3, sc(1, 1), 1), vec(1, 0, 0, sc(5, 5))]
        assert _canonical(m) == _fraction_rref(m)
        red, pivots = _canonical(m)
        assert pivots == [0, 1, 2, 3] and red == standard_basis(4)

    def test_purely_imaginary(self):
        m = [vec(I, sc(0, 2), 0), vec(sc(0, F(1, 3)), sc(0, -1), sc(0, 5))]
        assert _canonical(m) == _fraction_rref(m)

    def test_inexact_division_raises(self):
        # the division by the previous pivot is exact only for a reader
        # linear in the row: one shifted by 1 leaves a remainder at the
        # third row, which must be an error, not a floored row
        rows = [([2, 1, 0], [0, 0, 0]), ([1, 3, 1], [0, 0, 0]), ([0, 1, 3], [0, 0, 0])]
        assert _zi_eliminate(rows, _zi_entry, range(3))[1] == [0, 1, 2]
        with pytest.raises(InternalConsistencyError, match="inexact fraction-free division"):
            _zi_eliminate(rows, lambda row, col: (row[0][col] + 1, row[1][col]), range(3))

    def test_mat_mul_matches_scalar_reference(self):
        rng = random.Random(29)
        for n in range(1, 8):
            for k in range(1, 10):
                for kind in KINDS:
                    a = _random_matrix(rng, n, k, kind)
                    b = _random_matrix(rng, k, rng.randint(1, 9), rng.choice(KINDS))
                    assert mat_mul(a, b) == _scalar_mat_mul(a, b), (n, k, kind)

    def test_gram_matches_pair(self):
        rng = random.Random(31)
        for trial in range(40):
            p = rng.randint(1, 8)
            form = BilinearForm(p)
            vectors = _random_matrix(rng, rng.randint(1, p + 1), p, KINDS[trial % len(KINDS)])
            g = gram(form, vectors)
            assert [list(r) for r in g] == [[pair(form, v, w) for w in vectors] for v in vectors]

    def test_gram_rejects_wrong_length(self):
        with pytest.raises(InputError):
            gram(BilinearForm(3), [vec(1, 0)])


def _denominators_lcm(rows):
    return lcm(1, *(x.re.denominator for r in rows for x in r),
               *(x.im.denominator for r in rows for x in r))


def _canonical_form_matrices(seed):
    """Seeded matrices with zero rows, dependent rows, mixed denominators,
    purely imaginary entries, full rank and the zero space."""
    rng = random.Random(seed)
    out = []
    for nrows in range(1, 6):
        for ncols in range(1, 7):
            out += [_random_matrix(rng, nrows, ncols, kind) for kind in KINDS]
            out.append([tuple(Scalar(0, random_scalar(rng, 5).re) for _ in range(ncols))
                        for _ in range(nrows)])
            out.append([(ZERO,) * ncols] * nrows)
        out.append(_mixed_basis(Subspace.full(nrows), rng))
    return out


class TestCanonicalForm:
    """Subspace holds (D, D R, pivots): R the reduced echelon form, D the
    least positive integer that clears it.  _fraction_rref is the reference."""

    def test_matches_fraction_reference(self):
        seen = set()
        for m in _canonical_form_matrices(71):
            ncols = len(m[0])
            y = Subspace.from_vectors(m, ncols)
            red, pivots = _fraction_rref(m)
            assert (list(y.rows), list(y.pivots)) == (red, pivots), m
            assert y.den == _denominators_lcm(red), m
            assert y.zi_rows == tuple((tuple(x.re * y.den for x in r), tuple(x.im * y.den for x in r))
                                      for r in red)
            seen.add("zero" if not y.dim else "full" if y.dim == ncols else "proper")
            seen.add("den > 1" if y.den > 1 else "den 1")
        assert seen == {"zero", "full", "proper", "den > 1", "den 1"}

    def test_equality_and_hash_partition_as_reference_rows(self):
        rng = random.Random(73)
        subs, refs = [], []
        for m in _canonical_form_matrices(73)[::3]:
            p = len(m[0])
            y = Subspace.from_vectors(m, p)
            for basis in (m, _mixed_basis(y, rng), [vscale(sc(2, 1), r) for r in m]):
                subs.append(Subspace.from_vectors(basis, p))
                refs.append((p, tuple(_fraction_rref(basis)[0])))
        equal_pairs = 0
        for x, rx in zip(subs, refs):
            for y, ry in zip(subs, refs):
                assert (x == y) == (rx == ry)
                if x == y:
                    assert hash(x) == hash(y)
                    equal_pairs += 1
        assert len(set(subs)) == len(set(refs)) < len(subs) < equal_pairs

    def test_double_orthocomplement_keeps_d(self):
        proper = 0
        for m in _canonical_form_matrices(79):
            p = len(m[0])
            form = BilinearForm(p)
            y = Subspace.from_vectors(m, p)
            perp = orthocomplement(y, form)
            assert orthocomplement(perp, form) == y
            # the stored form is canonical, with the least D
            assert perp == Subspace.from_vectors(list(perp.rows), p)
            if 0 < y.dim < p:
                assert perp.den == y.den
                proper += y.den > 1
        assert proper > 20


def _annihilator_meet_join(u, v):
    """Meet and join as meet_join once computed them: the join by stacking
    the bases, the meet as the kernel of the stacked annihilators.  Kept here
    as a reference meet_join is compared against."""
    p = u.ambient

    def annihilator(s):
        if s.dim == 0:
            return Subspace.full(p)
        return Subspace.from_vectors(kernel_basis(list(s.rows), p), p)

    join = Subspace.from_vectors(list(u.rows) + list(v.rows), p)
    ann_rows = list(annihilator(u).rows) + list(annihilator(v).rows)
    if not ann_rows:
        return Subspace.full(p), join
    return Subspace.from_vectors(kernel_basis(ann_rows, p), p), join


def _zassenhaus_meet_join(u, v):
    """Meet and join from one Zassenhaus elimination, as meet_join once
    computed them.  Kept here as a reference meet_join is compared against.

    The block matrix [[u, u], [v, 0]] (the rows of u repeated beside
    themselves, the rows of v beside zeros) has 2p columns.  In its reduced
    echelon form, the rows whose pivot lies in the left half have left halves
    that are the canonical basis of the join; the other rows have zero left
    halves, and their right halves are the canonical basis of the meet."""
    p = u.ambient
    zeros = (ZERO,) * p
    red = Subspace.from_vectors([r + r for r in u.rows] + [r + zeros for r in v.rows], 2 * p)
    join = tuple(r[:p] for r, c in zip(red.rows, red.pivots) if c < p)
    meet = tuple(r[p:] for r, c in zip(red.rows, red.pivots) if c >= p)
    out = Subspace.from_vectors(list(meet), p), Subspace.from_vectors(list(join), p)
    # the halves are already canonical bases
    assert (out[0].rows, out[1].rows) == (meet, join)
    return out


def _sparse_vector(rng, p):
    """Entries in {0, 1, -1, i}, so that meets of small spans are often
    nonzero."""
    return tuple(rng.choice([ZERO, ZERO, ONE, -ONE, I]) for _ in range(p))


class TestMeetJoin:
    def test_idempotent(self):
        u = Subspace.from_vectors([vec(1, 2, 0)], 3)
        meet, join = meet_join(u, u)
        assert meet == u and join == u

    def test_complementary_lines(self):
        u = Subspace.from_vectors([vec(1, 0)], 2)
        v = Subspace.from_vectors([vec(0, 1)], 2)
        meet, join = meet_join(u, v)
        assert meet.dim == 0 and join == Subspace.full(2)

    def test_plane_intersection(self):
        u = Subspace.from_vectors([vec(1, 0, 0, 0), vec(0, 1, 0, 0)], 4)
        v = Subspace.from_vectors([vec(0, 1, 0, 0), vec(0, 0, 1, 0)], 4)
        meet, _ = meet_join(u, v)
        assert meet == Subspace.from_vectors([vec(0, 1, 0, 0)], 4)

    def test_ambient_mismatch(self):
        with pytest.raises(InputError):
            meet_join(Subspace.full(2), Subspace.full(3))

    def test_dimension_formula_random(self):
        rng = random.Random(5)
        for _ in range(60):
            p = rng.randint(2, 6)
            u = Subspace.from_vectors(
                [random_vector(rng, p) for _ in range(rng.randint(0, p))], p)
            v = Subspace.from_vectors(
                [random_vector(rng, p) for _ in range(rng.randint(0, p))], p)
            meet, join = meet_join(u, v)
            assert meet.dim + join.dim == u.dim + v.dim
            assert u.contains_subspace(meet) and v.contains_subspace(meet)
            assert join.contains_subspace(u) and join.contains_subspace(v)

    def _check_against_references(self, u, v, seen):
        meet, join = meet_join(u, v)
        assert (meet, join) == _annihilator_meet_join(u, v)
        assert (meet, join) == _zassenhaus_meet_join(u, v)
        p = u.ambient
        for x in (meet, join):
            assert x == Subspace.from_vectors(list(x.rows), p)
        if u.dim and v.dim:
            seen.add(("join full" if join.dim == p else "join not full",
                      "meet nonzero" if meet.dim else "meet zero"))

    def test_matches_annihilator_reference(self):
        rng = random.Random(17)
        seen = set()
        for trial in range(120):
            p = rng.randint(1, 6)
            draw = random_vector if trial % 2 else _sparse_vector
            u = Subspace.from_vectors(
                [draw(rng, p) for _ in range(rng.randint(0, p))], p)
            inside_u = Subspace.from_vectors(
                [vscale(random_scalar(rng, 3), row) for row in u.rows if rng.random() < 0.5], p)
            around_u = Subspace.from_vectors(
                list(u.rows) + [draw(rng, p) for _ in range(rng.randint(0, 2))], p)
            others = [
                Subspace.from_vectors([draw(rng, p) for _ in range(rng.randint(0, p))], p),
                Subspace.zero(p), Subspace.full(p), u, inside_u, around_u,
            ]
            for v in others:
                for a, b in ((u, v), (v, u)):
                    self._check_against_references(a, b, seen)
        assert len(seen) == 4

    def test_shared_vectors_join_full_and_not(self):
        # u and v share k random vectors beside their own: the meet is
        # nonzero, and the join is full exactly when the count reaches p
        rng = random.Random(19)
        seen = set()
        for trial in range(150):
            p = rng.randint(2, 8)
            k = rng.randint(1, p - 1)
            common = [random_vector(rng, p) for _ in range(k)]
            u = Subspace.from_vectors(
                common + [random_vector(rng, p) for _ in range(rng.randint(0, p - k))], p)
            v = Subspace.from_vectors(
                common + [random_vector(rng, p) for _ in range(rng.randint(0, p - k))], p)
            for a, b in ((u, v), (v, u)):
                self._check_against_references(a, b, seen)
        assert seen == {("join full", "meet nonzero"), ("join not full", "meet nonzero")}

    def test_isotropy_pairs(self):
        # (Y, Y^perp) as isotropy_classify passes them: Y isotropic,
        # nondegenerate, or an isotropic part plus random vectors
        rng = random.Random(43)
        kinds = set()
        seen = set()
        for trial in range(120):
            p = rng.randint(2, 8)
            form = BilinearForm(p)
            k = rng.randint(1, p // 2)
            iso = random_isotropic_subspace(p, k, trial + 3000)
            extra = [random_vector(rng, p) for _ in range(rng.randint(0, p - k))]
            y = Subspace.from_vectors(list(iso.rows) + extra, p)
            perp = orthocomplement(y, form)
            self._check_against_references(y, perp, seen)
            radical = isotropy_classify(y, form)[1]
            assert radical == _zassenhaus_meet_join(y, perp)[0]
            kinds.add((radical.dim == y.dim, radical.dim == 0))
        # isotropic, nondegenerate and partly degenerate Y all occur
        assert kinds == {(True, False), (False, True), (False, False)}

    def test_hm_grassmannian_unchanged(self, monkeypatch):
        import helpers
        from helpers import hm_grassmannian, oneps_from_rows

        rng = random.Random(61)
        cases = []
        while len(cases) < 80:
            q = rng.choice([2, 3, 4, 5, 6])
            top = sorted((rng.randint(0, 3) for _ in range(q // 2)), reverse=True)
            m = tuple(top) + ((0,) if q % 2 else ()) + tuple(-x for x in reversed(top))
            basis = hyperbolic_basis(BilinearForm(q), rng.randint(0, 10 ** 6))
            lam = oneps_from_rows(rng.randint(-3, 3), m, basis)
            i = rng.randint(1, q)
            sub = Subspace.from_vectors([random_vector(rng, q) for _ in range(i)], q)
            if sub.dim == i:
                cases.append((lam, sub, i, rng.randint(1, 3)))
        values = [hm_grassmannian(*case) for case in cases]
        monkeypatch.setattr(helpers, "meet_join", _zassenhaus_meet_join)
        assert values == [hm_grassmannian(*case) for case in cases]
        assert any(values)


def _transpose(rows):
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


class TestReducedKernel:
    def test_matches_kernel_basis(self):
        rng = random.Random(47)
        for nrows in range(1, 7):
            for ncols in range(1, 9):
                for kind in KINDS:
                    m = _random_matrix(rng, nrows, ncols, kind)
                    y = Subspace.from_vectors(m, ncols)
                    pivots = list(y.pivots)
                    assert [next(i for i, x in enumerate(row) if x) for row in y.rows] == pivots
                    got = [_scalar_row(row, y.den) for row in _reduced_kernel(y)]
                    assert got == kernel_basis(list(y.rows), ncols) == kernel_basis(m, ncols)
                    # an independent check: the vectors annihilate M, and
                    # there is one per free column, 1 there and 0 at the others
                    assert len(got) == ncols - len(pivots)
                    if got:
                        assert all(x.is_zero() for row in mat_mul(m, _transpose(got)) for x in row)
                    free = [c for c in range(ncols) if c not in pivots]
                    assert [[x[c] for c in free] for x in got] == \
                        [[ONE if c == f else ZERO for c in free] for f in free]

    def test_no_rows(self):
        assert [_scalar_row(row, 1) for row in _reduced_kernel(Subspace.zero(3))] == \
            standard_basis(3)


def _back_substitution_contains(sub, v):
    """Membership by back-substitution against the reduced basis in Scalar
    arithmetic, as Subspace.contains once did it.  Kept here as the
    reference the one-product check is compared against."""
    work = list(v)
    for row in sub.rows:
        lead = next(i for i, x in enumerate(row) if not x.is_zero())
        if not work[lead].is_zero():
            c = work[lead]
            work = [x - c * y for x, y in zip(work, row)]
    return all(x.is_zero() for x in work)


def _combination(rng, rows, p, kind):
    """A random combination of rows (the zero vector when there are none),
    with 18-digit coefficients for the "large" kind."""
    out = [ZERO] * p
    for row in rows:
        c = _random_entry(rng, "large" if kind == "large" else "rational")
        out = [x + c * y for x, y in zip(out, row)]
    return tuple(out)


class TestContains:
    def test_matches_back_substitution_reference(self):
        rng = random.Random(37)
        outsiders = 0
        for trial in range(100):
            p = rng.randint(1, 7)
            kind = KINDS[trial % len(KINDS)]
            sub = Subspace.from_vectors(_random_matrix(rng, rng.randint(1, p), p, kind), p)
            for s in (sub, Subspace.zero(p), Subspace.full(p)):
                members = [_combination(rng, s.rows, p, kind) for _ in range(3)]
                others = [_random_matrix(rng, 1, p, kind)[0] for _ in range(3)]
                others.append(tuple(ZERO for _ in range(p)))
                for v in members:
                    assert s.contains(v) and _back_substitution_contains(s, v)
                for v in others:
                    want = _back_substitution_contains(s, v)
                    outsiders += not want
                    assert s.contains(v) == want
                for other in (Subspace.from_vectors(members, p),
                              Subspace.from_vectors(others, p),
                              Subspace.from_vectors(members + others[:1], p),
                              Subspace.zero(p), Subspace.full(p), sub, s):
                    want = all(_back_substitution_contains(s, r) for r in other.rows)
                    assert s.contains_subspace(other) == want
        # the comparison is not only over members
        assert outsiders > 100

    def test_wrong_ambient_rejected(self):
        sub = Subspace.from_vectors([vec(1, 0, I)], 3)
        with pytest.raises(InputError):
            sub.contains(vec(1, 0))
        with pytest.raises(InputError):
            sub.contains_subspace(Subspace.full(2))
        with pytest.raises(InputError):
            Subspace.zero(3).contains_subspace(Subspace.from_vectors([vec(1, 0)], 2))


def _from_vectors_orthocomplement(y, form):
    """orthocomplement as it once was: the kernel of the reversed rows, put
    into canonical form by a second elimination.  Kept here as the reference
    for reading the canonical basis straight off the kernel."""
    if y.dim == 0:
        return Subspace.full(form.p)
    reversed_rows = [tuple(reversed(r)) for r in y.rows]
    return Subspace.from_vectors(kernel_basis(reversed_rows, form.p), form.p)


class TestOrthocomplement:
    def test_matches_from_vectors_reference(self):
        rng = random.Random(53)
        for trial in range(250):
            p = rng.randint(1, 7)
            form = BilinearForm(p)
            kind = KINDS[trial % len(KINDS)]
            sub = Subspace.from_vectors(_random_matrix(rng, rng.randint(1, p), p, kind), p)
            for y in (sub, Subspace.zero(p), Subspace.full(p)):
                perp = orthocomplement(y, form)
                # == compares the stored bases, so this also checks that the
                # basis read off the kernel is the canonical one
                assert perp == _from_vectors_orthocomplement(y, form), (trial, p, kind)

    def test_full_space(self):
        form = BilinearForm(5)
        assert orthocomplement(Subspace.full(5), form).dim == 0

    def test_basis_line(self):
        form = BilinearForm(4)
        y = Subspace.from_vectors([vec(1, 0, 0, 0)], 4)
        perp = orthocomplement(y, form)
        assert perp == Subspace.from_vectors(
            [vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0)], 4)

    def test_anisotropic_line(self):
        form = BilinearForm(2)
        y = Subspace.from_vectors([vec(1, 1)], 2)
        assert orthocomplement(y, form) == Subspace.from_vectors([vec(1, -1)], 2)

    def test_double_perp_random(self):
        rng = random.Random(11)
        for _ in range(80):
            p = rng.randint(1, 7)
            form = BilinearForm(p)
            y = Subspace.from_vectors(
                [random_vector(rng, p) for _ in range(rng.randint(0, p))], p)
            perp = orthocomplement(y, form)
            assert y.dim + perp.dim == p
            assert orthocomplement(perp, form) == y


class TestIsotropy:
    def test_isotropic_plane(self):
        form = BilinearForm(4)
        y = Subspace.from_vectors([vec(1, 0, 0, 0), vec(0, 1, 0, 0)], 4)
        iso, radical, rank = isotropy_classify(y, form)
        assert iso and radical == y and rank == 0

    def test_anisotropic_line(self):
        form = BilinearForm(2)
        y = Subspace.from_vectors([vec(1, 1)], 2)
        iso, radical, rank = isotropy_classify(y, form)
        assert not iso and radical.dim == 0 and rank == 1

    def test_zero_subspace(self):
        form = BilinearForm(3)
        iso, radical, rank = isotropy_classify(Subspace.zero(3), form)
        assert iso and rank == 0

    def test_ambient_mismatch_rejected(self):
        y = Subspace.from_vectors([vec(1, 0, 0)], 3)
        for p in (2, 4):
            with pytest.raises(InputError, match="ambient dimension does not match form"):
                isotropy_classify(y, BilinearForm(p))

    def test_radical_is_isotropic_random(self):
        rng = random.Random(3)
        for _ in range(60):
            p = rng.randint(2, 7)
            form = BilinearForm(p)
            y = Subspace.from_vectors(
                [random_vector(rng, p) for _ in range(rng.randint(1, p))], p)
            _, radical, rank = isotropy_classify(y, form)
            assert rank == y.dim - radical.dim
            iso, _, _ = isotropy_classify(radical, form)
            assert iso


def _mixed_basis(y, rng):
    """A non-canonical basis of y: its reduced rows under a random
    invertible triangular change of basis."""
    rows = list(y.rows)
    mixed = []
    for k, row in enumerate(rows):
        c = random_scalar(rng, 3)
        while c.is_zero():
            c = random_scalar(rng, 3)
        v = vscale(c, row)
        for later in rows[k + 1:]:
            v = tuple(a + b for a, b in zip(v, vscale(random_scalar(rng, 3), later)))
        mixed.append(v)
    return mixed


def _meet_radical(y, form):
    """The radical as Y meet Y^perp, as isotropy_classify once computed it.
    Kept here as the reference the Gram-matrix radical is compared against."""
    return meet_join(y, orthocomplement(y, form))[0]


class TestGramRadical:
    def test_matches_isotropy_classify(self):
        # zero Gram matrices (isotropic subspaces), full-rank ones (generic
        # subspaces and the whole space), and rank-deficient ones (an
        # isotropic I plus vectors of I^perp), each rebuilt from a mixed basis
        rng = random.Random(29)
        kinds = {"zero": 0, "full": 0, "deficient": 0}
        for p in range(2, 9):
            form = BilinearForm(p)
            subs = [Subspace.zero(p), Subspace.full(p)]
            for k in range(1, p // 2 + 1):
                iso = random_isotropic_subspace(p, k, 7 * p + k)
                perp = orthocomplement(iso, form)
                subs.append(iso)
                for extra in range(1, perp.dim - k + 1):
                    coeffs = [[random_scalar(rng, 3) for _ in perp.rows] for _ in range(extra)]
                    subs.append(Subspace.from_vectors(
                        list(iso.rows) + mat_mul(coeffs, list(perp.rows)), p))
            subs += [Subspace.from_vectors([random_vector(rng, p) for _ in range(k)], p)
                     for k in range(1, p + 1)]
            for y in subs:
                radical = _meet_radical(y, form)
                rebuilt = Subspace.from_vectors(_mixed_basis(y, rng), p)
                iso, got, rank = isotropy_classify(rebuilt, form)
                assert (iso, got, rank) == (radical == y, radical, y.dim - radical.dim), \
                    (p, y.dim)
                if y.dim:
                    kinds["zero" if radical == y else "full" if not radical.dim
                          else "deficient"] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_whole_space(self):
        # T = C^q as a member: the standard rows have Gram matrix J, any
        # other basis of C^q a congruent one
        for p in range(1, 9):
            form = BilinearForm(p)
            assert isotropy_classify(Subspace.full(p), form) == (False, Subspace.zero(p), p)
            basis = Subspace.from_vectors(list(hyperbolic_basis(form, p)), p)
            rebuilt = Subspace.from_vectors(_mixed_basis(basis, random.Random(p)), p)
            assert isotropy_classify(rebuilt, form) == (False, Subspace.zero(p), p)
            assert _meet_radical(rebuilt, form) == Subspace.zero(p)


class TestHyperbolicBasis:
    def test_seed_zero_is_standard(self):
        form = BilinearForm(4)
        assert hyperbolic_basis(form, 0) == tuple(standard_basis(4))

    def test_gram_500_seeds(self):
        for seed in range(500):
            p = seed % 8 + 1
            form = BilinearForm(p)
            basis = hyperbolic_basis(form, seed)
            assert is_standard_gram(form, list(basis))

    def test_odd_middle_vector(self):
        form = BilinearForm(3)
        basis = hyperbolic_basis(form, 7)
        assert pair(form, basis[1], basis[1]) == ONE

    def test_seed_two_gram(self):
        form = BilinearForm(2)
        w1, w2 = hyperbolic_basis(form, 1)
        assert pair(form, w1, w1).is_zero()
        assert pair(form, w2, w2).is_zero()
        assert pair(form, w1, w2) == ONE


class TestIntegerHyperbolicCheck:
    """_zi_hyperbolic sums each Gram entry over nonzero entries only; it
    must agree with the dense product B' (J B'^T J) = den^2 I."""

    @staticmethod
    def _dense(rows, den):
        q = len(rows)
        b_re, b_im = [re for re, _ in rows], [im for _, im in rows]
        inv_re, inv_im = reversed_transpose(b_re), reversed_transpose(b_im)
        for i in range(q):
            for j in range(q):
                re = sum(b_re[i][k] * inv_re[k][j] - b_im[i][k] * inv_im[k][j] for k in range(q))
                im = sum(b_re[i][k] * inv_im[k][j] + b_im[i][k] * inv_re[k][j] for k in range(q))
                if (re, im) != ((den * den if i == j else 0), 0):
                    return False
        return True

    def test_reversed_transpose(self):
        b = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert reversed_transpose(b) == [(9, 6, 3), (8, 5, 2), (7, 4, 1)]

    def test_matches_dense_product(self):
        rng = random.Random(26)
        valid = 0
        for trial in range(400):
            q = trial % 8 + 1
            rows, den = gaussian_matrix(list(hyperbolic_basis(BilinearForm(q), trial)))
            kind = trial % 5
            i, k = rng.randrange(q), rng.randrange(q)
            if kind == 1:
                rows[i][0][k] += rng.choice([-1, 1])
            elif kind == 2:
                rows[i][1][k] += rng.choice([-2, 1])
            elif kind == 3:
                rows[i] = ([0] * q, [0] * q)
            elif kind == 4:
                den *= 2
            assert _zi_hyperbolic(rows, den) == self._dense(rows, den), trial
            valid += _zi_hyperbolic(rows, den)
        assert 80 <= valid < 400


class TestCompletion:
    # the closed form's properties on the top members of nested chains are
    # checked in test_isometry_rows.test_completion_matches_matrix_product

    def test_random_isotropic_chains(self):
        # the first k1 canonical rows of W are themselves reduced, so they
        # are the canonical rows of their span, and the completion of W is
        # adapted to every chain of leading row prefixes
        rng = random.Random(17)
        for trial in range(50):
            q = rng.randint(2, 8)
            form = BilinearForm(q)
            k2 = rng.randint(1, q // 2)
            big = random_isotropic_subspace(q, k2, trial + 1000)
            k1 = rng.randint(0, k2)
            small = Subspace.from_vectors(list(big.rows[:k1]), q)
            basis = completion_rows(big)
            assert is_standard_gram(form, list(basis))
            assert Subspace.from_vectors(list(basis[:k2]), q) == big
            assert Subspace.from_vectors(list(basis[:k1]), q) == small

    def test_rejects_non_isotropic(self):
        # Q((1, 1), (1, 1)) = 2; the caller checks isotropy, so this is a bug
        with pytest.raises(InternalConsistencyError, match="bad Gram matrix"):
            complete_to_hyperbolic(Subspace.from_vectors([vec(1, 1)], 2))

    def test_rejects_non_isotropic_top(self):
        # <e_0> is isotropic, but <e_0, e_3> is a hyperbolic plane: its
        # pivots pair (0 + 3 = q - 1)
        e = standard_basis(4)
        with pytest.raises(InternalConsistencyError, match="bad Gram matrix"):
            complete_to_hyperbolic(Subspace.from_vectors([e[0], e[3]], 4))

    def test_empty_chain_gives_standard_basis(self):
        # k = 0: the zero subspace has no rows to complete
        for p in range(1, 7):
            assert completion_rows(Subspace.zero(p)) == tuple(standard_basis(p))


class TestIsometries:
    def test_special_isometries_preserve_form(self):
        rng = random.Random(2)
        for seed in range(40):
            p = rng.randint(2, 7)
            form = BilinearForm(p)
            # the rows are the images of the standard basis, whose Gram matrix is J
            assert is_standard_gram(form, isometry_rows(p, seed + 1))

    def test_max_isotropic_dimension(self):
        form = BilinearForm(4)
        assert max_isotropic_dimension(Subspace.full(4), form) == 2
        aniso = Subspace.from_vectors([vec(1, 0, 0, 1)], 4)
        assert max_isotropic_dimension(aniso, form) == 0
